"""Exception and warning types shared across the package."""


class LapstreamError(Exception):
    """Base class for all lapstream errors."""


class SelfLoopError(LapstreamError):
    """An edge names the same node twice."""


class MissingEdgeError(LapstreamError):
    """A removal names an edge that is not in the graph."""


class NonFiniteWeightError(LapstreamError):
    """An edge weight is NaN or infinite."""


class FloatRangeError(LapstreamError):
    """A centrality or a normalized centrality is past the float range."""


class DuplicateEdgeError(LapstreamError):
    """A delta re-adds an edge already present; reported by ``lapstream validate``."""


class ZeroEnergyError(LapstreamError):
    """Normalization requested on a graph with zero Laplacian energy."""


class ParseError(LapstreamError):
    """An edge-event line does not match the input grammar."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class EmptyDatasetError(LapstreamError):
    """No events or snapshots to build a stream from."""


class DeltaError(LapstreamError):
    """A delta could not be applied; aborts an evolving run."""

    def __init__(self, step, cause):
        super().__init__(f"delta at step {step}: {cause}")
        self.step = step
        self.cause = cause


class CompareMismatchError(LapstreamError):
    """Batch and dynamic centralities diverged in a compare run."""

    def __init__(self, step, node, batch_value, dynamic_value):
        super().__init__(
            f"step {step}: node {node} diverged "
            f"(batch={batch_value!r}, dynamic={dynamic_value!r})"
        )
        self.step = step
        self.node = node
        self.batch_value = batch_value
        self.dynamic_value = dynamic_value


class NegativeWeightWarning(UserWarning):
    """Edge stored with a negative weight; normalization bounds no longer hold."""
