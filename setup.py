"""Builds the compiled kernel extension from the shipped ``_kernels_c.c``.

The extension is optional: without a C compiler the build skips it and
``lapstream.kernels`` falls back to the pure-Python kernels at import time.
``-ffp-contract=off`` keeps weighted double arithmetic bitwise identical to
CPython's.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "lapstream._kernels_c",
            ["src/lapstream/_kernels_c.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
