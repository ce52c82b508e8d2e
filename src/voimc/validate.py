"""Argument checks and the estimator names, kept free of numpy so the
command line can offer its choices and refuse a bad worker count before the
library loads.

`_check_int` is the one integer-argument check and `_check_choice` the one
choice check; every module validates its arguments through them.
"""

from __future__ import annotations

import numbers

ESTIMATOR_NAMES = (
    "evpi-nested",
    "evpi-single",
    "evpi-coupled",
    "evppi-nested",
    "evppi-single",
    "evppi-coupled",
)


def _check_int(value, name: str, minimum: int) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is a
    Python or numpy integer (bools are not) of at least ``minimum``."""
    # numpy registers its integer types as numbers.Integral; the plain-int
    # test first keeps the common call cheap
    if type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    ):
        if value >= minimum:
            return int(value)
    wanted = {0: "a non-negative integer", 1: "a positive integer"}
    wanted = wanted.get(minimum, f"an integer >= {minimum}")
    raise ValueError(f"{name} must be {wanted}, got {value!r}")


def _check_choice(value, name: str, choices: tuple) -> None:
    """ValueError naming ``name`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
