"""Checked numbers for the command-line tools.

Each factory returns an argparse ``type=`` callable that refuses a value
the option cannot use, so a bad number is a usage error (exit 2, one
``error:`` line) rather than a traceback, an empty chart or a gate that
compares against NaN.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable, TypeVar

N = TypeVar("N", int, float)


def _checked(parse: Callable[[str], N], min: N, kind: str) -> Callable[[str], N]:
    def check(text: str) -> N:
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if value < min:
            raise argparse.ArgumentTypeError(f"must be at least {min:g}, got {text!r}")
        return value

    return check


def count(min: int) -> Callable[[str], int]:
    """An integer no smaller than ``min``."""
    return _checked(int, min, "an integer")


def finite(min: float) -> Callable[[str], float]:
    """A finite float no smaller than ``min``: NaN and ±inf are refused."""
    return _checked(float, min, "a number")
