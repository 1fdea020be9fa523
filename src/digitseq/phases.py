"""Exact unit-circle phase arithmetic shared across modules.

Rational phases are reduced in integer arithmetic before any float
conversion, so e(num/den) never loses accuracy to a large argument.
"""

from __future__ import annotations

import cmath

import numpy as np


def e_frac(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with the argument reduced exactly first."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def roots_of_unity(den: int) -> np.ndarray:
    """Table of e(r/den) for r < den."""
    return np.exp(2j * np.pi * np.arange(den) / den)


def frac_norm(x: float) -> float:
    """Distance from x to the nearest integer."""
    r = x % 1.0
    return min(r, 1.0 - r)
