"""Eigenvalue lower bounds on toughness and their verification.

Four bounds, all functions of the degree d and the second largest absolute
eigenvalue lam, in historical order of strength:

    alon    (1/3) * (d^2 / (d*lam + lam^2) - 1)
    brouwer d/lam - 2
    gu      d/lam - sqrt(2)
    main    d/lam - 1

The last is the one verified end-to-end against exact toughness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, _require_connected, _require_regular
from .spectra import LAMBDA_EPS
from .toughness import ToughnessResult


@dataclass(frozen=True)
class BoundReport:
    """All four bounds, the exact toughness when available, and slacks.

    ``exact_t`` is None when the minimization domain is empty (complete
    graphs) or when the graph exceeds the exact-search cap; ``slack`` and
    ``tight_gap`` are None in the same cases.  ``violation`` fires only if
    exact toughness is defined and falls below the main bound by more than
    the eigenvalue epsilon, which a correct implementation never observes.
    """

    d: int
    lam: float
    alon: float
    brouwer: float
    gu: float
    theorem: float
    exact_t: Fraction | None
    slack: float | None
    tight_gap: float | None
    violation: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "lambda": self.lam,
            "alon": self.alon,
            "brouwer": self.brouwer,
            "gu": self.gu,
            "theorem": self.theorem,
            "exact_t": None if self.exact_t is None else _rational_dict(self.exact_t),
            "slack": self.slack,
            "tight_gap": self.tight_gap,
            "violation": self.violation,
        }


def _rational_dict(frac: Fraction) -> dict:
    return {"num": frac.numerator, "den": frac.denominator}


def _check_lambda(lam: float | None) -> float:
    """Return ``lam``, refusing None, NaN, infinity and lam <= 0; a graph's
    lambda is positive exactly when n >= 2 and m > 0."""
    if lam is None or not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite (n >= 2 and m > 0), got {lam}")
    return lam


def alon_bound(d: int, lam: float) -> float:
    _check_lambda(lam)
    return (d * d / (d * lam + lam * lam) - 1.0) / 3.0


def brouwer_bound(d: int, lam: float) -> float:
    _check_lambda(lam)
    return d / lam - 2.0


def gu_bound(d: int, lam: float) -> float:
    _check_lambda(lam)
    return d / lam - math.sqrt(2.0)


def theorem_bound(d: int, lam: float) -> float:
    _check_lambda(lam)
    return d / lam - 1.0


def verify_theorem(g: Graph, lam: float,
                   toughness: ToughnessResult | None) -> BoundReport:
    """Evaluate all bounds on a connected regular graph and compare with t(G).

    ``toughness`` is the exact result, or None when t(G) is undefined or was
    not computed (over the size cap); then ``exact_t`` is None.
    """
    d = _require_regular(g)
    _require_connected(g, "bound verification")
    _check_lambda(lam)
    exact_t = None if toughness is None else toughness.t
    theorem = theorem_bound(d, lam)
    slack = None
    tight_gap = None
    violation = False
    if exact_t is not None:
        slack = float(exact_t) - theorem
        tight_gap = d / lam - float(exact_t)
        violation = slack < -LAMBDA_EPS
    return BoundReport(
        d=d,
        lam=lam,
        alon=alon_bound(d, lam),
        brouwer=brouwer_bound(d, lam),
        gu=gu_bound(d, lam),
        theorem=theorem,
        exact_t=exact_t,
        slack=slack,
        tight_gap=tight_gap,
        violation=violation,
    )
