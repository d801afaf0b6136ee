"""Fixed points of regular vector fields on the flag variety.

For a regular semisimple element the zeros of the induced vector field on
the flag variety correspond to the Borel subalgebras containing its Cartan,
i.e. to Weyl chambers.  Each fixed point carries the transported orbit
parameter (the Weyl image of the defining covector), the list of roots
spanning its Borel's nilradical, a closed-orbit membership flag, and an
integer multiplicity.

Multiplicity modes:

* ``compact``      -- every fixed point carries +1.
* ``maximally_split`` -- det(w) times a global calibration sign on the
  closed-orbit support, 0 elsewhere.  The global sign is pinned against the
  numeric oracle (see the oracle module); for sl(2,R) the calibrated value
  is -1.
* ``user_supplied`` -- explicit integer map keyed by Weyl label.

For higher-rank split forms the full closed-orbit support (every Borel over
the split Cartan is defined over R) is an extrapolation from the rank-one
case; see README.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraError,
    CartanDatum,
    WeylElement,
    coroot,
)

__all__ = [
    "FixedPoint",
    "MultiplicityAssignment",
    "is_regular_covector",
    "enumerate_fixed_points",
    "split_positive_system",
    "closed_orbit_support",
    "assign_multiplicities",
]

MODES = ("compact", "maximally_split", "user_supplied")


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """One zero of the vector field, indexed by a Weyl element."""

    weyl: WeylElement
    borel_roots: tuple[int, ...]   # indices of the roots spanning the Borel
    weight: np.ndarray             # transported covector on the Cartan basis
    in_closed_orbit: bool
    multiplicity: int


@dataclass(frozen=True, eq=False)
class MultiplicityAssignment:
    mode: str
    values: Mapping[str, int]      # Weyl label -> integer
    sign: int                      # global calibration sign (split mode)


def is_regular_covector(cartan: CartanDatum, covector: np.ndarray,
                        tol: float = 1e-8) -> bool:
    """No vanishing coroot pairing, relative to the largest pairing."""
    covector = np.asarray(covector)
    pairings = np.array(
        [abs(np.dot(covector, coroot(cartan, r))) for r in cartan.positive]
    )
    if pairings.size == 0:
        return True
    scale = max(float(pairings.max()), 1e-300)
    return bool(float(pairings.min()) > tol * scale)


def enumerate_fixed_points(cartan: CartanDatum,
                           covector: np.ndarray) -> tuple[FixedPoint, ...]:
    """One fixed point per Weyl element, in canonical label order.

    The base point (identity) is the Borel spanned by the Cartan together
    with all negative root spaces; the point labelled by w carries the
    w-image of the negative system and the w-image of the covector.
    """
    covector = np.asarray(covector, dtype=complex)
    if covector.shape != (cartan.rank,):
        raise AlgebraError(
            f"covector must have {cartan.rank} coordinates, got {covector.shape}"
        )
    if not is_regular_covector(cartan, covector):
        raise AlgebraError("orbit covector is singular (vanishing coroot pairing)")

    pairs = cartan.root_pairs
    index = {pair: r for r, pair in enumerate(pairs)}
    negative = [(j, i) for i, j in (pairs[r] for r in cartan.positive)]
    out = []
    for w in cartan.weyl:
        p = w.perm
        borel = tuple(sorted(index[p[i], p[j]] for i, j in negative))
        out.append(
            FixedPoint(
                weyl=w,
                borel_roots=borel,
                weight=w.apply(covector),
                in_closed_orbit=True,
                multiplicity=0,
            )
        )
    return tuple(out)


def split_positive_system(cartan: CartanDatum, x_coords: np.ndarray,
                          positive: Optional[Sequence[int]] = None,
                          tol: float = 1e-12,
                          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a positive system by the sign of Re(alpha(x)).

    Returns (negative-real-part subset, positive-real-part subset); roots
    whose value on x is purely imaginary fall in neither.  Both returned
    subsets are closed under root addition inside the positive system.
    """
    if positive is None:
        positive = cartan.positive
    x_coords = np.asarray(x_coords, dtype=complex)
    lower, upper = [], []
    scale = max(
        (abs(np.dot(cartan.roots[r], x_coords)) for r in positive), default=1.0
    )
    for r in positive:
        v = complex(np.dot(cartan.roots[r], x_coords))
        if v.real < -tol * scale:
            lower.append(r)
        elif v.real > tol * scale:
            upper.append(r)
    return tuple(lower), tuple(upper)


def closed_orbit_support(cartan: CartanDatum,
                         fixed_points: Sequence[FixedPoint],
                         real_form: str) -> tuple[FixedPoint, ...]:
    """Flag the fixed points lying over the closed real-group orbit.

    Compact form: the whole flag variety is one orbit, so every point is
    flagged.  Split form: a fixed point is in the support iff its Borel is
    defined over R.  Over the split (diagonal) Cartan every Borel is: the
    Cartan and each root vector E_ij are real matrices.  So every point is
    flagged here too, with no numerical test.
    """
    if real_form not in ("su", "sl_real"):
        raise AlgebraError(f"unsupported real form {real_form!r}")
    return tuple(replace(fp, in_closed_orbit=True) for fp in fixed_points)


def assign_multiplicities(fixed_points: Sequence[FixedPoint],
                          mode: str,
                          sign: int = 1,
                          user_values: Optional[Mapping[str, int]] = None,
                          ) -> tuple[MultiplicityAssignment, tuple[FixedPoint, ...]]:
    """Attach integer multiplicities according to the mode.

    compact: all +1.  maximally_split: sign * det(w) on the closed-orbit
    support, 0 off it.  user_supplied: validated passthrough.
    """
    if mode not in MODES:
        raise AlgebraError(f"unknown multiplicity mode {mode!r}")
    if sign not in (1, -1):
        raise AlgebraError("calibration sign must be +1 or -1")

    values: dict[str, int] = {}
    if mode == "compact":
        for fp in fixed_points:
            values[fp.weyl.label] = 1
    elif mode == "maximally_split":
        for fp in fixed_points:
            if fp.in_closed_orbit:
                values[fp.weyl.label] = sign * int(round(fp.weyl.determinant))
            else:
                values[fp.weyl.label] = 0
    else:
        if user_values is None:
            raise AlgebraError("user_supplied mode requires a multiplicity map")
        labels = {fp.weyl.label for fp in fixed_points}
        for key, val in user_values.items():
            if key not in labels:
                raise AlgebraError(f"unknown Weyl label {key!r} in multiplicity map")
            if not float(val).is_integer():
                raise AlgebraError(f"multiplicity for {key!r} is not an integer")
        for fp in fixed_points:
            raw = user_values.get(fp.weyl.label, 0)
            values[fp.weyl.label] = int(raw) if fp.in_closed_orbit else 0

    updated = tuple(
        replace(fp, multiplicity=values[fp.weyl.label]) for fp in fixed_points
    )
    assignment = MultiplicityAssignment(mode=mode, values=values, sign=sign)
    return assignment, updated
