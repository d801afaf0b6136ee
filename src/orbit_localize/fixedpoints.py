"""Fixed points of regular vector fields on the flag variety.

For a regular semisimple element the zeros of the induced vector field on
the flag variety correspond to the Borel subalgebras containing its Cartan,
i.e. to Weyl chambers: for su(n) and sl(n,R), the permutations in S_n.
The evaluator's term sum reads the Cartan's permutation table and one
multiplicity array, and the closed form of the automatic modes reads
neither; ``FixedPoint`` objects are built only when read.  A fixed point
stores its Weyl element, the transported orbit parameter (the Weyl image
of the defining covector) and an integer multiplicity; the roots
spanning its Borel's nilradical are read off the permutation.  One rule
decides whether an orbit parameter is regular (``_check_regular``), for
``make_orbit`` and ``enumerate_fixed_points`` alike.

Multiplicity modes:

* ``compact``      -- every fixed point carries +1.
* ``maximally_split`` -- det(w) times a global calibration sign on the
  closed-orbit support, which is every fixed point.  The global sign is
  pinned against the numeric oracle (see the oracle module); for sl(2,R)
  the calibrated value is -1.
* ``user_supplied`` -- explicit integer map keyed by Weyl label, 0 for
  unlisted labels; each value must fit in int64.

For higher-rank split forms the full closed-orbit support (every Borel over
the split Cartan is defined over R) is an extrapolation from the rank-one
case; see README.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import AlgebraError, CartanDatum, WeylElement

__all__ = [
    "FixedPoint",
    "MultiplicityAssignment",
    "enumerate_fixed_points",
    "closed_orbit_support",
    "assign_multiplicities",
]

MODES = ("compact", "maximally_split", "user_supplied")


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """One zero of the vector field, indexed by a Weyl element.

    Every fixed point lies over the closed orbit (``closed_orbit_support``).
    """

    weyl: WeylElement
    weight: np.ndarray             # transported covector on the Cartan basis
    multiplicity: int
    in_closed_orbit = True         # a class constant, not a field

    @property
    def borel_roots(self) -> tuple[int, ...]:
        """Indices of the w-images e_w(j) - e_w(i), i < j, of the negative roots.

        Root e_a - e_b has index a(n-1) + b - [b > a] in root order.
        """
        p = self.weyl.perm
        n = len(p)
        return tuple(sorted(a * (n - 1) + b - (b > a)
                            for i, b in enumerate(p) for a in p[i + 1:]))


@dataclass(frozen=True, eq=False)
class MultiplicityAssignment:
    mode: str
    values: Mapping[str, int]      # Weyl label -> integer
    sign: int                      # global calibration sign (split mode)


def _check_regular(zeta: Sequence[complex]) -> None:
    """Refuse a parameter whose diagonal zeta has two entries too close.

    The coroot of e_i - e_j pairs with the parameter to a multiple of
    zeta_i - zeta_j, so it is regular when the entries of zeta are
    distinct: the smallest gap above 1e-8 times the largest.  A NaN gap
    is refused.
    """
    gaps = [abs(a - b) for a, b in combinations(zeta, 2)]
    floor = 1e-8 * max(gaps)
    if not all(gap > floor for gap in gaps):
        raise AlgebraError("orbit parameter is singular (vanishing coroot pairing)")


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
    # Its values on h_k are differences of adjacent diagonal entries, so
    # the partial sums are the diagonal up to a shift and a scale.
    _check_regular(np.cumsum(np.append(0.0, covector)).tolist())
    return tuple(FixedPoint(w, w.apply(covector), 0) for w in cartan.weyl)


def closed_orbit_support(cartan: CartanDatum,
                         fixed_points: Sequence[FixedPoint],
                         real_form: str) -> tuple[FixedPoint, ...]:
    """The fixed points lying over the closed real-group orbit: all of them.

    Compact form: the whole flag variety is one orbit.  Split form: a
    fixed point is in the support iff its Borel is defined over R.  Over
    the split (diagonal) Cartan every Borel is: the Cartan and each root
    vector E_ij are real matrices.  So the support is every point, with no
    numerical test, and the points are returned as given.
    """
    if real_form not in ("su", "sl_real"):
        raise AlgebraError(f"unsupported real form {real_form!r}")
    return tuple(fixed_points)


def _check_mode(mode: str, sign: int,
                user_values: Optional[Mapping[str, int]]) -> None:
    """Refuse what the mode rules refuse before any label is read."""
    if mode not in MODES:
        raise AlgebraError(f"unknown multiplicity mode {mode!r}")
    if sign not in (1, -1):
        raise AlgebraError("calibration sign must be +1 or -1")
    if mode == "user_supplied" and user_values is None:
        raise AlgebraError("user_supplied mode requires a multiplicity map")


def _multiplicities(labels: Optional[Sequence[str]], signs: np.ndarray, mode: str,
                    sign: int, user_values: Optional[Mapping[str, int]],
                    ) -> np.ndarray:
    """int64 multiplicities by the mode rules above, ``signs`` holding det(w).

    ``labels`` is read in user_supplied mode only.
    """
    _check_mode(mode, sign, user_values)
    if mode == "compact":
        return np.ones(len(signs), dtype=np.int64)
    if mode == "maximally_split":
        return int(sign) * np.asarray(signs).astype(np.int64)
    known = set(labels)
    for key, val in user_values.items():
        if key not in known:
            raise AlgebraError(f"unknown Weyl label {key!r} in multiplicity map")
        if not (isinstance(val, int) or float(val).is_integer()):
            raise AlgebraError(f"multiplicity for {key!r} is not an integer")
        if not -2**63 <= int(val) < 2**63:
            raise AlgebraError(f"multiplicity for {key!r} does not fit in int64")
    return np.array([int(user_values.get(label, 0)) for label in labels],
                    dtype=np.int64)


def assign_multiplicities(fixed_points: Sequence[FixedPoint],
                          mode: str,
                          sign: int = 1,
                          user_values: Optional[Mapping[str, int]] = None,
                          ) -> tuple[MultiplicityAssignment, tuple[FixedPoint, ...]]:
    """Attach integer multiplicities according to the mode."""
    labels = [fp.weyl.label for fp in fixed_points]
    mults = _multiplicities(labels, [fp.weyl.determinant for fp in fixed_points],
                            mode, sign, user_values).tolist()
    updated = tuple(FixedPoint(fp.weyl, fp.weight, m)
                    for fp, m in zip(fixed_points, mults))
    assignment = MultiplicityAssignment(mode=mode, values=dict(zip(labels, mults)),
                                        sign=sign)
    return assignment, updated
