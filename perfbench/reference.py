"""Independent high-precision reference for the fixed-point formula.

Evaluates

    F(X) = sum over permutations s of  m_s exp(<X, s.weight>) / prod(alpha(X))

directly from the spectrum of X, in mpmath, over the permutation table of
S_n.  It shares no code with the package: the coordinate basis is rebuilt
here from the convention documented in ``orbit_localize.algebra`` and the
spectrum comes from mpmath's own eigensolver.

With x_1 > ... > x_n the canonically ordered eigenvalues of X (descending
real part, then descending imaginary part), z = diag(zeta) the dominant
dual Cartan element of the weight and y = x o s,

    <X, s.weight> = i 2n sum_k zeta_k y_k,
    prod(alpha(X)) = prod over k > l of (y_k - y_l),

with m_s = +1 for su(n) (so each root factor is i (mu_k - mu_l) for
x = i mu) and m_s = s0 det(s) = s0 sign(s) for sl(n,R).  A split point whose
spectrum is not real is not conjugate into the split Cartan; the package
defines the transform to vanish there, and so does this reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

DPS = 30

# Relative imaginary part above which a split spectrum counts as non-real.
# The package uses 1e-9; points in between are not checked.
_REAL_TOL = 1e-9
_REAL_MARGIN = 1e3


def basis_matrices(family: str, n: int) -> list[np.ndarray]:
    """The documented coordinate basis of su(n) or sl(n,R), in order."""
    def e(j, k):
        m = np.zeros((n, n), dtype=complex)
        m[j, k] = 1.0
        return m

    mats = []
    if family == "sl_real":
        mats += [e(k, k) - e(k + 1, k + 1) for k in range(n - 1)]
        mats += [e(j, k) for j in range(n) for k in range(n) if j != k]
    elif family == "su":
        mats += [1j * (e(k, k) - e(k + 1, k + 1)) for k in range(n - 1)]
        for j in range(n):
            for k in range(j + 1, n):
                mats += [e(j, k) - e(k, j), 1j * (e(j, k) + e(k, j))]
    else:
        raise ValueError(f"unsupported family {family!r}")
    return mats


def coords_to_matrix(family: str, n: int, coords: Sequence[float]) -> np.ndarray:
    mats = basis_matrices(family, n)
    if len(coords) != len(mats):
        raise ValueError(f"expected {len(mats)} coordinates, got {len(coords)}")
    return sum(float(c) * m for c, m in zip(coords, mats))


def dominant_zeta(family: str, n: int, weight: Sequence[float]) -> list:
    """Diagonal of the dominant dual Cartan element of the weight."""
    delta = [0.0] * n
    for k, c in enumerate(weight):
        delta[k] += float(c)
        delta[k + 1] -= float(c)
    delta = sorted(delta, reverse=True)
    unit = mp.mpc(0, 1) if family == "su" else mp.mpf(1)
    return [unit * mp.mpf(d) for d in delta]


def spectrum(family: str, matrix: np.ndarray) -> tuple[Optional[list], bool]:
    """Canonically ordered eigenvalues and whether the point is checkable.

    Returns None in place of the eigenvalues for a non-real split spectrum.
    A split spectrum whose imaginary parts lie within a factor of 1e3 of
    the real/non-real threshold is reported as not checkable: the package
    classifies it from a double-precision eigensolve.
    """
    m = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in matrix])
    ev = mp.eig(m, left=False, right=False)
    if family == "su":
        return sorted((mp.mpc(0, v.imag) for v in ev), key=lambda v: -v.imag), True
    scale = max(mp.mpf(1), max(abs(v) for v in ev))
    worst = max(abs(v.imag) for v in ev) / scale
    checkable = not (_REAL_TOL / _REAL_MARGIN < worst < _REAL_TOL * _REAL_MARGIN)
    if worst > _REAL_TOL:
        return None, checkable
    return sorted((mp.mpf(v.real) for v in ev), key=lambda v: -v), checkable


@dataclass(frozen=True)
class Reference:
    value: complex         # 0 at a split point with non-real spectrum
    term_abs_sum: float    # sum of |term|: the conditioning scale of the sum
    gap_ratio: float       # max |x_k| / min |x_k - x_l|
    outside: bool          # split point with non-real spectrum
    checkable: bool        # False near the real/non-real split boundary


def _permutations(n: int) -> list[tuple[tuple[int, ...], int]]:
    table = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        table.append((perm, -1 if inversions % 2 else 1))
    return table


_PERMS: dict[int, list] = {}


def fourier(family: str, n: int, weight: Sequence[float], s0: int,
            coords: Sequence[float]) -> Reference:
    """Reference transform at the point with the given basis coordinates."""
    matrix = coords_to_matrix(family, n, coords)
    with mp.workdps(DPS):
        x, checkable = spectrum(family, matrix)
        if x is None:
            return Reference(0j, 0.0, float("inf"), True, checkable)
        zeta = dominant_zeta(family, n, weight)
        gap = min(abs(x[k] - x[l]) for k in range(n) for l in range(k))
        top = max(abs(v) for v in x)
        gap_ratio = float(top / gap) if gap else float("inf")
        if n not in _PERMS:
            _PERMS[n] = _permutations(n)
        factor = mp.mpc(0, 2 * n)
        total = mp.mpc(0)
        abs_sum = mp.mpf(0)
        # prod over k > l of (y_k - y_l) is sign(s) times the same product
        # over x, so it is formed once.
        vandermonde = mp.fprod(x[k] - x[l] for k in range(n) for l in range(k))
        for perm, sign in _PERMS[n]:
            y = [x[p] for p in perm]
            mult = 1 if family == "su" else s0 * sign
            term = mult * mp.exp(factor * mp.fdot(zeta, y)) / (sign * vandermonde)
            total += term
            abs_sum += abs(term)
        return Reference(complex(total), float(abs_sum), gap_ratio, False, checkable)
