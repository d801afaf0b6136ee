"""Concrete semisimple real Lie algebras: su(n) and sl(n,R).

Matrix realizations, fixed once and for all:

* ``sl_real``: traceless real n x n matrices.  Basis: the diagonal
  differences ``h_k = E_kk - E_(k+1)(k+1)`` (k = 1..n-1) followed by the
  elementary off-diagonal matrices ``E_jk`` (j != k), pairs ordered
  lexicographically with the upper entry first.
* ``su``: traceless anti-Hermitian n x n matrices.  Basis: the imaginary
  diagonal differences ``i (E_kk - E_(k+1)(k+1))`` followed, for each pair
  j < k, by the real rotation ``E_jk - E_kj`` and the imaginary symmetric
  ``i (E_jk + E_kj)``.

No structure constants are stored: brackets are matrix commutators
read back by index, and the Killing form is the trace form
B(X, Y) = 2n tr(XY), whose matrix over the basis is an exact integer
matrix.  Everything downstream -- brackets, ad matrices, Cartan data,
Weyl groups, conjugation into a Cartan -- is expressed against this
fixed basis, so all coordinates are reproducible.

The only Cartan is the standard diagonal one, and its data is index data:
roots are index pairs (i, j), root vectors the elementary matrices E_ij,
and the Weyl group the permutations of range(n).  Its real basis is the
first rank coordinate rows (h_k for sl(n,R), i h_k for su(n)), so laying
it out takes no linear algebra.  Points are brought to it by their
spectrum (``standard_spectrum``) or, with a group element, by
``reduce_to_cartan``.

All public values are immutable after construction (arrays are marked
read-only) and every operation is a pure function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "AlgebraError",
    "IndeterminateRegularityError",
    "AlgebraSpec",
    "AlgebraElement",
    "CartanDatum",
    "WeylElement",
    "CartanReduction",
    "build_algebra",
    "element",
    "element_from_matrix",
    "bracket",
    "killing_form",
    "adjoint_matrix",
    "is_regular_semisimple",
    "reduce_to_cartan",
    "standard_spectrum",
]

# Relative eigenvalue-separation tolerance used to decide regularity.
# Spectra separated by less than REGULAR_TOL are rejected; the band
# [REGULAR_TOL, 10*REGULAR_TOL) is refused as indeterminate instead of
# being silently classified.
REGULAR_TOL = 1e-8

# The largest n whose S_n table is built.  At n = 10 the table has
# 3,628,800 rows, and an orbit's exponent table alone (|W| x n complex)
# would take 581 MB.
MAX_TABLE_N = 9


class AlgebraError(ValueError):
    """Invalid construction or operation on algebra data."""


class IndeterminateRegularityError(AlgebraError):
    """Spectrum too close to degenerate to classify reliably."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Algebra specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """A fixed basis realization of su(n) or sl(n,R)."""

    family: str
    n: int
    dim: int
    rank: int
    basis: np.ndarray       # (dim, n, n) complex defining matrices e_i

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """The basis labels in basis order, formed on first read."""
        n = self.n
        if self.family == "sl_real":
            return (*(f"h{c}" for c in range(1, n)),
                    *(f"e{a}{b}" for a in range(1, n + 1)
                      for b in range(1, n + 1) if a != b))
        return (*(f"d{c}" for c in range(1, n)),
                *(f"{kind}{a}{b}" for a in range(1, n + 1)
                  for b in range(a + 1, n + 1) for kind in "sa"))

    @functools.cached_property
    def killing(self) -> np.ndarray:
        """(dim, dim) integer-valued: 2n Re tr(e_i e_j), formed on first read."""
        # Basis entries are 0, +-1, +-i, so the trace form is exact.
        basis = self.basis
        return _readonly(2 * self.n * np.einsum("iab,jba->ij", basis, basis).real)

    def __repr__(self) -> str:
        return f"AlgebraSpec({self.family}({self.n}), dim={self.dim})"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of the algebra (or its complexification) in coordinates."""

    algebra: AlgebraSpec
    coords: np.ndarray  # (dim,), float64 for g_R, complex128 for g

    @property
    def matrix(self) -> np.ndarray:
        return np.tensordot(self.coords, self.algebra.basis, axes=(0, 0))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return AlgebraElement(self.algebra, _readonly(self.coords + other.coords))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return AlgebraElement(self.algebra, _readonly(self.coords - other.coords))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, _readonly(scalar * self.coords))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, _readonly(-self.coords))


def _check_same(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.algebra is not y.algebra:
        if (x.algebra.family, x.algebra.n) != (y.algebra.family, y.algebra.n):
            raise AlgebraError("elements belong to different algebras")
    if x.coords.shape != y.coords.shape:
        raise AlgebraError("coordinate dimension mismatch")


def _unit(n: int, j: int, k: int) -> np.ndarray:
    """The elementary matrix E_jk."""
    m = np.zeros((n, n), dtype=complex)
    m[j, k] = 1.0
    return m


def _basis_matrices(family: str, n: int) -> np.ndarray:
    """The (dim, n, n) basis stack, laid out by index assignment."""
    k = np.arange(n - 1)
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    if family == "sl_real":
        basis[k, k, k], basis[k, k + 1, k + 1] = 1.0, -1.0
        j, m = np.nonzero(~np.eye(n, dtype=bool))   # j != m, row-major
        basis[n - 1 + np.arange(len(j)), j, m] = 1.0
        return basis
    # i*(E_kk - E_(k+1)(k+1)) as the complex product forms it: -i has real
    # part -0.0.
    basis[k, k, k], basis[k, k + 1, k + 1] = 1j, complex(-0.0, -1.0)
    j, m = _upper_pairs(n)
    s = n - 1 + 2 * np.arange(len(j))   # E_jm - E_mj, then i(E_jm + E_mj)
    basis[s, j, m], basis[s, m, j] = 1.0, -1.0
    basis[s + 1, j, m] = basis[s + 1, m, j] = 1j
    return basis


def _coords(spec: AlgebraSpec, m: np.ndarray) -> np.ndarray:
    """Coordinates of matrices stacked along the last two axes, read by index.

    The least-squares projection onto the basis, complex-linear; its real
    part is the projection of a complex matrix onto the real form.
    Diagonal coordinate k is ((n - k) P_k - k Q_k) / n, with P_k the sum of
    the first k diagonal entries and Q_k the sum of the other n - k (times
    -i for su(n)).  An sl(n,R) pair (j, l) is the entry m_jl; an su(n) pair
    j < l is (m_jl - m_lj)/2, then (m_jl + m_lj)/2i.  The weights are
    integers, so integer matrices have exact coordinates.
    """
    n = spec.n
    m = np.asarray(m, dtype=complex)
    d = np.diagonal(m, axis1=-2, axis2=-1)
    if spec.family == "su":
        d = -1j * d
    k = np.arange(1, n)
    head = np.cumsum(d, axis=-1)[..., :-1]
    tail = np.cumsum(d[..., ::-1], axis=-1)[..., -2::-1]
    if spec.family == "sl_real":
        j, l = np.nonzero(~np.eye(n, dtype=bool))   # j != l, row-major
        pairs = m[..., j, l]
    else:
        j, l = _upper_pairs(n)
        upper, lower = m[..., j, l], m[..., l, j]
        pairs = np.stack([(upper - lower) / 2, (upper + lower) / 2j], axis=-1)
    diag = ((n - k) * head - k * tail) / n
    return np.concatenate([diag, pairs.reshape(m.shape[:-2] + (-1,))], axis=-1)


def _in_span(spec: AlgebraSpec, m: np.ndarray) -> np.ndarray:
    """(N, dim) coordinates of (N, n, n) matrices in the complexified span:
    a row's imaginary part is dropped where all of it is below 1e-12, and a
    row its coordinates rebuild no closer than 1e-9 max(1, max|m|) refused."""
    m = np.asarray(m, dtype=complex)
    if m.shape[1:] != (spec.n, spec.n):
        raise AlgebraError(f"expected {spec.n} x {spec.n} matrices, "
                           f"got shape {m.shape[1:]}")
    coords = _coords(spec, m)
    coords.imag[np.max(np.abs(coords.imag), axis=1) < 1e-12] = 0.0
    flat = m.reshape(len(m), -1)
    err = np.max(np.abs(coords @ spec.basis.reshape(spec.dim, -1) - flat), axis=1)
    if np.any(err > 1e-9 * np.fmax(1.0, np.max(np.abs(flat), axis=1))):
        raise AlgebraError("matrix does not lie in the algebra span")
    return coords


def build_algebra(family: str, n: int) -> AlgebraSpec:
    """Construct a realization of su(n) or sl(n,R)."""
    if family not in ("su", "sl_real"):
        raise AlgebraError(f"unsupported family: {family!r}")
    if n < 2:
        raise AlgebraError(f"rank parameter must satisfy n >= 2, got {n}")

    basis = _basis_matrices(family, n)
    return AlgebraSpec(
        family=family,
        n=n,
        dim=len(basis),
        rank=n - 1,
        basis=_readonly(basis),
    )


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def element(spec: AlgebraSpec, coords: Sequence) -> AlgebraElement:
    arr = np.asarray(coords)
    if arr.shape != (spec.dim,):
        raise AlgebraError(f"expected {spec.dim} coordinates, got shape {arr.shape}")
    if not np.iscomplexobj(arr):
        arr = arr.astype(float)
    return AlgebraElement(spec, _readonly(arr))


def _row_element(spec: AlgebraSpec, coords: np.ndarray) -> AlgebraElement:
    """One ``_in_span`` row as an element, real where its imaginary part was dropped."""
    return AlgebraElement(spec, _readonly(coords if coords.imag.any() else coords.real))


def element_from_matrix(spec: AlgebraSpec, m: np.ndarray) -> AlgebraElement:
    """Coordinates of a matrix lying in the algebra or its complexification."""
    return _row_element(spec, _in_span(spec, np.asarray(m)[None])[0])


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[x, y] as the matrix commutator read back; complex if either input is."""
    _check_same(x, y)
    mx, my = x.matrix, y.matrix
    out = _coords(x.algebra, mx @ my - my @ mx)
    if not (np.iscomplexobj(x.coords) or np.iscomplexobj(y.coords)):
        out = out.real
    return AlgebraElement(x.algebra, _readonly(out))


def killing_form(x: AlgebraElement, y: AlgebraElement):
    _check_same(x, y)
    val = x.coords @ x.algebra.killing @ y.coords
    return complex(val) if np.iscomplexobj(val) else float(val)


def adjoint_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of ad(x) on the algebra basis: column j holds [x, e_j]."""
    basis, m = x.algebra.basis, x.matrix
    ad = _coords(x.algebra, m @ basis - basis @ m)
    return (ad if np.iscomplexobj(x.coords) else ad.real).T


# Outcomes of ``_spectra``, one per row.
_REGULAR, _NONREAL, _SINGULAR, _INDETERMINATE, _NONFINITE = range(5)

# LAPACK's eigensolvers rescale a matrix whose largest entry lies outside
# [2^-459, 2^459] (zgeev; zheevd's range is wider), which rounds the
# eigenvalues of a diagonal matrix; diagonal rows beyond this range keep
# the matrix path.
_UNSCALED = (2.0 ** -450, 2.0 ** 450)


def _spectra(spec: AlgebraSpec, coords: np.ndarray, real: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonically ordered spectra of many elements, classified row by row.

    ``coords`` holds one element per row over the basis; ``real`` marks
    the rows that lie in the real form, whose imaginary parts are 0 (for
    su(n) those matrices are anti-Hermitian, and take the Hermitian
    eigensolver).  Returns, per row, an outcome, the defining-matrix
    eigenvalues and their relative separation (smallest gap over the
    Frobenius norm):

    * ``_NONFINITE``: a matrix entry is inf or NaN; nothing is solved.
    * ``_SINGULAR``: zero or non-finite norm, or separation < REGULAR_TOL.
    * ``_INDETERMINATE``: separation in [REGULAR_TOL, 10*REGULAR_TOL).
    * ``_NONREAL``: sl(n,R) only, a regular spectrum that is not real, so
      no real conjugation into the split Cartan exists.
    * ``_REGULAR``: everything else.

    Spectra are (N, n) complex, ordered by descending real part with ties
    broken by descending imaginary part; for regular elements the order
    identifies the dominant chamber.  sl(n,R) spectra are returned real.

    A real-form row whose coordinates off the Cartan are all 0.0 is
    diagonal, and its spectrum is read off the diagonal by index, with the
    bits the matrix path gives.  Every other row takes the basis product
    and one LAPACK call per matrix (``_matrix_spectra``).  Each row is
    routed by its own coordinates and every step is elementwise or along
    a row's own axis, so a row's results do not depend on the rows beside
    it.
    """
    rows, n, rank = len(coords), spec.n, spec.rank
    ev = np.zeros((rows, n), dtype=complex)
    scale = np.empty(rows)
    finite = np.ones(rows, dtype=bool)
    index = real & (coords[:, rank:] == 0).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if index.any():
            # Diagonal entry k is c_k - c_(k-1), with c_(-1) = c_(n-1) = 0:
            # the one rounding the basis product makes (for su(n), in the
            # imaginary part).  Zero and non-finite rows fail the range test.
            c = coords[index, :rank].real
            d = np.zeros((len(c), n))
            d[:, :-1] = c
            d[:, 1:] -= c
            peak = np.abs(d).max(axis=1)
            keep = (peak >= _UNSCALED[0]) & (peak <= _UNSCALED[1])
            index[index] = keep
            d = d[keep]
            # The squares accumulate in the matrix path's order (the zeros
            # between them add exactly).  LAPACK returns the diagonal, with
            # +0.0 for a zero eigenvalue where the sorted diagonal may hold
            # -0.0: for su(n) the ascending eigenvalues of i*m = diag(-d),
            # times -i as below; for sl(n,R) the descending diagonal.
            scale[index] = np.sqrt(np.add.accumulate(d * d, axis=1)[:, -1])
            ev[index] = (-1j * (np.sort(-d, axis=1) + 0.0) if spec.family == "su"
                         else np.sort(d, axis=1)[:, ::-1] + 0.0)
        if not index.all():
            rest = ~index
            ev[rest], scale[rest], finite[rest] = _matrix_spectra(
                spec, coords[rest], real[rest])
        i, j = _upper_pairs(n)
        sep = np.abs(ev[:, i] - ev[:, j]).min(axis=1) / scale
    status = np.where(sep < 10 * REGULAR_TOL, _INDETERMINATE, _REGULAR).astype(np.int8)
    status[sep < REGULAR_TOL] = _SINGULAR
    unsolved = ~((scale > 0.0) & (scale < np.inf))
    status[unsolved] = np.where(finite[unsolved], _SINGULAR, _NONFINITE)
    if spec.family == "sl_real":
        status[(status == _REGULAR) & _non_real(ev)] = _NONREAL
        ev = ev.real.astype(complex)
    return status, ev, sep


def _matrix_spectra(spec: AlgebraSpec, coords: np.ndarray, real: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectrum, Frobenius norm and finiteness of rows through their matrices."""
    rows, n = len(coords), spec.n
    # Basis entries are 0, +-1 and +-i, so each entry is the same sum of at
    # most two exact products in any summation order; adding 0.0 makes the
    # sign of zero entries the same too.
    m = coords @ spec.basis.reshape(spec.dim, n * n) + 0.0
    parts = m.view(np.float64)
    scale = np.sqrt(np.add.accumulate(parts * parts, axis=1)[:, -1])
    m = m.reshape(rows, n, n)
    ev = np.zeros((rows, n), dtype=complex)
    solve = (scale > 0.0) & (scale < np.inf)
    hermitian = solve & real if spec.family == "su" else np.zeros(rows, bool)
    general = solve & ~hermitian
    if hermitian.any():
        # Ascending eigenvalues of i*m: already the canonical order.
        ev[hermitian] = -1j * np.linalg.eigvalsh(1j * m[hermitian])
    if general.any():
        g = np.linalg.eigvals(m[general])
        order = np.lexsort((-g.imag, -g.real), axis=1)
        ev[general] = g[np.arange(len(g))[:, None], order]
    return ev, scale, np.isfinite(m).all(axis=(1, 2))


@functools.lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of range(n), row-major."""
    i = [a for a in range(n) for _ in range(a + 1, n)]
    j = [b for a in range(n) for b in range(a + 1, n)]
    return _readonly(np.array(i, np.intp)), _readonly(np.array(j, np.intp))


def _refuse(status: int, sep: float) -> None:
    """Raise for the outcomes that refuse a single element outright."""
    if status == _NONFINITE:
        raise AlgebraError("element has non-finite coordinates or matrix entries")
    if status == _INDETERMINATE:
        raise IndeterminateRegularityError(
            f"eigenvalue separation {sep:.3e} within the indeterminate band"
        )


def _spectrum(x: AlgebraElement) -> tuple[int, np.ndarray]:
    """Outcome and spectrum of one element: the one-row slice of _spectra."""
    status, ev, sep = _spectra(x.algebra, x.coords[None],
                               np.array([not np.iscomplexobj(x.coords)]))
    _refuse(int(status[0]), float(sep[0]))
    return int(status[0]), ev[0]


def is_regular_semisimple(x: AlgebraElement) -> bool:
    """Whether ad(x) is diagonalizable over C with kernel of dimension rank.

    For these matrix realizations the ad eigenvalues are the pairwise
    differences of defining-matrix eigenvalues, so the test reduces to
    eigenvalue distinctness.  Near-degenerate spectra (relative separation
    in [REGULAR_TOL, 10*REGULAR_TOL)) raise IndeterminateRegularityError,
    and elements with non-finite coordinates raise AlgebraError.
    """
    return _spectrum(x)[0] != _SINGULAR


# ---------------------------------------------------------------------------
# Cartan subalgebras, roots, Weyl group
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element acting on covector value-vectors."""

    label: str
    word: tuple[int, ...]     # indices of simple reflections, left to right
    matrix: np.ndarray        # (rank, rank): xi |-> matrix @ xi
    determinant: float
    perm: tuple[int, ...]     # w maps the root e_i - e_j to e_perm[i] - e_perm[j]

    def apply(self, covector: np.ndarray) -> np.ndarray:
        return self.matrix @ covector


@dataclass(frozen=True, eq=False)
class CartanDatum:
    """The standard (diagonal) Cartan with its roots and Weyl group.

    Everything is index data: root r is e_i - e_j for
    ``root_pairs[r] = (i, j)``, with root vector E_ij, and the Weyl group
    is S_n.  Roots are value-vectors on the complex Cartan basis
    h_k = E_kk - E_(k+1)(k+1) (``roots[r, k] = alpha_r(h_k)``), formed on
    first read; functionals on the Cartan use the same representation
    throughout.  The real basis is the first rank coordinate rows of the
    algebra: h_k for sl(n,R), i h_k for su(n).
    """

    algebra: AlgebraSpec

    @property
    def rank(self) -> int:
        return self.algebra.rank

    @functools.cached_property
    def roots(self) -> np.ndarray:
        """(n_roots, rank) real root values, formed on first read."""
        return _readonly(_root_values(self.algebra.n))

    @functools.cached_property
    def positive(self) -> tuple[int, ...]:
        """The indices of the positive roots e_i - e_j, i < j."""
        return tuple(r for r, (i, j) in enumerate(self.root_pairs) if i < j)

    @functools.cached_property
    def _table(self) -> _WeylTable:
        """The Weyl group as arrays in ``weyl`` order, built on first read."""
        return _weyl_table(self.algebra.n)

    @functools.cached_property
    def _labels(self) -> tuple[str, ...]:
        """The Weyl labels in table order: a row's letter, then its parent's label."""
        table = self._table
        labels = ["e"]
        for d, parent in zip(table.letters[1:].tolist(), table.parents[1:].tolist()):
            labels.append(f"s{d}" + labels[parent] if parent else f"s{d}")
        return tuple(labels)

    @functools.cached_property
    def weyl(self) -> tuple[WeylElement, ...]:
        """The Weyl group as objects, built from the table on first read.

        A label spells its word, s<d> for each letter d.  With pos the
        inverse permutation, w sends the value on h_k to the value on
        e_pos[k] - e_pos[k+1], so its matrix is
        M[k, m] = [pos[k] <= m] - [pos[k+1] <= m], the exact product of the
        simple reflections along the word.  The determinant is the sign.
        """
        pos = self._table.pos
        upto = np.arange(pos.shape[1] - 1)
        matrices = (pos[:, :-1, None] <= upto).astype(float) - (pos[:, 1:, None] <= upto)
        matrices.setflags(write=False)   # so is every row view below
        perms = map(tuple, np.argsort(pos, axis=1).tolist())
        words = (tuple(map(int, label.split("s")[1:])) for label in self._labels)
        return tuple(map(WeylElement, self._labels, words, matrices,
                         self._table.signs.tolist(), perms))

    @property
    def root_pairs(self) -> list[tuple[int, int]]:
        """(i, j) for each root e_i - e_j, in root order."""
        return _root_pairs(self.algebra.n)


def _root_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _root_values(n: int) -> np.ndarray:
    """Values of the roots e_i - e_j on h_k = E_kk - E_(k+1)(k+1), in root order."""
    eye = np.eye(n)
    diffs = np.array([eye[i] - eye[j] for i, j in _root_pairs(n)])
    return diffs @ (eye[:-1] - eye[1:]).T


class _WeylTable(NamedTuple):
    pos: np.ndarray        # (n!, n) intp: row w is w^-1
    signs: np.ndarray      # (n!,) det(w)
    letters: np.ndarray    # first letter of each word (0 for the identity)
    parents: np.ndarray    # row of the rest of the word (0 for the identity)


def _weyl_table(n: int) -> _WeylTable:
    """S_n as arrays, in (length, smallest reduced word) order.

    Row w holds pos = w^-1 (pos[v] is the place of the value v).  Letter d
    exchanges the values d-1 and d, i.e. columns d-1 and d of pos, and each
    element is labelled by its lexicographically smallest reduced word:
    its smallest left descent d (the smallest d with pos[d-1] > pos[d]),
    then the word of the element with those values exchanged.  Level L+1
    is made from level L: for each d, every row has columns d-1 and d
    swapped, and the result is kept when d is its smallest left descent
    (so the swap made it longer).  Each element of length L+1 so arises
    once, and d-major, parent-order generation is already the order of the
    words.  Returns pos, the signs det(w), and each row's first letter and
    the row of the rest of its word (0 for the identity).
    """
    d = np.arange(1, n)
    swaps = np.tile(np.arange(n), (n - 1, 1))    # row d-1 swaps d-1 and d
    swaps[d - 1, d - 1], swaps[d - 1, d] = d, d - 1
    level = np.arange(n, dtype=np.int8)[None]    # values < n <= MAX_TABLE_N
    pos, letters, parents = [level], [np.zeros(1, np.intp)], [np.zeros(1, np.intp)]
    start = 0
    while True:
        child = level[:, swaps].swapaxes(0, 1)   # (n-1, rows, n), d-major
        descents = child[..., :-1] > child[..., 1:]
        keep = descents[d - 1, :, d - 1] & (descents.argmax(axis=-1) == d[:, None] - 1)
        letter, parent = np.nonzero(keep)
        if not len(letter):
            break
        letters.append(letter + 1)
        parents.append(start + parent)
        start += len(level)
        level = child[letter, parent]
        pos.append(level)
    signs = np.concatenate([np.full(len(block), (-1.0) ** length)
                            for length, block in enumerate(pos)])
    return _WeylTable(_readonly(np.concatenate(pos).astype(np.intp)), _readonly(signs),
                      _readonly(np.concatenate(letters)),
                      _readonly(np.concatenate(parents)))


def _refuse_large_table(family: str, n: int) -> None:
    """Refuse an S_n table above MAX_TABLE_N, before anything is allocated."""
    if n > MAX_TABLE_N:
        raise AlgebraError(f"the S_n table of {family}({n}) would have {_rows(n)} "
                           f"rows; it is built for n <= {MAX_TABLE_N} only")


def _rows(n: int) -> str:
    """n! as text: exact up to n = 100, then its power of ten."""
    if n <= 100:
        return f"{math.factorial(n):,}"
    log_n = math.log10(n)   # also for ints beyond float range
    if log_n < 15:
        return f"about 10^{math.lgamma(n + 1) / math.log(10):.0f}"
    # n! ~ (n/e)^n has about n*log10(n/e) digits; give the power of ten of
    # that count, as lgamma overflows from n ~ 10^305.
    return f"about 10^(10^{log_n + math.log10(log_n - math.log10(math.e)):.1f})"


def _standard_cartan(spec: AlgebraSpec) -> CartanDatum:
    """The diagonal Cartan, laid out from index data alone.

    No matrix of the algebra is formed and no linear algebra is done.  The
    roots and the Weyl table are built on first read, and the table is
    refused above MAX_TABLE_N before anything is allocated.
    """
    _refuse_large_table(spec.family, spec.n)
    return CartanDatum(spec)


def cartan_coordinates(cartan: CartanDatum, x: AlgebraElement) -> np.ndarray:
    """Coordinates of an element of the Cartan over the complex basis h_k.

    They are its first rank coordinates, times i for su(n), whose real
    basis is i h_k.
    """
    rank = cartan.rank
    if np.max(np.abs(x.coords[rank:])) > 1e-8 * max(1.0, np.max(np.abs(x.coords))):
        raise AlgebraError("element does not lie in the Cartan subalgebra")
    t = x.coords[:rank].astype(complex)
    return 1j * t if cartan.algebra.family == "su" else t


# ---------------------------------------------------------------------------
# Conjugation into a Cartan subalgebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CartanReduction:
    """Ad(g) x = reduced, with reduced in the target Cartan.

    ``reduced`` is chamber-canonical: its defining-matrix eigenvalues are in
    the canonical descending order, so repeated reductions of conjugate
    inputs agree.
    """

    group_element: np.ndarray   # defining-representation matrix, det 1
    reduced: AlgebraElement


def _non_real(ev: np.ndarray) -> np.ndarray:
    """Spectra (along the last axis) with no real conjugation into the split Cartan."""
    scale = np.maximum(1.0, np.abs(ev).max(axis=-1))
    return np.abs(ev.imag).max(axis=-1) > 1e-9 * scale


def standard_spectrum(x: AlgebraElement) -> Optional[np.ndarray]:
    """Canonically ordered spectrum ev of a regular x, without eigenvectors.

    reduce_to_cartan conjugates x to diag(ev): over the standard Cartan
    basis its coordinates are cumsum(ev)[:-1], its root values ev_i - ev_j.
    Returns None where reduce_to_cartan does (sl(n,R): a non-real
    spectrum); raises AlgebraError when x is not regular semisimple.
    """
    status, ev = _spectrum(x)
    if status == _SINGULAR:
        raise AlgebraError("evaluation point must be regular semisimple")
    if status == _NONREAL:
        return None
    return ev if x.algebra.family == "su" else ev.real


def reduce_to_cartan(x: AlgebraElement,
                     target: CartanDatum) -> Optional[CartanReduction]:
    """Conjugate a regular element into the target (standard) Cartan.

    Returns None when no real conjugation exists (for sl(n,R) with the
    split Cartan: a non-real spectrum).  None is an ordinary outcome, not
    an error.
    """
    if not is_regular_semisimple(x):
        raise AlgebraError("reduce_to_cartan requires a regular semisimple element")
    spec = x.algebra
    n = spec.n
    m = x.matrix

    # Fast path: already diagonal in the canonical (dominant) order.
    diag = np.diagonal(m)
    if np.max(np.abs(m - np.diag(diag))) < 1e-14 * max(1.0, np.max(np.abs(m))):
        order = np.lexsort((-diag.imag, -diag.real))
        if np.array_equal(order, np.arange(n)):
            return CartanReduction(np.eye(n), x)

    if spec.family == "su":
        vals, vecs = np.linalg.eigh(1j * m)
        ev = -1j * vals
        order = np.lexsort((-ev.imag, -ev.real))
        ev, vecs = ev[order], vecs[:, order]
        det = np.linalg.det(vecs)
        vecs[:, 0] = vecs[:, 0] / det  # unit determinant, still unitary
        g = vecs.conj().T
        reduced = element_from_matrix(spec, np.diag(ev))
        return CartanReduction(_readonly(g), reduced)

    ev, vecs = np.linalg.eig(m)
    if _non_real(ev):
        return None
    order = np.argsort(-ev.real)
    ev, vecs = ev[order].real, vecs[:, order]
    # Real spectrum of a real matrix: eigenvectors are real up to phase.
    v = np.zeros((n, n))
    for k in range(n):
        col = vecs[:, k]
        i = int(np.argmax(np.abs(col)))
        col = col / (col[i] / abs(col[i]))
        if np.max(np.abs(col.imag)) > 1e-8:
            return None
        v[:, k] = col.real / np.linalg.norm(col.real)
    det = np.linalg.det(v)
    if det < 0:
        v[:, 0] = -v[:, 0]
        det = -det
    v = v / det ** (1.0 / n)
    g = np.linalg.inv(v)
    reduced = element_from_matrix(spec, np.diag(ev))
    return CartanReduction(_readonly(g), reduced)
