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
projected back onto the basis, and the Killing form is the trace form
B(X, Y) = 2n tr(XY), whose matrix over the basis is an exact integer
matrix.  Everything downstream -- brackets, ad matrices, Cartan data,
Weyl groups, Iwasawa decompositions, conjugation into a Cartan -- is
expressed against this fixed basis, so all coordinates are reproducible.

The only Cartan is the standard diagonal one, and its data is index data:
roots are index pairs (i, j), root vectors the elementary matrices E_ij,
and the Weyl group the permutations of range(n).  Points are brought to
it by their spectrum (``standard_spectrum``) or, with a group element,
by ``reduce_to_cartan``.

All public values are immutable after construction (arrays are marked
read-only) and every operation is a pure function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "AlgebraError",
    "IndeterminateRegularityError",
    "AlgebraSpec",
    "AlgebraElement",
    "CartanDatum",
    "WeylElement",
    "IwasawaDatum",
    "CartanReduction",
    "build_algebra",
    "element",
    "element_from_matrix",
    "bracket",
    "killing_form",
    "adjoint_matrix",
    "is_regular_semisimple",
    "coroot",
    "iwasawa_decomposition",
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
    labels: tuple[str, ...]
    basis: np.ndarray       # (dim, n, n) complex defining matrices e_i
    killing: np.ndarray     # (dim, dim) integer-valued: 2n Re tr(e_i e_j)
    _proj: np.ndarray = field(repr=False, default=None)  # matrix -> coords

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


def _basis_matrices(family: str, n: int) -> tuple[list[np.ndarray], list[str]]:
    mats: list[np.ndarray] = []
    labels: list[str] = []

    if family == "sl_real":
        for k in range(n - 1):
            mats.append(_unit(n, k, k) - _unit(n, k + 1, k + 1))
            labels.append(f"h{k + 1}")
        for j in range(n):
            for k in range(n):
                if j != k:
                    mats.append(_unit(n, j, k))
                    labels.append(f"e{j + 1}{k + 1}")
    elif family == "su":
        for k in range(n - 1):
            mats.append(1j * (_unit(n, k, k) - _unit(n, k + 1, k + 1)))
            labels.append(f"d{k + 1}")
        for j in range(n):
            for k in range(j + 1, n):
                mats.append(_unit(n, j, k) - _unit(n, k, j))
                labels.append(f"s{j + 1}{k + 1}")
                mats.append(1j * (_unit(n, j, k) + _unit(n, k, j)))
                labels.append(f"a{j + 1}{k + 1}")
    else:
        raise AlgebraError(f"unsupported family: {family!r}")
    return mats, labels


def _matrix_to_coords(proj: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Real-linear coordinates of matrices stacked along the last two axes."""
    flat = np.concatenate([m.real, m.imag], axis=-2)
    return flat.reshape(flat.shape[:-2] + (-1,)) @ proj.T


def _project(spec: AlgebraSpec, m: np.ndarray, complex_out: bool) -> np.ndarray:
    """Coordinates of matrices in the span; complex-linear when complex_out."""
    coords = _matrix_to_coords(spec._proj, m)
    if complex_out:
        coords = coords + 1j * _matrix_to_coords(spec._proj, -1j * m)
    return coords


def build_algebra(family: str, n: int) -> AlgebraSpec:
    """Construct a realization of su(n) or sl(n,R)."""
    if family not in ("su", "sl_real"):
        raise AlgebraError(f"unsupported family: {family!r}")
    if n < 2:
        raise AlgebraError(f"rank parameter must satisfy n >= 2, got {n}")

    mats, labels = _basis_matrices(family, n)
    basis = np.stack(mats)
    assert len(mats) == n * n - 1

    # Real-linear projector onto the basis: coordinates are real for
    # real-form elements and extend complex-linearly on the complexification.
    flat = np.concatenate([basis.real, basis.imag], axis=1).reshape(len(mats), -1)
    proj = np.linalg.pinv(flat.T)
    # Basis entries are 0, +-1, +-i, so the trace form is exact.
    killing = 2 * n * np.einsum("iab,jba->ij", basis, basis).real

    return AlgebraSpec(
        family=family,
        n=n,
        dim=len(mats),
        rank=n - 1,
        labels=tuple(labels),
        basis=_readonly(basis),
        killing=_readonly(killing),
        _proj=_readonly(proj),
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


def element_from_matrix(spec: AlgebraSpec, m: np.ndarray) -> AlgebraElement:
    """Coordinates of a matrix lying in the algebra or its complexification."""
    m = np.asarray(m, dtype=complex)
    coords = _project(spec, m, complex_out=True)
    if np.max(np.abs(coords.imag)) < 1e-12:
        coords = coords.real
    recon = np.tensordot(coords, spec.basis, axes=(0, 0))
    if np.max(np.abs(recon - m)) > 1e-9 * max(1.0, np.max(np.abs(m))):
        raise AlgebraError("matrix does not lie in the algebra span")
    return AlgebraElement(spec, _readonly(coords))


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[x, y] as the projected matrix commutator; complex if either input is."""
    _check_same(x, y)
    mx, my = x.matrix, y.matrix
    complex_out = np.iscomplexobj(x.coords) or np.iscomplexobj(y.coords)
    out = _project(x.algebra, mx @ my - my @ mx, complex_out)
    return AlgebraElement(x.algebra, _readonly(out))


def killing_form(x: AlgebraElement, y: AlgebraElement):
    _check_same(x, y)
    val = x.coords @ x.algebra.killing @ y.coords
    return complex(val) if np.iscomplexobj(val) else float(val)


def adjoint_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of ad(x) on the algebra basis: column j holds [x, e_j]."""
    basis, m = x.algebra.basis, x.matrix
    return _project(x.algebra, m @ basis - basis @ m, np.iscomplexobj(x.coords)).T


# Outcomes of ``_spectra``, one per row.
_REGULAR, _NONREAL, _SINGULAR, _INDETERMINATE, _NONFINITE = range(5)


def _spectra(spec: AlgebraSpec, coords: np.ndarray, real: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonically ordered spectra of many elements, classified row by row.

    ``coords`` holds one element per row over the basis; ``real`` marks
    the rows that lie in the real form (for su(n) those matrices are
    anti-Hermitian, and take the Hermitian eigensolver).  Returns, per row,
    an outcome, the defining-matrix eigenvalues and their relative
    separation (smallest gap over the Frobenius norm):

    * ``_NONFINITE``: a matrix entry is inf or NaN; nothing is solved.
    * ``_SINGULAR``: zero or non-finite norm, or separation < REGULAR_TOL.
    * ``_INDETERMINATE``: separation in [REGULAR_TOL, 10*REGULAR_TOL).
    * ``_NONREAL``: sl(n,R) only, a regular spectrum that is not real, so
      no real conjugation into the split Cartan exists.
    * ``_REGULAR``: everything else.

    Spectra are (N, n) complex, ordered by descending real part with ties
    broken by descending imaginary part; for regular elements the order
    identifies the dominant chamber.  sl(n,R) spectra are returned real.
    Every step is elementwise, along a row's own axis or one LAPACK call
    per matrix, so a row's results do not depend on the rows beside it.
    """
    rows, n = len(coords), spec.n
    ev = np.zeros((rows, n), dtype=complex)
    i, j = _upper_pairs(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Basis entries are 0, +-1 and +-i, so each entry is the same sum of
        # at most two exact products in any summation order; adding 0.0
        # makes the sign of zero entries the same too.
        m = coords @ spec.basis.reshape(spec.dim, n * n) + 0.0
        parts = m.view(np.float64)
        scale = np.sqrt(np.add.accumulate(parts * parts, axis=1)[:, -1])
        m = m.reshape(rows, n, n)
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
        sep = np.abs(ev[:, i] - ev[:, j]).min(axis=1) / scale
    status = np.where(sep < 10 * REGULAR_TOL, _INDETERMINATE, _REGULAR).astype(np.int8)
    status[sep < REGULAR_TOL] = _SINGULAR
    if not solve.all():
        status[~solve] = np.where(np.isfinite(m[~solve]).all(axis=(1, 2)),
                                  _SINGULAR, _NONFINITE)
    if spec.family == "sl_real":
        status[(status == _REGULAR) & _non_real(ev)] = _NONREAL
        ev = ev.real.astype(complex)
    return status, ev, sep


@functools.lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of range(n)."""
    return tuple(_readonly(a) for a in np.triu_indices(n, 1))


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
    """The standard (diagonal) Cartan with its roots, root vectors and Weyl group.

    Everything is index data: the basis is E_kk - E_(k+1)(k+1), root r is
    e_i - e_j for ``root_pairs[r] = (i, j)`` with root vector E_ij, and the
    Weyl group is S_n.  Roots are stored as value-vectors on the complex
    Cartan basis (``roots[r, k] = alpha_r(basis[k])``); functionals on the
    Cartan use the same representation throughout.
    """

    algebra: AlgebraSpec
    basis: tuple[AlgebraElement, ...]
    real_basis: tuple[AlgebraElement, ...]
    roots: np.ndarray               # (n_roots, rank) real
    positive: tuple[int, ...]
    simple: tuple[int, ...]
    gram: np.ndarray                # B restricted to the Cartan basis

    @property
    def rank(self) -> int:
        return len(self.basis)

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

    @functools.cached_property
    def root_vectors(self) -> tuple[AlgebraElement, ...]:
        """E_ij for each root e_i - e_j, in root order; built on first read."""
        spec = self.algebra
        return tuple(element_from_matrix(spec, _unit(spec.n, i, j))
                     for i, j in self.root_pairs)

    @property
    def root_pairs(self) -> list[tuple[int, int]]:
        """(i, j) for each root e_i - e_j, in root order."""
        return _root_pairs(self.algebra.n)


def coroot(cartan: CartanDatum, root_idx: int) -> np.ndarray:
    """Coefficients of the coroot H_alpha over the Cartan basis."""
    alpha = cartan.roots[root_idx]
    t = np.linalg.solve(cartan.gram, alpha)
    return 2.0 * t / (alpha @ t)


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


def _standard_cartan(spec: AlgebraSpec) -> CartanDatum:
    """The diagonal Cartan, laid out from index data alone.

    Basis h_k = E_kk - E_(k+1)(k+1); real basis the first rank coordinate
    rows (h_k for sl(n,R), i h_k for su(n)).  No eigenvectors are
    involved.  The Weyl table is built on first read, and refused above
    MAX_TABLE_N before anything is allocated.
    """
    n = spec.n
    if n > MAX_TABLE_N:
        raise AlgebraError(
            f"the S_n table of {spec.family}({n}) would have {math.factorial(n):,} "
            f"rows; it is built for n <= {MAX_TABLE_N} only"
        )
    basis = [element_from_matrix(spec, _unit(n, k, k) - _unit(n, k + 1, k + 1))
             for k in range(n - 1)]
    pairs = _root_pairs(n)
    cols = np.stack([h.coords for h in basis])
    return CartanDatum(
        algebra=spec,
        basis=tuple(basis),
        real_basis=tuple(element(spec, row) for row in np.eye(spec.dim)[: n - 1]),
        roots=_readonly(_root_values(n)),
        positive=tuple(r for r, (i, j) in enumerate(pairs) if i < j),
        simple=tuple(r for r, (i, j) in enumerate(pairs) if j == i + 1),
        gram=_readonly(np.real(cols @ spec.killing @ cols.T)),
    )


def cartan_coordinates(cartan: CartanDatum, x: AlgebraElement) -> np.ndarray:
    """Coordinates of an element of the Cartan over the complex basis."""
    cols = np.stack([h.coords.astype(complex) for h in cartan.basis], axis=1)
    t = np.linalg.lstsq(cols, x.coords.astype(complex), rcond=None)[0]
    recon = cols @ t
    if np.max(np.abs(recon - x.coords)) > 1e-8 * max(1.0, np.max(np.abs(x.coords))):
        raise AlgebraError("element does not lie in the Cartan subalgebra")
    return t


# ---------------------------------------------------------------------------
# Iwasawa decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IwasawaDatum:
    """Cartan involution and the K/A/N (plus M) subspace data."""

    algebra: AlgebraSpec
    involution: np.ndarray                # (dim, dim) acting on coordinates
    k_basis: tuple[AlgebraElement, ...]
    p_basis: tuple[AlgebraElement, ...]
    a_basis: tuple[AlgebraElement, ...]
    m_basis: tuple[AlgebraElement, ...]
    n_basis: tuple[AlgebraElement, ...]
    restricted_roots: np.ndarray          # (n_res, dim a) values on a_basis
    restricted_positive: tuple[int, ...]


def iwasawa_decomposition(spec: AlgebraSpec) -> IwasawaDatum:
    """Iwasawa data for the realization.

    sl(n,R): theta(X) = -X^T; a = traceless diagonal, n = strictly lower
    triangular (the intersection with the negative restricted root spaces
    for the positive system e_i - e_j, i < j), k = antisymmetric.
    su(n): theta = id, k = g, a = n = 0, m = g.
    """
    n = spec.n

    def coords_of(m):
        return element_from_matrix(spec, m)

    if spec.family == "su":
        theta = np.eye(spec.dim)
        k_basis = tuple(element(spec, row) for row in np.eye(spec.dim))
        return IwasawaDatum(
            algebra=spec,
            involution=_readonly(theta),
            k_basis=k_basis,
            p_basis=(),
            a_basis=(),
            m_basis=k_basis,
            n_basis=(),
            restricted_roots=_readonly(np.zeros((0, 0))),
            restricted_positive=(),
        )

    # theta on coordinates from its action on basis matrices
    theta = _matrix_to_coords(spec._proj, -np.swapaxes(spec.basis, 1, 2)).T
    theta[np.abs(theta) < 1e-13] = 0.0

    def e(j, k):
        return _unit(n, j, k)

    upper = [(i, j) for i, j in _root_pairs(n) if i < j]
    k_basis = tuple(coords_of(e(i, j) - e(j, i)) for i, j in upper)
    a_basis = tuple(coords_of(e(k, k) - e(k + 1, k + 1)) for k in range(n - 1))
    p_basis = a_basis + tuple(coords_of(e(i, j) + e(j, i)) for i, j in upper)
    n_basis = tuple(coords_of(e(i, j)) for i, j in _root_pairs(n) if i > j)

    # Restricted roots: e_i - e_j as functionals on a, i != j.
    pos = [r for r, (i, j) in enumerate(_root_pairs(n)) if i < j]
    return IwasawaDatum(
        algebra=spec,
        involution=_readonly(theta),
        k_basis=k_basis,
        p_basis=p_basis,
        a_basis=a_basis,
        m_basis=(),
        n_basis=n_basis,
        restricted_roots=_readonly(_root_values(n)),
        restricted_positive=tuple(pos),
    )


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
