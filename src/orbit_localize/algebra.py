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

All public values are immutable after construction (arrays are marked
read-only) and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    "cartan_of",
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
    def field_tag(self) -> str:
        return "complex" if np.iscomplexobj(self.coords) else "real"

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


def _regular_spectrum(x: AlgebraElement) -> Optional[np.ndarray]:
    """Defining-matrix eigenvalues of a regular x, canonically ordered.

    Order: descending real part, ties broken by descending imaginary part.
    For regular elements the order identifies the dominant chamber.
    Returns None when x is not regular (see is_regular_semisimple).
    """
    m = x.matrix
    scale = float(np.linalg.norm(m))
    if scale == 0.0:
        return None
    if x.algebra.family == "su" and not np.iscomplexobj(x.coords):
        ev = -1j * np.linalg.eigvalsh(1j * m)
    else:
        ev = np.linalg.eigvals(m)
    ev = ev[np.lexsort((-ev.imag, -ev.real))]
    gaps = np.abs(np.subtract.outer(ev, ev))
    np.fill_diagonal(gaps, np.inf)
    sep = float(np.min(gaps)) / scale
    if sep < REGULAR_TOL:
        return None
    if sep < 10 * REGULAR_TOL:
        raise IndeterminateRegularityError(
            f"eigenvalue separation {sep:.3e} within the indeterminate band"
        )
    return ev


def is_regular_semisimple(x: AlgebraElement) -> bool:
    """Whether ad(x) is diagonalizable over C with kernel of dimension rank.

    For these matrix realizations the ad eigenvalues are the pairwise
    differences of defining-matrix eigenvalues, so the test reduces to
    eigenvalue distinctness.  Near-degenerate spectra (relative separation
    in [REGULAR_TOL, 10*REGULAR_TOL)) raise IndeterminateRegularityError.
    """
    return _regular_spectrum(x) is not None


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
    """A Cartan subalgebra with its roots, root vectors and Weyl group.

    Roots are stored as value-vectors on the complex Cartan basis
    (``roots[r, k] = alpha_r(basis[k])``); functionals on the Cartan use the
    same representation throughout.
    """

    algebra: AlgebraSpec
    basis: tuple[AlgebraElement, ...]
    real_basis: tuple[AlgebraElement, ...]
    roots: np.ndarray               # (n_roots, rank) real
    root_vectors: tuple[AlgebraElement, ...]
    positive: tuple[int, ...]
    simple: tuple[int, ...]
    weyl: tuple[WeylElement, ...]
    gram: np.ndarray                # B restricted to the Cartan basis

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def root_pairs(self) -> list[tuple[int, int]]:
        """(i, j) for each root e_i - e_j, in root order."""
        return _root_pairs(self.algebra.n)

    def root_index(self, vec: np.ndarray) -> int:
        key = tuple(np.round(np.asarray(vec).real, 6))
        try:
            return self._root_table[key]
        except AttributeError:
            table = {
                tuple(np.round(self.roots[r], 6)): r
                for r in range(len(self.roots))
            }
            object.__setattr__(self, "_root_table", table)
            return self._root_table[key]

    def weyl_by_label(self, label: str) -> WeylElement:
        for w in self.weyl:
            if w.label == label:
                return w
        raise AlgebraError(f"unknown Weyl label {label!r}")


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


def _reduced_word(perm: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest reduced word of a permutation of range(n).

    Letter k is the simple reflection swapping k-1 and k.  The smallest
    word starts with the smallest left descent (a k with pos[k-1] > pos[k],
    pos the inverse permutation); peeling it off and repeating is a bubble
    sort of pos.
    """
    pos = sorted(range(len(perm)), key=perm.__getitem__)
    word = []
    k = 0
    while k < len(pos) - 1:
        if pos[k] > pos[k + 1]:
            pos[k], pos[k + 1] = pos[k + 1], pos[k]
            word.append(k + 1)
            k = max(k - 1, 0)
        else:
            k += 1
    return tuple(word)


def _weyl_group(roots: np.ndarray, simple: Sequence[int]) -> list[WeylElement]:
    """S_n acting on covector value-vectors, in (length, word) order.

    Each permutation is labelled by its lexicographically smallest reduced
    word; its matrix is the product of the (integer) simple reflections
    along that word, and its determinant is the permutation sign.
    """
    rank = roots.shape[1]
    eye = np.eye(rank)
    # s_k(xi) = xi - xi(H_k) alpha_k, and the coroot H_k is the k-th basis element.
    gens = [eye - np.outer(roots[r], eye[k]) for k, r in enumerate(simple)]
    words = {perm: _reduced_word(perm)
             for perm in itertools.permutations(range(rank + 1))}
    matrices: dict[tuple[int, ...], np.ndarray] = {(): eye}
    out = []
    for perm, word in sorted(words.items(), key=lambda t: (len(t[1]), t[1])):
        if word:
            # The smallest word of w minus its last letter is the smallest
            # word of a shorter element, whose matrix is already known.
            matrices[word] = matrices[word[:-1]] @ gens[word[-1] - 1]
        label = "s" + "s".join(map(str, word)) if word else "e"
        out.append(WeylElement(label, word, _readonly(matrices[word]),
                               float((-1) ** len(word)), perm))
    return out


def _real_form_basis(spec: AlgebraSpec,
                     cartan_basis: list[AlgebraElement]) -> list[AlgebraElement]:
    """Basis of the real points t intersect g_R inside the complex span."""
    rank = len(cartan_basis)
    cols = np.stack([h.coords.astype(complex) for h in cartan_basis], axis=1)
    # Real combinations sum_j (a_j + i b_j) H_j with real coordinates:
    # stack real and imaginary parts and take the null space of the
    # imaginary component.
    m = np.concatenate([cols.real, -cols.imag], axis=1)  # real part map
    mi = np.concatenate([cols.imag, cols.real], axis=1)  # imag part map
    _, s, vh = np.linalg.svd(mi)
    null = vh[np.sum(s > 1e-9):].T  # (2*rank, rank) real coefficients
    out = []
    for j in range(null.shape[1]):
        ab = null[:, j]
        coords = m @ ab
        norm = np.linalg.norm(coords)
        if norm < 1e-12:
            continue
        out.append(element(spec, coords / norm))
    if len(out) != rank:
        raise AlgebraError("failed to extract a real basis of the Cartan")
    return out


def cartan_of(x: AlgebraElement) -> CartanDatum:
    """Cartan data of the unique Cartan subalgebra through a regular x.

    The basis is ``V (E_kk - E_(k+1)(k+1)) V^-1`` with V the (canonically
    ordered and phase-normalized) eigenvector matrix of the defining
    matrix of x; root vectors are the conjugated elementary matrices.
    """
    if not is_regular_semisimple(x):
        raise AlgebraError("cartan_of requires a regular semisimple element")
    spec = x.algebra
    n = spec.n
    m = x.matrix
    if spec.family == "su" and not np.iscomplexobj(x.coords):
        vals, vecs = np.linalg.eigh(1j * m)
        ev = -1j * vals
    else:
        ev, vecs = np.linalg.eig(m)
    order = np.lexsort((-ev.imag, -ev.real))
    ev, vecs = ev[order], vecs[:, order]
    # Deterministic phase: largest-modulus entry of each eigenvector real > 0.
    for k in range(n):
        i = int(np.argmax(np.abs(vecs[:, k])))
        ph = vecs[i, k] / abs(vecs[i, k])
        vecs[:, k] = vecs[:, k] / ph
    vinv = np.linalg.inv(vecs)

    def conj(mat):
        return element_from_matrix(spec, vecs @ mat @ vinv)

    basis = [conj(_unit(n, k, k) - _unit(n, k + 1, k + 1)) for k in range(n - 1)]
    pairs = _root_pairs(n)
    roots = _root_values(n)
    root_vectors = [conj(_unit(n, i, j)) for i, j in pairs]
    positive = tuple(r for r, (i, j) in enumerate(pairs) if i < j)
    simple = tuple(r for r, (i, j) in enumerate(pairs) if j == i + 1)
    cols = np.stack([h.coords for h in basis])
    gram = np.real(cols @ spec.killing @ cols.T)
    return CartanDatum(
        algebra=spec,
        basis=tuple(basis),
        real_basis=tuple(_real_form_basis(spec, basis)),
        roots=_readonly(roots),
        root_vectors=tuple(root_vectors),
        positive=positive,
        simple=simple,
        weyl=tuple(_weyl_group(roots, simple)),
        gram=_readonly(gram),
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


def _non_real(ev: np.ndarray) -> bool:
    """A spectrum with no real conjugation into the split Cartan."""
    scale = max(1.0, float(np.max(np.abs(ev))))
    return bool(np.max(np.abs(ev.imag)) > 1e-9 * scale)


def standard_spectrum(x: AlgebraElement) -> Optional[np.ndarray]:
    """Canonically ordered spectrum ev of a regular x, without eigenvectors.

    reduce_to_cartan conjugates x to diag(ev): over the standard Cartan
    basis its coordinates are cumsum(ev)[:-1], its root values ev_i - ev_j.
    Returns None where reduce_to_cartan does (sl(n,R): a non-real
    spectrum); raises AlgebraError when x is not regular semisimple.
    """
    ev = _regular_spectrum(x)
    if ev is None:
        raise AlgebraError("evaluation point must be regular semisimple")
    if x.algebra.family == "su":
        return ev
    return None if _non_real(ev) else ev.real


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
