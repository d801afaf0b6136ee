"""Structural tests for the algebra realizations.

Derived expectations are computed here from scratch (explicit matrix
commutators, brute-force ad traces, eigensolves) rather than through the
package's own killing/bracket helpers, so the two routes check each other.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from orbit_localize.algebra import (
    AlgebraError,
    IndeterminateRegularityError,
    _standard_cartan,
    adjoint_matrix,
    bracket,
    build_algebra,
    element,
    element_from_matrix,
    cartan_coordinates,
    is_regular_semisimple,
    killing_form,
    reduce_to_cartan,
)
from orbit_localize import algebra, localize
from orbit_localize.fixedpoints import enumerate_fixed_points
from orbit_localize.localize import make_orbit, standard_cartan

RNG = np.random.default_rng(20240811)


def sl2():
    return build_algebra("sl_real", 2)


def su(n):
    return build_algebra("su", n)


# --- construction -----------------------------------------------------------

def test_dimensions():
    assert sl2().dim == 3
    assert su(3).dim == 8
    assert build_algebra("sl_real", 3).dim == 8


def test_rejects_bad_input():
    with pytest.raises(AlgebraError):
        build_algebra("so_real", 3)
    with pytest.raises(AlgebraError):
        build_algebra("su", 1)


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 3, 3), (9,)])
def test_element_from_matrix_refuses_a_wrong_shape(shape):
    with pytest.raises(AlgebraError, match="expected 3 x 3 matrices"):
        element_from_matrix(su(3), np.zeros(shape))


def _reference_algebra(family, n):
    """basis, labels, killing and projector as the loop-built layout forms them."""
    def unit(j, k):
        m = np.zeros((n, n), dtype=complex)
        m[j, k] = 1.0
        return m

    mats, labels = [], []
    if family == "sl_real":
        for k in range(n - 1):
            mats.append(unit(k, k) - unit(k + 1, k + 1))
            labels.append(f"h{k + 1}")
        for j, k in itertools.permutations(range(n), 2):
            mats.append(unit(j, k))
            labels.append(f"e{j + 1}{k + 1}")
    else:
        for k in range(n - 1):
            mats.append(1j * (unit(k, k) - unit(k + 1, k + 1)))
            labels.append(f"d{k + 1}")
        for j, k in itertools.combinations(range(n), 2):
            mats.append(unit(j, k) - unit(k, j))
            labels.append(f"s{j + 1}{k + 1}")
            mats.append(1j * (unit(j, k) + unit(k, j)))
            labels.append(f"a{j + 1}{k + 1}")
    basis = np.stack(mats)
    flat = np.concatenate([basis.real, basis.imag], axis=1).reshape(len(mats), -1)
    killing = np.ascontiguousarray(
        2 * n * np.einsum("iab,jba->ij", basis, basis).real)
    return basis, tuple(labels), killing, np.linalg.pinv(flat.T)


@pytest.mark.parametrize("family", ["su", "sl_real"])
@pytest.mark.parametrize("n", range(2, 10))
def test_build_matches_the_loop_built_reference_bytes(family, n):
    # Index assignment lays out the same basis, signed zeros included, and
    # the Killing matrix formed on first read is the same bytes as forming
    # it at construction.
    spec = build_algebra(family, n)
    assert "killing" not in vars(spec)
    basis, labels, killing, _ = _reference_algebra(family, n)
    assert spec.labels == labels
    for got, want in ((spec.basis, basis), (spec.killing, killing)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert spec.killing is spec.killing


def _reference_coords(proj, m):
    """The pseudo-inverse projection of matrices onto the basis, extended
    complex-linearly: real part from (Re m, Im m), imaginary part from -i m."""
    def real_linear(m):
        flat = np.concatenate([m.real, m.imag], axis=-2)
        return flat.reshape(flat.shape[:-2] + (-1,)) @ proj.T
    return real_linear(m) + 1j * real_linear(-1j * m)


@pytest.mark.parametrize("family", ["su", "sl_real"])
@pytest.mark.parametrize("n", range(2, 10))
def test_coordinates_read_by_index_match_the_pinv_projection(family, n):
    # In-span and off-span stacks, real and complex coefficients, over six
    # decades of scale: the map read by index is the least-squares
    # projection, and its real part the projection onto the real form.
    spec = build_algebra(family, n)
    proj = _reference_algebra(family, n)[3]
    rng = np.random.default_rng(1000 * n + len(family))
    for cplx, off_span in itertools.product((False, True), repeat=2):
        c = rng.standard_normal((6, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (6, 1))
        if cplx:
            c = c + 1j * rng.standard_normal((6, spec.dim))
        m = np.tensordot(c, spec.basis, axes=(1, 0))
        if off_span:
            m = m + rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        got, want = algebra._coords(spec, m), _reference_coords(proj, m)
        bound = 1e-14 * max(1.0, np.max(np.abs(m)))
        assert got.shape == want.shape == (6, spec.dim)
        assert np.max(np.abs(got - want)) <= bound
        if not off_span:
            assert np.max(np.abs(got - c)) <= bound


@pytest.mark.parametrize("family", ["su", "sl_real"])
@pytest.mark.parametrize("n", range(2, 7))
def test_structure_constants_are_exact_integers(family, n):
    # Basis commutators have entries 0, +-1, +-2 and +-i, +-2i, and the map
    # reads them with real integer weights: every ad(e_i) is integer-valued
    # and the Jacobi tensor is exactly zero.
    spec = build_algebra(family, n)
    c = np.array([adjoint_matrix(element(spec, row)).T for row in np.eye(spec.dim)])
    assert c.dtype == np.float64
    assert np.array_equal(c, np.round(c))
    jac = (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    assert not jac.any()


def test_cold_build_forms_no_killing_matrix_or_projector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("formed at construction")

    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np.linalg, "pinv", refuse)
    spec = build_algebra("su", 20)
    assert spec.dim == 399 and spec.basis.shape == (399, 20, 20)


def brute_force_ad(basis_mats, x_mat):
    """ad(x) on the given basis by solving commutators, independently."""
    flat = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()])
                     for b in basis_mats], axis=1)
    proj = np.linalg.pinv(flat)
    cols = []
    for b in basis_mats:
        c = x_mat @ b - b @ x_mat
        cols.append(proj @ np.concatenate([c.real.ravel(), c.imag.ravel()]))
    return np.stack(cols, axis=1)


def test_killing_value_from_brute_force_ad():
    # Independent oracle: Tr(ad H ad H) over the explicit sl(2,R) basis.
    h = np.diag([1.0, -1.0])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    ad_h = brute_force_ad([h, e, f], h)
    assert np.trace(ad_h @ ad_h) == pytest.approx(8.0, abs=1e-12)

    spec = sl2()
    H = element(spec, [1.0, 0.0, 0.0])
    assert killing_form(H, H) == pytest.approx(8.0, abs=1e-12)


# --- bracket ----------------------------------------------------------------

def test_bracket_antisymmetry_random():
    spec = su(3)
    for _ in range(50):
        x = element(spec, RNG.standard_normal(8))
        y = element(spec, RNG.standard_normal(8))
        total = bracket(x, y) + bracket(y, x)
        assert np.max(np.abs(total.coords)) < 1e-12
        assert np.max(np.abs(bracket(x, x).coords)) < 1e-12


def test_bracket_matches_matrix_commutator():
    spec = sl2()
    H = element(spec, [1.0, 0.0, 0.0])
    E = element(spec, [0.0, 1.0, 0.0])
    got = bracket(H, E)
    direct = H.matrix @ E.matrix - E.matrix @ H.matrix
    assert np.max(np.abs(got.matrix - direct)) < 1e-12
    assert np.allclose(got.coords, [0.0, 2.0, 0.0])


def test_bracket_dimension_mismatch():
    with pytest.raises(AlgebraError):
        bracket(element(sl2(), [1, 0, 0]), element(su(3), np.zeros(8)))


# --- killing form -----------------------------------------------------------

def test_killing_symmetry_and_trace_identity():
    spec = su(3)
    for _ in range(20):
        x = element(spec, RNG.standard_normal(8))
        y = element(spec, RNG.standard_normal(8))
        assert killing_form(x, y) == pytest.approx(killing_form(y, x), abs=1e-10)
        assert killing_form(x, y) == pytest.approx(
            np.trace(adjoint_matrix(x) @ adjoint_matrix(y)), abs=1e-9
        )


@pytest.mark.parametrize("family,n", [
    ("su", 2), ("su", 3), ("su", 4),
    ("sl_real", 2), ("sl_real", 3), ("sl_real", 4),
])
def test_trace_form_and_commutator_bracket(family, n):
    spec = build_algebra(family, n)
    units = [element(spec, row) for row in np.eye(spec.dim)]
    # Killing matrix = brute-force tr(ad e_i ad e_j) over the defining matrices.
    ads = [brute_force_ad(list(spec.basis), m) for m in spec.basis]
    brute = np.array([[np.trace(a @ b) for b in ads] for a in ads])
    assert np.max(np.abs(spec.killing - brute)) < 1e-10
    # Jacobi and invariance on all basis triples, through bracket alone.
    c = np.array([[bracket(u, v).coords for v in units] for u in units])
    jac = (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    assert np.max(np.abs(jac)) < 1e-12
    B = spec.killing
    inv = np.einsum("zxm,my->zxy", c, B) + np.einsum("zym,xm->zxy", c, B)
    assert np.max(np.abs(inv)) < 1e-10
    eigs = np.linalg.eigvalsh(B)
    if family == "su":
        assert eigs.max() < -1e-9
    else:
        assert np.min(np.abs(eigs)) > 1e-9 and eigs.min() < 0 < eigs.max()
    # bracket = matrix commutator, real in real out, complex in complex out.
    for cplx in (False, True):
        cx = RNG.standard_normal(spec.dim)
        if cplx:
            cx = cx + 1j * RNG.standard_normal(spec.dim)
        x, y = element(spec, cx), element(spec, RNG.standard_normal(spec.dim))
        got = bracket(x, y)
        assert np.iscomplexobj(got.coords) == cplx
        assert np.iscomplexobj(bracket(y, x).coords) == cplx
        direct = x.matrix @ y.matrix - y.matrix @ x.matrix
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(got.matrix - direct)) < 1e-12 * scale


def test_build_memory_stays_small():
    # A dim^3 structure tensor would make su(7) cost about 86 MB here.
    tracemalloc.start()
    try:
        build_algebra("su", 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_killing_negative_definite_on_su2():
    spec = su(2)
    for _ in range(100):
        x = element(spec, RNG.standard_normal(3))
        if np.linalg.norm(x.coords) < 1e-6:
            continue
        assert killing_form(x, x) < 0


# --- adjoint matrices -------------------------------------------------------

def test_adjoint_of_zero_and_eigenvalues():
    spec = sl2()
    assert np.max(np.abs(adjoint_matrix(element(spec, [0, 0, 0])))) == 0.0
    ad_h = adjoint_matrix(element(spec, [1.0, 0.0, 0.0]))
    eigs = sorted(np.linalg.eigvals(ad_h).real)
    assert eigs == pytest.approx([-2.0, 0.0, 2.0], abs=1e-10)


# --- regularity -------------------------------------------------------------

def test_regular_semisimple_classification():
    spec = sl2()
    assert is_regular_semisimple(element(spec, [1.0, 0.0, 0.0]))
    assert not is_regular_semisimple(element(spec, [0.0, 1.0, 0.0]))  # nilpotent
    assert not is_regular_semisimple(element(spec, [0.0, 0.0, 0.0]))


def test_indeterminate_band_raises():
    spec = build_algebra("sl_real", 3)
    gap = 3e-8
    x = element_from_matrix(spec, np.diag([1.0, 1.0 + gap, -2.0 - gap]))
    with pytest.raises(IndeterminateRegularityError):
        is_regular_semisimple(x)


# --- cartan data ------------------------------------------------------------

def test_cartan_of_sl3():
    spec = build_algebra("sl_real", 3)
    cart = standard_cartan(spec)
    assert cart.rank == 2
    assert len(cart.roots) == 6
    assert len(cart.weyl) == 6
    labels = [w.label for w in cart.weyl]
    # golden: breadth-first over simple reflections, lexicographic ties
    assert labels == ["e", "s1", "s2", "s1s2", "s2s1", "s1s2s1"]
    # The real basis is the first rank coordinate rows: the diagonal
    # differences h_k, which commute, with coordinates e_k over themselves.
    hs = [element(spec, row) for row in np.eye(spec.dim)[:cart.rank]]
    for a in hs:
        for b in hs:
            assert np.max(np.abs(bracket(a, b).coords)) < 1e-9
    for k, h in enumerate(hs):
        assert np.allclose(h.matrix, np.diag(np.eye(3)[k] - np.eye(3)[k + 1]),
                           atol=1e-15)
        assert np.array_equal(cartan_coordinates(cart, h), np.eye(cart.rank)[k])


def test_standard_cartan_needs_no_factorization(monkeypatch):
    # A cold standard_cartan and make_orbit form no matrix of the algebra
    # and call no np.linalg function; the table is index arithmetic too.
    specs = [build_algebra(f, n) for f in ("su", "sl_real") for n in (2, 3, 4)]

    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra while laying out the standard Cartan")

    for name in dir(np.linalg):
        if (not name.startswith("_") and callable(getattr(np.linalg, name))
                and not isinstance(getattr(np.linalg, name), type)):
            monkeypatch.setattr(np.linalg, name, refuse)
    from orbit_localize import algebra
    monkeypatch.setattr(algebra, "element_from_matrix", refuse)
    monkeypatch.setattr(localize, "element_from_matrix", refuse)
    monkeypatch.setattr(localize, "_STANDARD_CARTANS", {})
    for spec in specs:
        assert len(_standard_cartan(spec).weyl) == math.factorial(spec.n)
        weight = np.cumsum(np.linspace(1.0, -1.0, spec.n))[:-1]
        assert make_orbit(spec, weight).cartan is standard_cartan(spec)
        user = make_orbit(spec, weight, mode="user_supplied",
                          user_multiplicities={"s1": 2})
        assert user._multiplicities[1] == 2


def test_root_vector_eigenproperty():
    # Root r = (i, j) takes roots[r, k] on h_k, with root vector E_ij.
    for family, n in itertools.product(("su", "sl_real"), (2, 3, 4)):
        spec = build_algebra(family, n)
        cart = standard_cartan(spec)
        hs = [element_from_matrix(spec, np.diag(np.eye(n)[k] - np.eye(n)[k + 1]))
              for k in range(n - 1)]
        assert len(cart.root_pairs) == len(cart.roots) == n * (n - 1)
        for r, (i, j) in enumerate(cart.root_pairs):
            vec = element_from_matrix(spec, np.eye(n)[:, [i]] @ np.eye(n)[[j]])
            for k, h in enumerate(hs):
                lhs = bracket(h, vec).coords
                rhs = cart.roots[r][k] * vec.coords
                assert np.max(np.abs(lhs - rhs)) < 1e-10


def _reflection(gram, alpha):
    """s_alpha on covector value-vectors, from the Gram matrix alone."""
    t = np.linalg.solve(gram, alpha)
    return np.eye(len(alpha)) - np.outer(alpha, 2.0 * t / (alpha @ t))


def _product(matrices, word, rank):
    out = np.eye(rank)
    for k in word:
        out = out @ matrices[k - 1]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weyl_group_closure_and_root_permutation(n):
    cart = standard_cartan(build_algebra("sl_real", n))
    rank = n - 1
    keys = {tuple(np.round(w.matrix, 8).ravel()) for w in cart.weyl}
    assert len(keys) == len(cart.weyl) == math.factorial(n)
    for w1 in cart.weyl:
        for w2 in cart.weyl:
            assert tuple(np.round(w1.matrix @ w2.matrix, 8).ravel()) in keys
    root_keys = {tuple(np.round(r, 8)) for r in cart.roots}
    for w in cart.weyl:
        for r in cart.roots:
            assert tuple(np.round(w.apply(r), 8)) in root_keys

    # The Killing form on h_k = E_kk - E_(k+1)(k+1), and the simple roots
    # e_i - e_(i+1).
    spec = cart.algebra
    hs = [element_from_matrix(spec, np.diag(np.eye(n)[k] - np.eye(n)[k + 1]))
          for k in range(rank)]
    gram = np.array([[killing_form(a, b) for b in hs] for a in hs])
    simple_roots = [r for r, (i, j) in enumerate(cart.root_pairs) if j == i + 1]
    reflections = [_reflection(gram, cart.roots[r]) for r in simple_roots]
    simple = [np.round(m) for m in reflections]
    assert all(np.max(np.abs(m - s)) < 1e-12 for m, s in zip(reflections, simple))
    for w in cart.weyl:
        assert np.array_equal(w.matrix, np.round(w.matrix))
        assert np.array_equal(w.matrix, _product(simple, w.word, rank))
        assert w.label == ("s" + "s".join(map(str, w.word)) if w.word else "e")
        inversions = sum(
            w.perm[a] > w.perm[b] for a in range(n) for b in range(a + 1, n)
        )
        assert len(w.word) == inversions
        assert w.determinant == (-1) ** len(w.word)
        assert np.linalg.det(w.matrix) == pytest.approx(w.determinant)

    if n <= 4:
        # Brute force: the first word of each length, in lexicographic
        # order, to reach a matrix is that element's smallest reduced word.
        smallest = {}
        for length in range(n * (n - 1) // 2 + 1):
            for word in itertools.product(range(1, n), repeat=length):
                key = tuple(_product(simple, word, rank).ravel())
                smallest.setdefault(key, word)
        assert len(smallest) == len(cart.weyl)
        for w in cart.weyl:
            assert w.word == smallest[tuple(w.matrix.ravel())]

    # Borel lists agree with transporting the negative roots through a
    # rounded root lookup.
    for family in ("su", "sl_real") if n <= 4 else ("su",):
        std = standard_cartan(build_algebra(family, n))
        index = {tuple(np.round(v, 6)): r for r, v in enumerate(std.roots)}

        def lookup(vec):
            return index[tuple(np.round(np.real(vec), 6))]

        negatives = [lookup(-std.roots[r]) for r in std.positive]
        covector = np.arange(1.0, n) * 1.37 + 0.21
        for fp in enumerate_fixed_points(std, covector):
            assert fp.borel_roots == tuple(sorted(
                lookup(fp.weyl.apply(std.roots[r])) for r in negatives
            ))


@pytest.mark.parametrize("n,digest", [
    (6, "f95b6878b3595ca7"),
    (7, "bde932a4224d0418"),
])
def test_weyl_table_golden_digest(n, digest):
    # The su(6) and su(7) tables (labels, permutations, signs, matrices in
    # order) hashed as built by the reflection-product construction; the
    # closure test above stops at n = 5.
    h = hashlib.sha256()
    for w in standard_cartan(build_algebra("su", n)).weyl:
        h.update(repr((w.label, w.perm, w.determinant,
                       w.matrix.astype(int).tolist())).encode())
    assert h.hexdigest()[:16] == digest


def _reference_weyl_group(n):
    """S_n by one pass over itertools.permutations, in (length, word) order.

    Each permutation is labelled by its lexicographically smallest reduced
    word: its smallest left descent d (value d-1 stands after value d),
    then the word of the permutation with those values exchanged, which
    comes earlier in ``itertools.permutations`` order.  Returns the
    permutations, words, inverse permutations, signs and matrices
    M[k, m] = [pos[k] <= m] - [pos[k+1] <= m].
    """
    perms = itertools.permutations(range(n))
    words = {next(perms): ()}        # the identity comes first
    for perm in perms:
        pos = sorted(range(n), key=perm.__getitem__)
        d = next(d for d in range(1, n) if pos[d - 1] > pos[d])
        prev = list(perm)
        prev[pos[d - 1]], prev[pos[d]] = d, d - 1
        words[perm] = (d,) + words[tuple(prev)]
    perms = sorted(words, key=lambda p: (len(words[p]), words[p]))
    pos = np.argsort(np.array(perms), axis=1)
    signs = np.array([(-1.0) ** len(words[p]) for p in perms])
    upto = np.arange(n - 1)
    matrices = (pos[:, :-1, None] <= upto).astype(float) - (pos[:, 1:, None] <= upto)
    return perms, [words[p] for p in perms], pos, signs, matrices


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_weyl_table_matches_the_permutation_walk(n):
    perms, words, pos, signs, matrices = _reference_weyl_group(n)
    cart = _standard_cartan(build_algebra("su", n))
    for got, expected in ((cart._table.pos, pos), (cart._table.signs, signs)):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
    weyl = cart.weyl
    assert [w.perm for w in weyl] == perms
    assert [w.word for w in weyl] == words
    assert [w.label for w in weyl] == [
        "s" + "s".join(map(str, word)) if word else "e" for word in words]
    assert [w.determinant for w in weyl] == signs.tolist()
    for w, matrix in zip(weyl, matrices):
        assert (w.matrix.dtype, w.matrix.shape) == (matrix.dtype, matrix.shape)
        assert w.matrix.tobytes() == matrix.tobytes()
        assert not w.matrix.flags.writeable


# --- iwasawa ----------------------------------------------------------------
# The decomposition is reference code here: theta(X) = -X^T, k the
# antisymmetric matrices, a the diagonal ones and n the strictly lower
# triangular ones, for the positive system e_i - e_j, i < j.

def test_iwasawa_sl3_restricted_roots():
    # For the split form a is the standard Cartan, so the restricted roots
    # are its roots.
    cart = standard_cartan(build_algebra("sl_real", 3))
    assert cart.roots.shape[0] == 6
    assert len(cart.positive) == 3
    assert all(i < j for i, j in (cart.root_pairs[r] for r in cart.positive))


def test_iwasawa_involution_properties():
    spec = build_algebra("sl_real", 3)
    theta = np.stack([element_from_matrix(spec, -m.T).coords
                      for m in spec.basis.real], axis=1)
    assert np.max(np.abs(theta @ theta - np.eye(spec.dim))) < 1e-12
    for _ in range(10):
        x = element(spec, RNG.standard_normal(8))
        y = element(spec, RNG.standard_normal(8))
        tx = element(spec, theta @ x.coords)
        ty = element(spec, theta @ y.coords)
        lhs = element(spec, theta @ bracket(x, y).coords)
        rhs = bracket(tx, ty)
        assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-10
    unit = np.eye(3)
    for i, j in itertools.combinations(range(3), 2):
        e = np.outer(unit[i], unit[j])
        k = element_from_matrix(spec, e - e.T)
        p = element_from_matrix(spec, e + e.T)
        assert np.allclose(theta @ k.coords, k.coords, atol=1e-12)
        assert np.allclose(theta @ p.coords, -p.coords, atol=1e-12)


def test_iwasawa_nilradical_is_nilpotent():
    spec = build_algebra("sl_real", 3)
    unit = np.eye(3)
    nil = [element_from_matrix(spec, np.outer(unit[i], unit[j]))
           for i in range(3) for j in range(i)]
    layer = list(nil)
    for _ in range(4):
        layer = [
            bracket(u, v) for u in nil for v in layer
            if np.max(np.abs(bracket(u, v).coords)) > 1e-12
        ]
    assert layer == []


# --- cartan reduction -------------------------------------------------------

def test_reduce_rotation_is_not_conjugate():
    spec = sl2()
    cart = standard_cartan(spec)
    rot = element_from_matrix(spec, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert reduce_to_cartan(rot, cart) is None


def test_reduce_symmetric_matrix():
    # Independent eigendecomposition: [[0,1],[1,0]] has eigenvalues +-1.
    spec = sl2()
    cart = standard_cartan(spec)
    x = element_from_matrix(spec, np.array([[0.0, 1.0], [1.0, 0.0]]))
    red = reduce_to_cartan(x, cart)
    assert red is not None
    assert np.allclose(red.reduced.matrix, np.diag([1.0, -1.0]), atol=1e-12)
    g = red.group_element
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(
        g @ x.matrix @ np.linalg.inv(g) - red.reduced.matrix
    )) < 1e-10


def test_reduce_identity_on_dominant_diagonal():
    spec = sl2()
    cart = standard_cartan(spec)
    x = element(spec, [0.7, 0.0, 0.0])
    red = reduce_to_cartan(x, cart)
    assert np.array_equal(red.group_element, np.eye(2))
    assert red.reduced is x


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("sl_real", 3)])
def test_reduce_roundtrip_random(family, n):
    spec = build_algebra(family, n)
    cart = standard_cartan(spec)
    tried = 0
    for _ in range(40):
        x = element(spec, RNG.standard_normal(spec.dim))
        try:
            if not is_regular_semisimple(x):
                continue
        except IndeterminateRegularityError:
            continue
        red = reduce_to_cartan(x, cart)
        if red is None:
            assert family == "sl_real"
            continue
        tried += 1
        g = red.group_element
        assert np.max(np.abs(
            g @ x.matrix @ np.linalg.inv(g) - red.reduced.matrix
        )) < 1e-10
        for k in range(n - 1):
            h = element_from_matrix(spec, np.diag(np.eye(n)[k] - np.eye(n)[k + 1]))
            moved = bracket(
                element(spec, red.reduced.coords.astype(complex)), h
            )
            assert np.max(np.abs(moved.coords)) < 1e-9
    assert tried >= 5
