"""Evaluator tests against hand-derivable closed forms.

The su(2) and sl(2,R) expectations are derived in-test from the pairing
convention alone (exponent i*B(dual, X), two fixed points, root value 2 on
diag(1,-1)), giving sin- and cosine-type closed forms that the evaluator
must reproduce; higher-rank checks are structural.
"""

import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_localize import localize
from orbit_localize.algebra import (
    AlgebraError,
    IndeterminateRegularityError,
    build_algebra,
    cartan_coordinates,
    element,
    element_from_matrix,
    killing_form,
    reduce_to_cartan,
)
from orbit_localize.localize import (
    DegenerateInputError,
    EvalResult,
    _orthogonal_directions,
    casimir_check,
    fourier_grid,
    fourier_value,
    invariance_checks,
    make_orbit,
    random_group_element,
)

RNG = np.random.default_rng(99)


def su2_orbit(a=1.0):
    return make_orbit(build_algebra("su", 2), [a])


def sl2_orbit(a=1.0, s0=-1):
    return make_orbit(build_algebra("sl_real", 2), [a], s0=s0)


def test_su2_closed_form():
    a = 1.3
    orbit = su2_orbit(a)
    spec = orbit.algebra
    dual = orbit.dual_element
    for t in (0.31, 0.8, 1.7):
        x = element(spec, [t, 0.0, 0.0])
        # Independent derivation: base exponent i*B(dual, x), root value 2it.
        z = 1j * killing_form(dual, x)
        expected = (np.exp(-z) - np.exp(z)) / (2j * t)
        got = fourier_value(orbit, x).value
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(np.sin(8 * a * t) / t, rel=1e-12)


def test_sl2_split_closed_form_and_reality():
    a = 1.0
    for s0 in (+1, -1):
        orbit = sl2_orbit(a, s0=s0)
        for t in (0.4, 0.9, 1.9):
            x = element(orbit.algebra, [t, 0.0, 0.0])
            got = fourier_value(orbit, x).value
            assert got.imag == pytest.approx(0.0, abs=1e-12)
            assert got == pytest.approx(-s0 * np.cos(8 * a * t) / t, rel=1e-12)


def test_sl2_two_exponential_form():
    orbit = sl2_orbit()
    res = fourier_value(orbit, element(orbit.algebra, [0.7, 0.0, 0.0]))
    nonzero = [t for t in res.terms if t.multiplicity != 0]
    assert len(nonzero) == 2
    assert nonzero[0].exponent == pytest.approx(-nonzero[1].exponent)
    assert all(abs(t.exponent.real) < 1e-12 for t in nonzero)


def test_elliptic_vanishes_structurally():
    orbit = sl2_orbit()
    spec = orbit.algebra
    for _ in range(20):
        theta = RNG.uniform(0.2, 2.5)
        g = random_group_element(spec, RNG)
        m = g @ (theta * np.array([[0.0, 1.0], [-1.0, 0.0]])) @ np.linalg.inv(g)
        res = fourier_value(orbit, element_from_matrix(spec, m))
        assert res.value == 0
        assert res.conjugacy == "outside"
        assert res.terms == ()


def _assert_value_is_term_sum(res):
    """The value against the sum over W of its terms, to 1e-14 sum |terms|."""
    total = sum(t.value for t in res.terms)
    assert abs(res.value - total) <= 1e-14 * sum(abs(t.value) for t in res.terms)


def test_total_equals_term_sum():
    orbit = make_orbit(build_algebra("su", 3), [0.8, 0.5])
    x = element(orbit.algebra, RNG.standard_normal(8))
    res = fourier_value(orbit, x)
    _assert_value_is_term_sum(res)
    assert len(res.terms) == 6


def test_orbit_parameter_is_exact():
    # The canonical weight is the partial sums of the sorted diagonal, with
    # no projection in between: (0.9, 0.4, 0.15) has the diagonal
    # (0.9, -0.5, -0.25, -0.15), sorted (0.9, -0.15, -0.25, -0.5).
    orbit = make_orbit(build_algebra("sl_real", 4), (0.9, 0.4, 0.15))
    assert orbit.weight == (0.9, 0.75, 0.5)
    # The compact parameter values -2n (zeta_k - zeta_(k+1)) are real.
    su3 = make_orbit(build_algebra("su", 3), (0.9, 0.4))
    assert np.all(su3.weight_values.imag == 0.0)


@pytest.mark.parametrize("family,n,weight", [
    ("su", 2, (1.3,)),
    ("su", 3, (0.9, 0.4)),
    ("su", 4, (0.9, 0.4, 0.3)),
    ("sl_real", 3, (0.9, 0.4)),
    ("sl_real", 4, (0.9, 0.4, 0.15)),
])
def test_terms_match_reduction_loop(family, n, weight):
    # Reference: conjugate into the Cartan with eigenvectors, solve for the
    # Cartan coordinates, and take each term one fixed point at a time.
    rng = np.random.default_rng(3)
    orbit = make_orbit(build_algebra(family, n), weight)
    cart = orbit.cartan
    checked = 0
    for _ in range(12):
        x = element(orbit.algebra, rng.standard_normal(orbit.algebra.dim))
        red = reduce_to_cartan(x, cart)
        res = fourier_value(orbit, x)
        if red is None:
            assert res.conjugacy == "outside" and res.value == 0
            continue
        t = cartan_coordinates(cart, red.reduced)
        assert len(res.terms) == len(orbit.fixed_points)
        for fp, term in zip(orbit.fixed_points, res.terms):
            expo = complex(fp.weight @ t)
            denom = complex(np.prod([cart.roots[r] @ t for r in fp.borel_roots]))
            assert (term.label, term.multiplicity) == (fp.weyl.label, fp.multiplicity)
            assert term.exponent == pytest.approx(expo, rel=1e-12, abs=1e-12)
            assert term.denominator == pytest.approx(denom, rel=1e-10)
            assert term.value == pytest.approx(
                fp.multiplicity * np.exp(expo) / denom, rel=1e-10, abs=1e-300
            )
        checked += 1
    assert checked >= 3


def test_weyl_symmetry_under_negation_su2():
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.9, 0.4, -0.2])
    assert fourier_value(orbit, x).value == pytest.approx(
        fourier_value(orbit, -1 * x).value, rel=1e-12
    )


def test_degenerate_raises_and_flags():
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.0, 0.0, 0.0])
    with pytest.raises(AlgebraError):
        fourier_value(orbit, x)  # not regular at all
    tiny = element(orbit.algebra, [1e-12, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        fourier_value(orbit, tiny)
    flagged = fourier_value(orbit, tiny, on_degenerate="flag")
    assert flagged.degenerate


def test_grid_empty_and_flagging():
    orbit = su2_orbit()
    assert fourier_grid(orbit, []) == ()
    xs = [element(orbit.algebra, [t, 0.0, 0.0]) for t in (-1.0, 0.0, 1.0)]
    rows = fourier_grid(orbit, xs)
    assert [r.degenerate for r in rows] == [False, True, False]
    assert rows[0].value == pytest.approx(rows[2].value, rel=1e-12)


def _row_key(r):
    """Every field of a result row, in a form that compares bit for bit."""
    return repr((
        r.value, r.degenerate, r.conjugacy,
        [(t.label, t.exponent, t.denominator, t.multiplicity, t.value)
         for t in r.terms],
    ))


def test_grid_matches_pointwise():
    su3 = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    sl3 = make_orbit(build_algebra("sl_real", 3), [0.9, 0.4])
    rotation = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cases = []
    for orbit in (su3, sl3):
        spec = orbit.algebra
        xs = [element(spec, RNG.standard_normal(8)) for _ in range(8)]
        xs.append(element(spec, 1e-10 * RNG.standard_normal(8)))  # wall
        xs.append(element(spec, np.zeros(8)))                     # non-regular
        cases.append((orbit, xs))
    cases.append((sl3, [element_from_matrix(sl3.algebra, rotation)]))  # outside

    seen = set()
    for orbit, xs in cases:
        rows = fourier_grid(orbit, xs)
        assert len(rows) == len(xs)
        for x, row in zip(xs, rows):
            try:
                expected = fourier_value(orbit, x, on_degenerate="flag")
                seen.add("outside" if expected.conjugacy == "outside" else
                         "wall" if expected.degenerate else "value")
            except AlgebraError:
                seen.add("raise")
                expected = EvalResult(value=complex("nan"), terms=(),
                                      degenerate=True, conjugacy="cartan")
            assert _row_key(row) == _row_key(expected)
    assert seen == {"value", "wall", "raise", "outside"}


# --- the batched kernel ------------------------------------------------------

ROW_KINDS = ("regular", "wall", "zero", "indeterminate", "outside", "complex",
             "nonfinite")


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sample_row(spec, kind, rng):
    """Coordinates of one point of the given kind (see ROW_KINDS).

    "indeterminate" points have relative eigenvalue separation in the
    middle of the refused band; "outside" points have a rotation block,
    so in sl(n,R) they are regular but not conjugate into the split
    Cartan (in su(n) the same matrix is a complex-coordinate point).
    """
    dim, n = spec.dim, spec.n
    if kind == "regular":
        return rng.standard_normal(dim)
    if kind == "wall":
        return 1e-10 * rng.standard_normal(dim)
    if kind == "zero":
        return np.zeros(dim)
    if kind == "complex":
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if kind == "nonfinite":
        c = rng.standard_normal(dim)
        c[rng.integers(dim)] = rng.choice([np.inf, -np.inf, np.nan])
        return c
    sep = rng.uniform(2e-8, 6e-8)
    q = _orthogonal(rng, n)
    if kind == "indeterminate" and n == 2:
        # Eigenvalues +-sqrt(eps): relative separation 2 sqrt(eps).
        m = np.array([[0.0, 1.0], [(sep / 2) ** 2, 0.0]])
    elif kind == "indeterminate":
        d = np.arange(n, dtype=float)
        d[1] = d[0] + sep * np.sqrt(np.sum(d * d))
        m = np.diag(d - d.mean())
    else:
        m = np.diag(np.arange(n, dtype=float) * rng.uniform(0.5, 1.5))
        m[:2, :2] = rng.uniform(0.3, 2.0) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        m -= np.trace(m) / n * np.eye(n)
    m = q @ m @ q.T
    return element_from_matrix(spec, 1j * m if spec.family == "su" else m).coords


def _pointwise_key(orbit, x):
    try:
        return _row_key(fourier_value(orbit, x, on_degenerate="flag"))
    except AlgebraError:
        return _row_key(EvalResult(value=complex("nan"), terms=(),
                                   degenerate=True, conjugacy="cartan"))


_ORBITS = {}


def _orbit(family, n):
    if (family, n) not in _ORBITS:
        weight = np.cumsum(np.linspace(0.9, -0.9, n) + 0.05 * np.arange(n))[:-1]
        _ORBITS[family, n] = make_orbit(build_algebra(family, n), weight)
    return _ORBITS[family, n]


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("sl_real", 2),
                                      ("sl_real", 3), ("sl_real", 4)])
def test_row_kinds_reach_their_outcomes(family, n):
    orbit = _orbit(family, n)
    rng = np.random.default_rng(5)
    spec = orbit.algebra
    for kind, expect in [("regular", None), ("complex", None),
                         ("wall", DegenerateInputError),
                         ("zero", AlgebraError),
                         ("indeterminate", IndeterminateRegularityError),
                         ("nonfinite", AlgebraError)]:
        for _ in range(5):
            x = element(spec, _sample_row(spec, kind, rng))
            if expect is None:
                assert not fourier_value(orbit, x).degenerate
            else:
                with pytest.raises(expect):
                    fourier_value(orbit, x)
    outside = fourier_value(orbit, element(spec, _sample_row(spec, "outside", rng)))
    assert outside.conjugacy == ("outside" if family == "sl_real" else "cartan")


@settings(max_examples=60, deadline=None)
@given(
    algebra=st.sampled_from([("su", 2), ("su", 3), ("su", 4), ("su", 5),
                             ("sl_real", 2), ("sl_real", 3), ("sl_real", 4)]),
    batch=st.lists(st.tuples(st.sampled_from(ROW_KINDS),
                             st.integers(0, 2 ** 32 - 1)),
                   min_size=1, max_size=14),
    cut=st.integers(0, 14),
    order=st.randoms(use_true_random=False),
    block_rows=st.integers(1, 5),
)
def test_grid_rows_independent_of_batch(algebra, batch, cut, order, block_rows):
    orbit = _orbit(*algebra)
    spec = orbit.algebra
    xs = [element(spec, _sample_row(spec, kind, np.random.default_rng(seed)))
          for kind, seed in batch]
    rows = fourier_grid(orbit, xs)
    keys = [_row_key(r) for r in rows]
    assert keys == [_pointwise_key(orbit, x) for x in xs]
    for r in rows:
        if not r.degenerate:
            _assert_value_is_term_sum(r)
    cut = min(cut, len(xs))
    split = fourier_grid(orbit, xs[:cut]) + fourier_grid(orbit, xs[cut:])
    assert [_row_key(r) for r in split] == keys
    perm = list(range(len(xs)))
    order.shuffle(perm)
    shuffled = fourier_grid(orbit, [xs[k] for k in perm])
    assert [_row_key(r) for r in shuffled] == [keys[k] for k in perm]
    # Several blocks in one batch: block_rows rows per block.
    with mock.patch.object(localize, "_BLOCK", block_rows * spec.n ** 2):
        assert [_row_key(r) for r in fourier_grid(orbit, xs)] == keys


def test_grid_longer_than_one_block():
    orbit = _orbit("su", 5)
    spec = orbit.algebra
    # 64 rows a block and 13 rows (1,600 terms) a chunk of the term sum.
    per_block = 64
    rng = np.random.default_rng(11)
    kinds = rng.choice(ROW_KINDS, size=2 * per_block + 37)
    xs = [element(spec, _sample_row(spec, k, rng)) for k in kinds]
    with mock.patch.object(localize, "_BLOCK", per_block * spec.n ** 2):
        keys = [_row_key(r) for r in fourier_grid(orbit, xs)]
        assert keys == [_pointwise_key(orbit, x) for x in xs]
        shifted = fourier_grid(orbit, xs[:41]) + fourier_grid(orbit, xs[41:])
        assert [_row_key(r) for r in shifted] == keys


def test_grid_array_input_matches_elements():
    orbit = _orbit("sl_real", 3)
    coords = np.random.default_rng(2).standard_normal((50, 8))
    from_array = fourier_grid(orbit, coords)
    from_elements = fourier_grid(orbit, [element(orbit.algebra, c) for c in coords])
    assert [_row_key(r) for r in from_array] == [_row_key(r) for r in from_elements]
    with pytest.raises(AlgebraError):
        fourier_grid(orbit, coords[:, :5])


def test_grid_memory_stays_blocked():
    # Rows of the real form take the closed form, (N, n, n) stacks; one
    # (N, |W|) complex array of the term sum would take 3000 * 5040 * 16 B,
    # 242 MB, here.
    orbit = make_orbit(build_algebra("su", 7), [0.9, 1.5, 1.8, 1.8, 1.5, 0.9])
    coords = np.random.default_rng(4).standard_normal((3000, orbit.algebra.dim))
    tracemalloc.start()
    try:
        rows = fourier_grid(orbit, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3000 and not any(r.degenerate for r in rows)
    assert peak < 64e6


def test_grid_memory_stays_blocked_off_the_real_form():
    # Rows with complex coordinates take the term sum, whose (|W|, N)
    # arrays would take 1500 * 5040 * 16 B, 121 MB, each if unchunked.
    orbit = make_orbit(build_algebra("su", 7), [0.9, 1.5, 1.8, 1.8, 1.5, 0.9])
    rng = np.random.default_rng(9)
    coords = rng.standard_normal((1500, orbit.algebra.dim)) * (1 + 0.5j)
    tracemalloc.start()
    try:
        rows = fourier_grid(orbit, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 1500 and not any(r.degenerate for r in rows)
    assert peak < 64e6


def test_grid_makes_one_eigensolve_per_block(monkeypatch):
    orbit = _orbit("su", 3)
    coords = np.random.default_rng(6).standard_normal((2000, 8))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    fourier_grid(orbit, coords)
    per_block = localize._BLOCK // orbit.algebra.n ** 2
    assert 1 <= len(calls) <= math.ceil(2000 / per_block)
    assert sum(calls) == 2000


@pytest.mark.parametrize("family", ["su", "sl_real"])
def test_non_finite_points_refused_without_warnings(family):
    orbit = _orbit(family, 3)
    spec = orbit.algebra
    good = element(spec, np.linspace(0.2, 1.1, 8))
    bad = [[np.inf] + [0.0] * 7, [0.0] * 5 + [np.nan, 0.0, 0.0],
           [-np.inf, 1.0] + [0.0] * 6, [1e308, -1e308] + [0.0] * 6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coords in bad:
            x = element(spec, coords)
            with pytest.raises(AlgebraError, match="non-finite"):
                fourier_value(orbit, x)
            rows = fourier_grid(orbit, [x, good, x])
            assert [r.degenerate for r in rows] == [True, False, True]
            assert _row_key(rows[1]) == _row_key(fourier_value(orbit, good))
        # Finite entries whose norm overflows: not regular, as before.
        for coords in ([1e300, 1e-300] + [0.0] * 6, [0.0, 0.0, 1e308j] + [0.0] * 5):
            with pytest.raises(AlgebraError, match="regular semisimple"):
                fourier_value(orbit, element(spec, coords))


def test_casimir_residuals():
    orbit = su2_orbit()
    res = casimir_check(orbit, element(orbit.algebra, [0.5, 0.3, -0.4]), step=1e-3)
    assert res.relative and res.residual < 1e-4
    assert res.eigenvalue == pytest.approx(8.0)

    orbs = sl2_orbit()
    x = element_from_matrix(orbs.algebra, np.array([[0.7, 0.1], [0.12, -0.7]]))
    res2 = casimir_check(orbs, x, step=1e-3)
    assert res2.relative and res2.residual < 1e-4
    assert res2.eigenvalue == pytest.approx(-8.0)


def test_casimir_absolute_fallback_near_zero():
    # sin(8t)/t vanishes at t = pi/8: the relative ratio is undefined there
    # and the check reports an absolute residual instead.
    orbit = su2_orbit()
    x = element(orbit.algebra, [np.pi / 8.0, 0.0, 0.0])
    assert abs(fourier_value(orbit, x).value) < 1e-12
    res = casimir_check(orbit, x, step=1e-3)
    assert not res.relative
    assert np.isfinite(res.residual)


@pytest.mark.parametrize("offset,error,match", [
    (0.0, AlgebraError, "regular semisimple"),
    (1e-10, DegenerateInputError, "root hyperplane"),
])
def test_casimir_refuses_a_stencil_point_like_fourier_value(offset, error, match):
    # x - step * d lands on 0 (singular) or within 1e-10 of it (a wall),
    # while x and x + step * d are regular: the check raises what
    # fourier_value raises at that stencil point.
    orbit = su2_orbit()
    d = _orthogonal_directions(orbit.algebra)[0][:, 0]
    x = element(orbit.algebra, (1e-3 + offset) * d)
    fourier_value(orbit, x)
    with pytest.raises(error, match=match):
        fourier_value(orbit, element(orbit.algebra, x.coords - 1e-3 * d))
    with pytest.raises(error, match=match):
        casimir_check(orbit, x, step=1e-3)
def test_casimir_eigenvalue_weyl_invariant():
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    base = orbit.casimir_eigenvalue()
    # Any permutation of the dual diagonal yields the same eigenvalue.
    spec = orbit.algebra
    m = orbit.dual_element.matrix
    diag = np.diagonal(m)
    perm = np.diag(diag[[1, 2, 0]])
    moved = make_orbit(spec, element_from_matrix(spec, perm).coords[:2].real)
    assert moved.casimir_eigenvalue() == pytest.approx(base)


def test_invariance_identity_element():
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.5, 0.3, -0.4])
    rep = invariance_checks(orbit, x, np.eye(2))
    assert rep.ad_difference < 1e-12
    assert max(rep.weyl_differences.values()) < 1e-12


@pytest.mark.parametrize("family,n,weight", [
    ("su", 2, (1.0,)),
    ("su", 3, (0.9, 0.4)),
])
def test_invariance_random_sweep(family, n, weight):
    spec = build_algebra(family, n)
    orbit = make_orbit(spec, weight)
    worst = 0.0
    for _ in range(10):
        x = element(spec, RNG.standard_normal(spec.dim) * 0.7)
        g = random_group_element(spec, RNG)
        rep = invariance_checks(orbit, x, g)
        if not rep.flagged:
            worst = max(worst, rep.ad_difference)
    assert worst < 1e-9


@pytest.mark.parametrize("coords", [
    [0.5, 1.0] + [0.0] * 6,                 # on a root wall
    [0.0] * 8,                              # singular
    [np.inf] + [0.0] * 7,                   # non-finite
    [1e308, -1e308, 1e308] + [0.0] * 5,     # overflows in the matrix
], ids=["wall", "singular", "non-finite", "overflow"])
def test_invariance_refuses_x_as_fourier_value_does(coords):
    orbit = _orbit("su", 3)
    x = element(orbit.algebra, coords)
    g = random_group_element(orbit.algebra, np.random.default_rng(1))
    with pytest.raises(AlgebraError) as expected:
        fourier_value(orbit, x)
    with pytest.raises(type(expected.value)) as err:
        invariance_checks(orbit, x, g)
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("family", ["su", "sl_real"])
def test_invariance_difference_is_the_pointwise_one(family):
    orbit = _orbit(family, 3)
    spec = orbit.algebra
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = element(spec, rng.standard_normal(spec.dim) * 0.7)
        g = random_group_element(spec, rng)
        gx = element_from_matrix(spec, g @ x.matrix @ np.linalg.inv(g))
        rep = invariance_checks(orbit, x, g)
        assert not rep.flagged
        assert rep.ad_difference == abs(fourier_value(orbit, gx).value
                                        - fourier_value(orbit, x).value)


def test_sign_covariance():
    plus = sl2_orbit(s0=1)
    minus = sl2_orbit(s0=-1)
    x = element(plus.algebra, [0.8, 0.0, 0.0])
    assert fourier_value(plus, x).value == pytest.approx(
        -fourier_value(minus, x).value, rel=1e-12
    )
    # compact multiplicities ignore the sign knob entirely
    cp = make_orbit(build_algebra("su", 2), [1.0], s0=1)
    cm = make_orbit(build_algebra("su", 2), [1.0], s0=-1)
    y = element(cp.algebra, [0.5, 0.3, -0.4])
    assert fourier_value(cp, y).value == fourier_value(cm, y).value


def test_bounded_through_origin_su2():
    orbit = su2_orbit()
    vals = [
        fourier_value(orbit, element(orbit.algebra, [2.0 ** -k, 0.0, 0.0])).value
        for k in range(21)
    ]
    assert all(np.isfinite(v.real) and np.isfinite(v.imag) for v in vals)
    # sin(8t)/t -> 8: the dyadic tail is Cauchy
    tail = [abs(vals[k] - vals[k + 1]) for k in range(15, 20)]
    assert max(tail) < 1e-6
    assert vals[-1].real == pytest.approx(8.0, abs=1e-4)


def test_mode_validation():
    with pytest.raises(AlgebraError):
        make_orbit(build_algebra("su", 2), [1.0], mode="maximally_split")
    with pytest.raises(AlgebraError):
        make_orbit(build_algebra("sl_real", 2), [1.0], mode="compact")
    with pytest.raises(AlgebraError):
        make_orbit(build_algebra("su", 2), [0.0])  # singular parameter
    # Every multiplicity refusal is raised by make_orbit itself, not when
    # the object views are first read.
    su3 = build_algebra("su", 3)
    for kwargs, message in [
        (dict(mode="user_supplied", user_multiplicities={"bogus": 1}),
         "unknown Weyl label 'bogus' in multiplicity map"),
        (dict(mode="user_supplied", user_multiplicities={"e": 1.5}),
         "multiplicity for 'e' is not an integer"),
        (dict(mode="user_supplied", user_multiplicities={"e": 1e20}),
         "multiplicity for 'e' does not fit in int64"),
        (dict(mode="user_supplied", user_multiplicities={"s1": 10 ** 400}),
         "multiplicity for 's1' does not fit in int64"),
        (dict(mode="user_supplied"),
         "user_supplied mode requires a multiplicity map"),
        (dict(mode="diagonal"), "unknown multiplicity mode 'diagonal'"),
        (dict(s0=2), "calibration sign must be +1 or -1"),
    ]:
        with pytest.raises(AlgebraError) as info:
            make_orbit(su3, [0.9, 0.4], **kwargs)
        assert str(info.value) == message


def _coroot_rule(cart, values, tol=1e-8):
    """No coroot pairing below tol times the largest, the coroots solved
    from the Killing form on h_k = E_kk - E_(k+1)(k+1)."""
    spec, n = cart.algebra, cart.algebra.n
    hs = [element_from_matrix(spec, np.diag(np.eye(n)[k] - np.eye(n)[k + 1]))
          for k in range(n - 1)]
    gram = np.array([[killing_form(a, b) for b in hs] for a in hs]).real
    pairings = []
    for r in cart.positive:
        alpha = cart.roots[r]
        t = np.linalg.solve(gram, alpha)
        pairings.append(abs(values @ (2.0 * t / (alpha @ t))))
    return min(pairings) > tol * max(max(pairings), 1e-300)


@pytest.mark.parametrize("t,regular", [(3.1e-8, True), (2.9e-8, False)])
def test_orbit_regularity_at_the_tolerance(t, regular):
    # zeta = (1 + t, 1, -2 - t): smallest gap t, largest 3 + 2t, so the
    # ratio crosses 1e-8 between the two t.  In user_supplied mode zeta
    # stays as given, (1 + t, -2 - t, 1), and the near pair is not adjacent.
    for family, mode, weight in [("su", "compact", (1 + t, 2 + t)),
                                 ("sl_real", "maximally_split", (1 + t, 2 + t)),
                                 ("sl_real", "user_supplied", (1 + t, -1.0))]:
        spec = build_algebra(family, 3)
        zeta = np.array([weight[0], weight[1] - weight[0], -weight[1]])
        values = localize._scale(spec) * (zeta[:-1] - zeta[1:])
        # The coroot rule that the distinct-entries rule replaced agrees.
        cart = localize.standard_cartan(spec)
        assert _coroot_rule(cart, values) == regular
        if not regular:
            with pytest.raises(AlgebraError) as info:
                localize.enumerate_fixed_points(cart, values)
            assert str(info.value) == (
                "orbit parameter is singular (vanishing coroot pairing)")
        mults = {"e": 1} if mode == "user_supplied" else None
        if regular:
            assert make_orbit(spec, weight, mode=mode,
                              user_multiplicities=mults).mode == mode
        else:
            with pytest.raises(AlgebraError) as info:
                make_orbit(spec, weight, mode=mode, user_multiplicities=mults)
            assert str(info.value) == (
                "orbit parameter is singular (vanishing coroot pairing)")


def _chain(orbit):
    """The object chain make_orbit once ran, and the arrays it derived."""
    cart = orbit.cartan
    fps = localize.enumerate_fixed_points(cart, orbit.weight_values)
    fps = localize.closed_orbit_support(cart, fps, orbit.algebra.family)
    assignment, fps = localize.assign_multiplicities(
        fps, orbit.mode, sign=orbit.s0, user_values=orbit.user_multiplicities
    )
    order = np.argsort([fp.weyl.perm for fp in fps], axis=1)
    arrays = dict(
        _labels=tuple(fp.weyl.label for fp in fps),
        _multiplicities=np.array([fp.multiplicity for fp in fps]),
        _signs=np.array([fp.weyl.determinant for fp in fps]),
        _zeta=localize._scale(orbit.algebra) * orbit.zeta[order],
    )
    return assignment, fps, arrays


_CHAIN_CASES = {
    **{f"su{n}": ("su", n, {}) for n in (2, 3, 4, 5)},
    **{f"sl{n}-s0={s0}": ("sl_real", n, dict(s0=s0))
       for n in (2, 3, 4, 5) for s0 in (1, -1)},
    "su3-user": ("su", 3, dict(mode="user_supplied",
                               user_multiplicities={"e": 2, "s1s2": -3})),
}


@pytest.mark.parametrize("family,n,kwargs", _CHAIN_CASES.values(),
                         ids=_CHAIN_CASES.keys())
def test_orbit_arrays_match_the_object_chain(monkeypatch, family, n, kwargs):
    # A regular weight: the partial sums of distinct diagonal entries.
    weight = np.cumsum([0.9, 0.35, -0.15, -0.6][:n - 1])
    if kwargs.get("mode") == "user_supplied":
        weight = weight[::-1]          # kept out of the canonical chamber
    chain = ("enumerate_fixed_points", "assign_multiplicities")
    calls = dict.fromkeys(chain, 0)
    for name in chain:
        def counted(*args, _name=name, _real=getattr(localize, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(localize, name, counted)

    orbit = make_orbit(build_algebra(family, n), weight, **kwargs)
    assert calls == dict.fromkeys(chain, 0)
    assignment, fps, arrays = _chain(orbit)
    assert orbit.cartan._labels == arrays.pop("_labels")
    got_arrays = dict(_multiplicities=orbit._multiplicities,
                      _signs=orbit.cartan._table.signs, _zeta=orbit._zeta)
    for name, expected in arrays.items():
        got = got_arrays[name]
        assert np.array_equal(got, expected), name
        assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes()), name
    assert orbit._multiplicities.dtype == np.int64

    calls.update(dict.fromkeys(chain, 0))
    views = orbit.fixed_points
    assert calls == dict.fromkeys(chain, 1)
    assert orbit.fixed_points is views
    assert orbit.assignment is orbit.assignment
    assert calls == dict.fromkeys(chain, 1)
    assert len(views) == len(fps) == math.factorial(n)
    for view, fp in zip(views, fps):
        assert view.weyl is fp.weyl
        assert np.array_equal(view.weight, fp.weight)
        assert view.weight.tobytes() == fp.weight.tobytes()
        assert view.multiplicity == fp.multiplicity
        assert type(view.multiplicity) is int
    assert orbit.assignment.mode == assignment.mode
    assert orbit.assignment.sign == assignment.sign
    assert orbit.assignment.values == assignment.values


def _count_cartan_objects(monkeypatch):
    """Count WeylElement constructions and matrix projections from a cold Cartan."""
    from orbit_localize import algebra

    counts = {"weyl": 0, "from_matrix": 0}

    def weyl_element(*args, _real=algebra.WeylElement):
        counts["weyl"] += 1
        return _real(*args)

    def from_matrix(spec, m, _real=algebra.element_from_matrix):
        counts["from_matrix"] += 1
        return _real(spec, m)

    monkeypatch.setattr(algebra, "WeylElement", weyl_element)
    monkeypatch.setattr(algebra, "element_from_matrix", from_matrix)
    monkeypatch.setattr(localize, "element_from_matrix", from_matrix)
    monkeypatch.setattr(localize, "_STANDARD_CARTANS", {})
    return counts


@pytest.mark.parametrize("n", range(2, 8))
def test_labels_come_from_the_table(monkeypatch, n):
    counts = _count_cartan_objects(monkeypatch)
    weight = np.cumsum(np.linspace(1.0, -1.0, n))[:-1]
    orbit = make_orbit(build_algebra("su", n), weight)
    labels = orbit.cartan._labels
    assert counts["weyl"] == 0
    assert labels == tuple(w.label for w in orbit.cartan.weyl)
    assert counts["weyl"] == math.factorial(n)


@pytest.mark.parametrize("family,n", [("su", 6), ("sl_real", 5)])
def test_automatic_modes_build_no_cartan_objects(monkeypatch, family, n):
    counts = _count_cartan_objects(monkeypatch)
    weight = np.cumsum([0.9, 0.55, 0.35, -0.15, -0.6, -1.0][:n])[:n - 1]
    cart = localize.standard_cartan(build_algebra(family, n))
    orbit = make_orbit(cart.algebra, weight)
    assert orbit.mode == ("compact" if family == "su" else "maximally_split")
    x = np.random.default_rng(5).standard_normal((3, cart.algebra.dim))
    assert all(np.isfinite(row.value) for row in fourier_grid(orbit, x))
    assert counts == {"weyl": 0, "from_matrix": 0}

    # Each view builds the objects once, on first read.
    assert len(orbit.fixed_points) == math.factorial(n)
    assert orbit.assignment is orbit.assignment
    assert orbit.fixed_points[0].weyl is cart.weyl[0]
    assert counts == {"weyl": math.factorial(n), "from_matrix": 0}


def test_user_supplied_mode_and_json_eval_build_weyl_objects_once(
        monkeypatch, tmp_path):
    from orbit_localize.cli import main

    counts = _count_cartan_objects(monkeypatch)
    spec = build_algebra("su", 4)
    orbit = make_orbit(spec, [0.3, 0.9, 0.4], mode="user_supplied",
                       user_multiplicities={"s1": 2, "s2s3": -1})
    # The labels come from the table alone; the views build the objects once.
    assert orbit.cartan._labels[:3] == ("e", "s1", "s2")
    assert counts == {"weyl": 0, "from_matrix": 0}
    assert orbit.fixed_points[1].multiplicity == 2
    assert counts == {"weyl": 24, "from_matrix": 0}

    counts["weyl"] = 0
    localize._STANDARD_CARTANS.clear()
    # A direction over the whole basis: the Cartan axes hit walls on su(4).
    axis = {"start": 0.3, "stop": 0.9, "steps": 3,
            "direction": np.random.default_rng(7).standard_normal(15).tolist()}
    cfg = {"algebra": {"family": "su", "n": 4}, "weight": [0.3, 0.9, 0.4],
           "grid": {"axes": [axis]}, "output": {"format": "json"}}
    path = tmp_path / "su4.json"
    path.write_text(json.dumps(cfg))
    assert main(["eval", "--config", str(path),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert counts == {"weyl": 0, "from_matrix": 0}


def test_user_supplied_mode_roundtrip():
    spec = build_algebra("sl_real", 2)
    auto = make_orbit(spec, [1.0], s0=-1)
    manual = make_orbit(
        spec, [1.0], mode="user_supplied",
        user_multiplicities=dict(auto.assignment.values),
    )
    x = element(spec, [0.7, 0.0, 0.0])
    assert fourier_value(manual, x).value == pytest.approx(
        fourier_value(auto, x).value, rel=1e-12
    )
