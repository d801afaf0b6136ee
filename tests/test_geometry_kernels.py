"""The CP^1 model's array kernels against its one-point forms.

The kernels in ``geometry_sl2`` must equal the one-row wrappers bit for
bit, stay within 1e-15 of the one-point reference in
``cp1_scalar_reference``, refuse bad rows as the one-point code does, and
leave every residual of the geometry suite unchanged.
"""

import hashlib
import warnings

import numpy as np
import pytest

import cp1_scalar_reference as ref
from orbit_localize import geometry_sl2 as geo
from orbit_localize.algebra import AlgebraError, element
from orbit_localize.oracle import split_orbit_carrier
from orbit_localize.suites import SuiteSettings, run_suite

LAMS = (8j, 3, 2 + 5j)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


def random_pairs(rng, count):
    """Homogeneous pairs in both charts, with exact ties |z0| = |z1|."""
    z = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    z *= 10.0 ** rng.uniform(-3, 3, (count, 1))
    k = count // 4
    z[:k, 1] = 1j * z[:k, 0]                       # exact tie
    z[k:k + 4] = [[1, 1j], [1, -1], [1 + 1j, 1 - 1j], [0, 2j]]
    z[k + 4:2 * k].imag = 0.0                      # real pairs
    return z


# Batches above 256 KiB let numpy reuse temporaries in place, which changes
# how some complex products round; 6,000 rows cross that size.  The one-row
# forms are compared on every tenth row.
ROWS = range(0, 6000, 10)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(1201)
    z = random_pairs(rng, 6000)
    component = rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))
    v, chart = geo._flags(z)
    return z, v, chart, component


def orbit_coords(rng, count, radius=1.0):
    u = rng.uniform((-3.0, 0.0), (3.0, 2.0 * np.pi), (count, 2))
    return 1j * split_orbit_carrier(radius, u[:, 0], u[:, 1])


# --- kernels against the one-row wrappers and the one-point reference -------

def test_flags_match_wrapper_and_reference(points):
    z, v, chart, _ = points
    assert set(chart) == {0, 1}
    for k in ROWS:
        pair = z[k]
        x = geo.flag_point(*pair)
        assert_bits(v[k], x.vector)
        assert chart[k] == x.chart
        r = ref.flag_point(*pair)
        assert r.chart == x.chart
        assert np.max(np.abs(r.vector - x.vector)) <= 1e-15


@pytest.mark.parametrize("lam", LAMS)
def test_weights_match_wrapper_and_reference(points, lam):
    _, v, chart, _ = points
    coords = geo._weights(v, lam)
    for k in ROWS:
        x = geo.FlagPoint(complex(v[k, 0]), complex(v[k, 1]), int(chart[k]))
        w = geo.weight_at(x, lam)
        assert_bits(coords[k], w.coords.astype(complex))
        assert np.max(np.abs(ref.weight_at(x, lam).coords - w.coords)) <= 1e-15


def test_moments_match_wrapper_and_reference(points):
    _, v, chart, component = points
    coords = geo._moments(v, chart, component)
    for k in ROWS:
        x = geo.FlagPoint(complex(v[k, 0]), complex(v[k, 1]), int(chart[k]))
        zeta = geo.cotangent_point(x, component[k])
        m = geo.moment(zeta)
        assert_bits(coords[k], m.coords.astype(complex))
        assert np.max(np.abs(ref.moment(zeta).coords - m.coords)) <= 1e-15


@pytest.mark.parametrize("lam", (8j, 2 + 5j))
def test_inverse_matches_wrapper_and_reference(points, lam):
    _, v, chart, component = points
    nu = geo._moments(v, chart, component) + geo._weights(v, lam)
    vi, ci, comp = geo._inverse(geo._carriers(nu), lam)
    for k in ROWS:
        x = geo.FlagPoint(complex(v[k, 0]), complex(v[k, 1]), int(chart[k]))
        twisted = geo.twisted_moment(geo.cotangent_point(x, component[k]), lam)
        assert_bits(nu[k], twisted.coords.astype(complex))
        back = geo.twisted_moment_inverse(twisted, lam)
        assert_bits(vi[k], back.base.vector)
        assert ci[k] == back.base.chart
        assert_bits(comp[k], back.component)
        r = ref.twisted_moment_inverse(twisted, lam)
        assert r.base.chart == back.base.chart
        assert np.max(np.abs(r.base.vector - back.base.vector)) <= 1e-15
        assert abs(r.component - back.component) <= 1e-15


def test_real_line_defects_and_norms_match_reference(points):
    _, v, chart, component = points
    defects = geo._real_line_defects(v)
    norms = geo._real_part_norms(geo._carriers(geo._moments(v, chart, component)))
    for k in ROWS:
        x = geo.FlagPoint(complex(v[k, 0]), complex(v[k, 1]), int(chart[k]))
        assert abs(defects[k] - x.real_line_defect()) <= 1e-15
        m = ref.moment(geo.cotangent_point(x, component[k]))
        assert abs(norms[k] - ref.real_part_norm(m)) <= 1e-15


def test_reports_match_reference_loops():
    rng = np.random.default_rng(1202)
    coords = orbit_coords(rng, 300)
    elements = [element(geo.model_algebra(), c) for c in coords]
    lam = 8j
    base, re_norm = ref.orbit_image(lam, elements)
    for samples in (coords, elements):
        rep = geo.orbit_image_check(lam, samples)
        assert np.max(np.abs(rep.base_defects - base)) <= 1e-15
        assert np.max(np.abs(rep.real_part_norms - re_norm)) <= 1e-15
    sched = tuple(2.0 ** (-k) for k in range(8))
    base, mom = ref.scaling_defects(lam, sched, elements[:50])
    sc = geo.cycle_scaling_limit(lam, sched, coords[:50])
    assert np.max(np.abs(sc.base_defects - base)) <= 1e-15
    assert np.max(np.abs(sc.moment_defects - mom)) <= 1e-15


@pytest.mark.parametrize("lam", LAMS)
def test_sphere_grid_bound_matches_reference(lam):
    assert abs(geo._max_real_weight_norm(lam, 24)
               - ref.max_real_weight_norm(lam, 24)) <= 1e-15


# --- refusals, row by row ---------------------------------------------------

def off_orbit_batch():
    """Valid orbit samples with two off-orbit rows; row 5 is the first."""
    coords = orbit_coords(np.random.default_rng(1203), 12)
    coords[5] = [3.0, 1.0, -0.5]
    coords[9] = [0.2, 0.0, 4.0]
    return coords


def scalar_refusal(coords):
    nu = element(geo.model_algebra(), coords)
    with pytest.raises(AlgebraError) as info:
        ref.twisted_moment_inverse(nu, 8j)
    return str(info.value)


@pytest.mark.parametrize("as_elements", (False, True))
def test_off_orbit_row_refused_with_scalar_message(as_elements):
    coords = off_orbit_batch()
    message = scalar_refusal(coords[5])
    assert message.startswith("point is off the parameter orbit: invariant mismatch")
    assert message != scalar_refusal(coords[9])
    samples = coords
    if as_elements:
        samples = [element(geo.model_algebra(), c) for c in coords]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraError) as info:
            geo.orbit_image_check(8j, samples)
        assert str(info.value) == message
        with pytest.raises(AlgebraError) as info:
            geo.cycle_scaling_limit(8j, (1.0, 0.5), samples)
        assert str(info.value) == message


def test_zero_pair_refused_in_a_batch():
    z = random_pairs(np.random.default_rng(1204), 8)
    z[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraError,
                           match="flag point requires a nonzero homogeneous pair"):
            geo._flags(z)
        with pytest.raises(AlgebraError,
                           match="flag point requires a nonzero homogeneous pair"):
            geo.flag_point(0.0, 0.0)


# --- the geometry suite ------------------------------------------------------

def suite_digest(seed):
    rows = run_suite("geometry", SuiteSettings(family="sl_real", n=2,
                                               weight=(1.0,), seed=seed))
    text = "\n".join(f"{r.name}|{r.residual!r}|{r.threshold!r}|{r.passed}"
                     for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed,digest", [
    (1, "1600eb4117bccbeb"),
    (20240802, "6259d5b8929593b5"),
])
def test_geometry_suite_golden(seed, digest):
    # Digests of the rows (name, repr(residual), threshold, passed) as the
    # one-point suite computed them: they pin the random stream and the
    # rounding of every residual.
    assert suite_digest(seed) == digest


# --- the compact bound against its closed form -------------------------------

@pytest.mark.parametrize("lam", LAMS)
def test_grid_bound_below_closed_form_supremum(lam):
    # The real part of (lam/8)(1 - 2vv*) has Frobenius norm at most
    # sqrt(2) max(|Re lam|, |Im lam|) / 8, reached at real v or at
    # v = (1, i)/sqrt(2); the 72 x 144 grid may miss the maximum slightly.
    lam = complex(lam)
    c = np.sqrt(2.0) * max(abs(lam.real), abs(lam.imag)) / 8.0
    bound = geo._max_real_weight_norm(lam)
    assert c * (1 - 3e-4) <= bound <= c * (1 + 1e-15)
