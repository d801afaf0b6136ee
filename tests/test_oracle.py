"""Monte Carlo and quadrature oracle tests.

The hyperboloid closed form cos(8 a t)/t used below is derived from the
Bessel reduction of the damped orbit integral (circle average -> J0, then
the arc integral of J0 over the ruling), independent of the fixed-point
evaluator; it doubles as the strongest end-to-end check in the suite.
"""

import numpy as np
import pytest
from scipy import stats

from orbit_localize.algebra import (
    AlgebraError,
    build_algebra,
    element,
    reduce_to_cartan,
)
from orbit_localize.localize import fourier_value, make_orbit, standard_cartan
from orbit_localize.oracle import (
    _CHUNK,
    CalibrationError,
    _gram_schmidt,
    _philox,
    calibrate,
    damped_oscillatory_integral,
    haar_orbit_sample,
    kks_density_bruteforce,
    mc_fourier_integral,
    orbit_exponents,
    richardson_extrapolate,
    split_orbit_carrier,
    split_orbit_liouville_density,
)

RNG = np.random.default_rng(31)


def su2_orbit(a=1.0):
    return make_orbit(build_algebra("su", 2), [a])


def sl2_orbit(a=1.0):
    return make_orbit(build_algebra("sl_real", 2), [a], s0=-1)


def test_empty_sample():
    samples = haar_orbit_sample(su2_orbit(), seed=3, count=0)
    assert samples.coords.shape == (0, 3)


def test_split_form_refused():
    with pytest.raises(AlgebraError):
        haar_orbit_sample(sl2_orbit(), seed=3, count=10)


def test_samples_preserve_eigenvalues():
    orbit = su2_orbit(1.3)
    samples = haar_orbit_sample(orbit, seed=5, count=2000)
    spec = orbit.algebra
    target = np.sort(np.linalg.eigvalsh(1j * orbit.dual_element.matrix))
    for row in samples.coords:
        got = np.sort(np.linalg.eigvalsh(1j * element(spec, row).matrix))
        assert np.max(np.abs(got - target)) < 1e-10


def test_su2_sphere_uniformity_chi_square():
    # The orbit of a regular su(2) parameter is a round two-sphere; octant
    # counts of the sampled directions should be uniform.
    orbit = su2_orbit()
    samples = haar_orbit_sample(orbit, seed=11, count=20_000)
    # Orthonormal coordinates with respect to -killing: octant signs.
    b = orbit.algebra.killing
    evals, vecs = np.linalg.eigh(-b)
    pts = samples.coords @ (vecs / np.sqrt(evals))
    signs = (pts > 0).astype(int)
    octant = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2]
    counts = np.bincount(octant, minlength=8)
    chi2 = np.sum((counts - len(pts) / 8.0) ** 2 / (len(pts) / 8.0))
    p = stats.chi2.sf(chi2, df=7)
    assert p > 0.01


def test_exponents_are_purely_imaginary():
    orbit = su2_orbit()
    samples = haar_orbit_sample(orbit, seed=2, count=100)
    x = element(orbit.algebra, RNG.standard_normal(3))
    expo = orbit_exponents(samples, x)
    assert np.max(np.abs(expo.real)) < 1e-12


def test_determinism_same_seed_identical():
    orbit = su2_orbit()
    a = haar_orbit_sample(orbit, seed=123, count=5_000)
    b = haar_orbit_sample(orbit, seed=123, count=5_000)
    assert np.array_equal(a.coords, b.coords)
    ea = mc_fourier_integral(orbit, element(orbit.algebra, [0.5, 0.2, 0.1]),
                             123, 5_000)
    eb = mc_fourier_integral(orbit, element(orbit.algebra, [0.5, 0.2, 0.1]),
                             123, 5_000)
    assert ea.mean == eb.mean and ea.stderr == eb.stderr


def _qr_haar_sample(orbit, seed, count):
    """Reference sampler: batched LAPACK QR of Ginibre matrices with the
    phase of R's diagonal moved into Q, conjugating the dense carrier."""
    spec = orbit.algebra
    n = spec.n
    carrier = orbit.dual_element.matrix
    rng = _philox(seed)
    out = np.empty((count, spec.dim))
    done = 0
    while done < count:
        take = min(_CHUNK, count - done)
        z = (rng.standard_normal((take, n, n))
             + 1j * rng.standard_normal((take, n, n)))
        q, r = np.linalg.qr(z / np.sqrt(2.0))
        d = np.einsum("...ii->...i", r)
        u = q * (d / np.abs(d))[:, None, :]
        moved = u @ carrier @ np.conj(np.swapaxes(u, 1, 2))
        flat = np.concatenate(
            [moved.real.reshape(take, -1), moved.imag.reshape(take, -1)], axis=1
        )
        out[done:done + take] = flat @ spec._proj.T
        done += take
    return out


@pytest.mark.parametrize("n, weight", [(2, [1.3]), (3, [0.9, 0.4]),
                                       (4, [1.1, 0.3, -0.2])])
def test_haar_sample_matches_qr_reference(n, weight):
    # One full chunk and one partial chunk of the same Philox stream.
    orbit = make_orbit(build_algebra("su", n), weight)
    count = _CHUNK + 1234
    got = haar_orbit_sample(orbit, seed=7, count=count).coords
    assert np.max(np.abs(got - _qr_haar_sample(orbit, 7, count))) <= 1e-12


def test_gram_schmidt_columns_orthonormal():
    rng = _philox(19)
    n, worst = 3, 0.0
    for _ in range((1 << 20) // _CHUNK):
        z = np.empty((n, n, _CHUNK), dtype=complex)
        z.real = rng.standard_normal((_CHUNK, n, n)).transpose(1, 2, 0)
        z.imag = rng.standard_normal((_CHUNK, n, n)).transpose(1, 2, 0)
        u = _gram_schmidt(z)
        gram = np.einsum("ikt,ijt->kjt", u.conj(), u)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n)[:, :, None]))))
    assert worst <= 1e-13


def test_stderr_scaling_dyadic():
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.8, 0.3, -0.1])
    errs = [mc_fourier_integral(orbit, x, 77, n).stderr
            for n in (25_000, 50_000, 100_000, 200_000)]
    for a, b in zip(errs, errs[1:]):
        assert b < 2.0 * a / np.sqrt(2.0)


def test_calibration_exact_at_reference():
    orbit = su2_orbit()
    x0 = element(orbit.algebra, [0.6, 0.2, -0.3])
    cal = calibrate(orbit, x0, seed=17, count=50_000)
    est = mc_fourier_integral(orbit, x0, 17, 50_000, scale=cal.liouville_const)
    assert est.mean == pytest.approx(fourier_value(orbit, x0).value, rel=1e-12)


def test_calibration_stable_across_seeds():
    orbit = su2_orbit()
    x0 = element(orbit.algebra, [0.6, 0.2, -0.3])
    cals = [calibrate(orbit, x0, seed=s, count=100_000)
            for s in (1, 2, 3)]
    for a in cals:
        for b in cals:
            sigma = np.hypot(a.stderr, b.stderr)
            assert abs(a.liouville_const - b.liouville_const) <= 3.5 * sigma


def test_recalibration_at_different_reference_consistent():
    orbit = su2_orbit()
    a = calibrate(orbit, element(orbit.algebra, [0.6, 0.2, -0.3]),
                  seed=51, count=100_000)
    b = calibrate(orbit, element(orbit.algebra, [0.3, -0.5, 0.4]),
                  seed=52, count=100_000)
    assert abs(a.liouville_const - b.liouville_const) <= 3.0 * np.hypot(
        a.stderr, b.stderr
    )


def test_calibration_consistent_with_zero_rejected():
    orbit = su2_orbit()
    # Large argument: the circle average decays, the mean drowns in noise.
    x0 = element(orbit.algebra, [60.0, 0.0, 0.0])
    with pytest.raises(CalibrationError):
        calibrate(orbit, x0, seed=5, count=2_000)


def test_volume_limit_at_zero_argument():
    # exp(<0, zeta>) = 1: the calibrated estimate is the orbit volume and
    # matches the evaluator's limit along a dyadic schedule into the origin.
    orbit = su2_orbit()
    cal = calibrate(orbit, element(orbit.algebra, [0.6, 0.2, -0.3]),
                    seed=29, count=200_000)
    est = mc_fourier_integral(orbit, element(orbit.algebra, [0.0, 0.0, 0.0]),
                              29, 10_000, scale=cal.liouville_const)
    assert est.stderr < 1e-12  # constant integrand
    limit = fourier_value(
        orbit, element(orbit.algebra, [2.0 ** -20, 0.0, 0.0])
    ).value
    assert abs(est.mean - limit) <= 4.0 * cal.stderr


def test_mc_matches_formula_small_run():
    orbit = su2_orbit()
    cal = calibrate(orbit, element(orbit.algebra, [0.6, 0.2, -0.3]),
                    seed=41, count=100_000)
    shared = haar_orbit_sample(orbit, seed=43, count=100_000)
    misses = 0
    for _ in range(10):
        x = element(orbit.algebra, RNG.standard_normal(3) * 0.7)
        est = mc_fourier_integral(orbit, x, 0, 0,
                                  scale=cal.liouville_const, samples=shared)
        fv = fourier_value(orbit, x).value
        sigma = np.hypot(est.stderr,
                         abs(est.mean) * cal.stderr / abs(cal.liouville_const))
        if abs(est.mean - fv) > 3.0 * sigma:
            misses += 1
    assert misses <= 1


# --- hyperboloid oracle -----------------------------------------------------

def test_carrier_parametrization_on_quadric():
    r = 1.4
    for _ in range(100):
        s, phi = RNG.uniform(-3, 3), RNG.uniform(0, 2 * np.pi)
        h, e, f = split_orbit_carrier(r, s, phi)
        assert h * h + e * f == pytest.approx(r * r, rel=1e-12)


def test_liouville_density_matches_bracket_computation():
    orbit = sl2_orbit(1.0)
    for _ in range(25):
        s, phi = RNG.uniform(-2.5, 2.5), RNG.uniform(0, 2 * np.pi)
        assert kks_density_bruteforce(orbit, s, phi) == pytest.approx(
            float(split_orbit_liouville_density(1.0, s)), abs=1e-8
        )


def test_damped_integral_mesh_stability():
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.6, 0.0, 0.0])
    coarse = damped_oscillatory_integral(
        orbit, x, (0.05,), s_nodes=4001
    ).estimates[0]
    fine = damped_oscillatory_integral(
        orbit, x, (0.05,), s_nodes=8001
    ).estimates[0]
    assert abs(coarse - fine) / abs(fine) < 1e-2


def _mesh_damped_estimate(orbit, x, eps, s_nodes, phi_nodes):
    """Reference: Simpson in the hyperbolic angle times a periodic
    trapezoid rule in the circle angle, over the explicit carriers."""
    r = abs(float(orbit.weight[0]))
    reduced = reduce_to_cartan(x, standard_cartan(orbit.algebra)).reduced
    kx = orbit.algebra.killing @ reduced.coords
    s_max = float(np.arcsinh(np.sqrt(10.0 / eps) / r)) + 1.0
    s = np.linspace(-s_max, s_max, s_nodes)
    phi = np.linspace(0.0, 2.0 * np.pi, phi_nodes, endpoint=False)
    w_simpson = np.ones(s_nodes)
    w_simpson[1:-1:2] = 4.0
    w_simpson[2:-1:2] = 2.0
    w_simpson *= (s[1] - s[0]) / 3.0
    density = split_orbit_liouville_density(r, s)
    damping = np.exp(-eps * (2.0 * r * r + 4.0 * (r * np.sinh(s)) ** 2))
    carriers = split_orbit_carrier(r, s[:, None], phi[None, :])
    row = np.exp(1j * np.tensordot(carriers, kx, axes=(2, 0))).sum(axis=1)
    return complex(np.sum(row * density * damping * w_simpson)
                   * (2.0 * np.pi / phi_nodes))


def test_damped_integral_matches_circle_mesh():
    # The closed-form circle integral against the 2-D mesh it replaces, on
    # the same pinned s mesh: random split points, conjugated off the
    # Cartan, on orbits of random radius.
    rng = np.random.default_rng(8)
    eps_schedule = (0.2, 0.1)
    checked = 0
    while checked < 5:
        coords = rng.uniform(-0.6, 0.6, 3)
        if coords[0] ** 2 + coords[1] * coords[2] < 0.01:
            continue  # elliptic or near the nilpotent cone
        orbit = sl2_orbit(float(rng.uniform(0.5, 1.5)))
        x = element(orbit.algebra, coords)
        got = damped_oscillatory_integral(orbit, x, eps_schedule, s_nodes=1001)
        assert got.phi_nodes == 1 and got.s_nodes == 1001
        for eps, est in zip(eps_schedule, got.estimates):
            ref = _mesh_damped_estimate(orbit, x, eps, 1001, 512)
            assert abs(est - ref) <= 1e-12 * abs(ref)
        checked += 1


def test_damped_integral_small_damping_close_to_formula():
    # At eps = 1e-5 an (s, phi) mesh has ~1e10 nodes and the s mesh alone
    # ~9e5; the damping error is linear in eps.
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.3, 0.0, 0.0])
    est = damped_oscillatory_integral(orbit, x, (1e-5,)).estimates[0]
    fv = fourier_value(orbit, x).value
    assert abs(est - fv) <= 1e-4 * abs(fv)


def test_damped_integral_extrapolates_to_formula():
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.7, 0.0, 0.0])
    seq = damped_oscillatory_integral(orbit, x, (0.2, 0.1, 0.05, 0.025))
    fv = fourier_value(orbit, x).value
    assert abs(seq.extrapolated - fv) / abs(fv) < 0.10
    # against the independently derived closed form as well
    assert abs(seq.extrapolated - np.cos(8 * 0.7) / 0.7) / abs(fv) < 0.10


def test_sign_calibration_reproducible():
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.6, 0.0, 0.0])
    signs = {calibrate(orbit, x, seed=s, count=0).sign for s in (1, 2, 3)}
    assert signs == {-1}


def test_damped_integral_schedule_validation():
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.6, 0.0, 0.0])
    with pytest.raises(AlgebraError):
        damped_oscillatory_integral(orbit, x, (0.05, 0.1))
    with pytest.raises(AlgebraError):
        damped_oscillatory_integral(orbit, x, ())


def test_richardson_recovers_power_law():
    eps = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    vals = 3.7 + 1.9 * eps ** 0.9
    limit, order = richardson_extrapolate(tuple(eps), tuple(vals))
    assert limit == pytest.approx(3.7, abs=2e-3)
    assert order == pytest.approx(0.9, abs=0.05)
