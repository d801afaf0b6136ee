"""Monte Carlo and quadrature oracle tests.

The hyperboloid closed form cos(8 a t)/t used below is derived from the
Bessel reduction of the damped orbit integral (circle average -> J0, then
the arc integral of J0 over the ruling), independent of the fixed-point
evaluator; it doubles as the strongest end-to-end check in the suite.
"""

import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from test_algebra import _reference_algebra
from orbit_localize.algebra import (
    AlgebraError,
    build_algebra,
    element,
    reduce_to_cartan,
)
from orbit_localize import oracle
from orbit_localize.localize import fourier_value, make_orbit, standard_cartan
from orbit_localize.oracle import (
    _CHUNK,
    CalibrationError,
    _gram_schmidt,
    _liouville_const,
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


def mc_liouville_const(orbit, coords, seed, count):
    """One-point Monte Carlo estimate of the Haar-to-Liouville constant:
    F(x0) over the raw Haar average at x0, with the standard error of that
    ratio."""
    x0 = element(orbit.algebra, coords)
    raw = mc_fourier_integral(orbit, x0, seed, count)
    estimate = fourier_value(orbit, x0).value / raw.mean
    return estimate, abs(estimate) * raw.stderr / abs(raw.mean)


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
    """Reference sampler: batched LAPACK thin QR of the (take, n, n - 1)
    Ginibre blocks, each chunk one fill laid out (re/im, column, row,
    sample), with the phase of R's diagonal moved into Q.  The carrier i
    diag(zeta) moves to i H, H = zeta_n I + sum_k (zeta_k - zeta_n) q_k q_k^H.
    """
    spec = orbit.algebra
    n = spec.n
    proj = _reference_algebra("su", n)[3]
    zeta = np.diagonal(orbit.dual_element.matrix).imag
    rng = _philox(seed)
    out = np.empty((count, spec.dim))
    done = 0
    while done < count:
        take = min(_CHUNK, count - done)
        drawn = rng.standard_normal((2, n - 1, n, take))
        z = (drawn[0] + 1j * drawn[1]).transpose(2, 1, 0)
        q, r = np.linalg.qr(z)
        d = np.einsum("...ii->...i", r)
        u = q * (d / np.abs(d))[:, None, :]
        h = zeta[-1] * np.eye(n) + np.einsum(
            "k,tik,tjk->tij", zeta[:-1] - zeta[-1], u, u.conj())
        moved = 1j * h
        flat = np.concatenate(
            [moved.real.reshape(take, -1), moved.imag.reshape(take, -1)], axis=1
        )
        out[done:done + take] = flat @ proj.T
        done += take
    return out


@pytest.mark.parametrize("n, weight, chunks", [
    (2, [1.3], 1), (3, [0.9, 0.4], 1), (4, [1.1, 0.3, -0.2], 1),
    (5, [1.2, 0.5, -0.1, -0.6], 1), (3, [0.9, 0.4], 2),
], ids=["2-weight0", "3-weight1", "4-weight2", "5-weight3", "3-weight1-3chunks"])
def test_haar_sample_matches_qr_reference(n, weight, chunks):
    # Full chunks and one partial chunk of the same Philox stream.
    orbit = make_orbit(build_algebra("su", n), weight)
    count = chunks * _CHUNK + 1234
    got = haar_orbit_sample(orbit, seed=7, count=count).coords
    assert np.max(np.abs(got - _qr_haar_sample(orbit, 7, count))) <= 1e-12


def test_gram_schmidt_columns_orthonormal():
    rng = _philox(19)
    n, worst = 3, 0.0
    for _ in range((1 << 20) // _CHUNK):
        # All n columns, laid out (column, row, sample).
        re = rng.standard_normal((_CHUNK, n, n)).transpose(2, 1, 0).copy()
        im = rng.standard_normal((_CHUNK, n, n)).transpose(2, 1, 0).copy()
        _gram_schmidt(re, im)
        u = re + 1j * im
        gram = np.einsum("kit,jit->kjt", u.conj(), u)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n)[:, :, None]))))
    assert worst <= 1e-13


def test_multi_chunk_sampling_deterministic_and_joins_its_thread():
    # The second call switches threads every microsecond, so the draw-ahead
    # thread and the caller interleave at many more points.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    before = threading.active_count()
    a = haar_orbit_sample(orbit, seed=5, count=3 * _CHUNK + 17)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        b = haar_orbit_sample(orbit, seed=5, count=3 * _CHUNK + 17)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(a.coords, b.coords)
    assert threading.active_count() == before


@pytest.mark.parametrize("fused", [False, True], ids=["sample", "estimates"])
def test_a_pass_starts_one_helper_thread(monkeypatch, fused):
    # Four chunks: one helper thread draws ahead for the whole pass.
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    if fused:
        oracle._mc_estimates(orbit, _points(orbit, 4), 5, 3 * _CHUNK + 17)
    else:
        haar_orbit_sample(orbit, seed=5, count=3 * _CHUNK + 17)
    assert len(started) == 1


class _FailingThirdFill:
    """A Philox generator whose third fill raises.

    Each chunk takes one fill, the first on the calling thread; the third
    fill is the helper thread's draw of the third chunk.
    """

    def __init__(self, seed):
        self.rng, self.fills = _philox(seed), 0

    def standard_normal(self, *args, **kwargs):
        self.fills += 1
        if self.fills == 3:
            raise MemoryError("fill failed")
        return self.rng.standard_normal(*args, **kwargs)


class _CountingPhilox:
    """A Philox generator that appends the shape of each fill to ``fills``."""

    def __init__(self, seed, fills):
        self.rng, self.fills = _philox(seed), fills

    def standard_normal(self, *args, out=None, **kwargs):
        self.fills.append(out.shape)
        return self.rng.standard_normal(*args, out=out, **kwargs)


@pytest.mark.parametrize("n, weight", [
    (2, [1.3]), (3, [0.9, 0.4]), (5, [1.2, 0.5, -0.1, -0.6]),
], ids=["2", "3", "5"])
def test_a_pass_draws_the_first_n_minus_1_columns_in_one_fill_per_chunk(
        monkeypatch, n, weight):
    # 2 n (n - 1) normals a sample, one (2, n - 1, n, take) fill a chunk;
    # the counted pass gives the samples of the plain one.
    orbit = make_orbit(build_algebra("su", n), weight)
    count = 3 * _CHUNK + 17
    plain = haar_orbit_sample(orbit, seed=5, count=count)
    fills = []
    monkeypatch.setattr(oracle, "_philox",
                        lambda seed: _CountingPhilox(seed, fills))
    counted = haar_orbit_sample(orbit, seed=5, count=count)
    assert fills == [(2, n - 1, n, _CHUNK)] * 3 + [(2, n - 1, n, 17)]
    assert sum(math.prod(f) for f in fills) == 2 * n * (n - 1) * count
    assert np.array_equal(plain.coords, counted.coords)


def test_draw_error_reaches_caller_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(oracle, "_philox", _FailingThirdFill)
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    before = threading.active_count()
    with pytest.raises(MemoryError, match="fill failed"):
        haar_orbit_sample(orbit, seed=5, count=3 * _CHUNK)
    assert threading.active_count() == before


# --- estimates valued during the draw ----------------------------------------

def _bits(est):
    return repr(est.mean), repr(est.stderr), est.count, est.seed


def _points(orbit, k):
    rng = np.random.default_rng(k)
    return [element(orbit.algebra, rng.standard_normal(orbit.algebra.dim) * 0.6)
            for _ in range(k)]


def _stored_estimates(orbit, xs, seed, count, scale):
    samples = haar_orbit_sample(orbit, seed, count)
    return [mc_fourier_integral(orbit, x, 0, 0, scale=scale, samples=samples)
            for x in xs]


@pytest.mark.parametrize("points", [1, 2, 20])
@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, 3 * _CHUNK + 17],
                         ids=["0", "1", "chunk-1", "chunk", "3chunks+17"])
def test_fused_estimates_equal_stored_sample_estimates(count, points):
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    xs = _points(orbit, points)
    scale = 2.0 - 0.5j
    want = [_bits(e) for e in _stored_estimates(orbit, xs, 13, count, scale)]
    got = oracle._mc_estimates(orbit, xs, 13, count, scale)
    assert [_bits(e) for e in got] == want


@pytest.mark.parametrize("points", [2, 20])
def test_fused_estimates_independent_of_thread_switching(points):
    # Threads switch every microsecond, so the draw-ahead thread and the
    # valuing on the calling thread interleave at many more points.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    xs = _points(orbit, points)
    count = 3 * _CHUNK + 17
    want = [_bits(e) for e in _stored_estimates(orbit, xs, 21, count, 1.0)]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = oracle._mc_estimates(orbit, xs, 21, count)
    finally:
        sys.setswitchinterval(interval)
    assert [_bits(e) for e in got] == want
    assert threading.active_count() == before


def test_every_point_is_valued_in_one_pass(monkeypatch):
    # Only four moments a point are kept, so 20 points over two chunks
    # take one pass over the stream.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    xs = _points(orbit, 20)
    count = _CHUNK + 5
    want = [_bits(e) for e in _stored_estimates(orbit, xs, 8, count, 1.0)]
    passes = []
    real_pass = oracle._haar_pass
    monkeypatch.setattr(oracle, "_haar_pass",
                        lambda *a, **k: passes.append(1) or real_pass(*a, **k))
    got = oracle._mc_estimates(orbit, xs, 8, count)
    assert [_bits(e) for e in got] == want
    assert len(passes) == 1


_PREFIXES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 5, 3 * _CHUNK + 17]


@pytest.mark.parametrize("points", [2, 20])
@pytest.mark.parametrize("switch", [None, 1e-6], ids=["default", "1us"])
def test_prefix_reads_equal_stored_estimates_on_the_first_rows(points, switch):
    # A read at m is the stored-sample estimate on the first m rows of the
    # pass, and the reads leave the estimates at count as they are.  At a
    # 1 us switch interval the draw-ahead thread and the valuing on the
    # calling thread interleave at many more points.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    xs = _points(orbit, points)
    count = 3 * _CHUNK + 17
    scale = 2.0 - 0.5j
    rows = haar_orbit_sample(orbit, 29, count).coords
    want = []
    for x in xs:
        for m in _PREFIXES:
            first = oracle.OrbitSamples(orbit, rows[:m], 29, m)
            want.append(_bits(mc_fourier_integral(orbit, x, 0, 0, scale=scale,
                                                  samples=first)))
    finals = [_bits(e) for e in oracle._mc_estimates(orbit, xs, 29, count,
                                                     scale)]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    if switch:
        sys.setswitchinterval(switch)
    try:
        got = oracle._mc_estimates(orbit, xs, 29, count, scale,
                                   prefixes=[_PREFIXES] * points)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    reads = len(_PREFIXES)
    assert [_bits(e) for e in got] == [
        b for p in range(points)
        for b in want[p * reads:(p + 1) * reads] + [finals[p]]]


def test_prefix_reads_of_some_points_leave_the_others_alone():
    # Only the points with prefixes get more estimates, each just before
    # its estimate at count.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    xs = _points(orbit, 3)
    count = _CHUNK + 5
    finals = oracle._mc_estimates(orbit, xs, 4, count)
    got = oracle._mc_estimates(orbit, xs, 4, count, prefixes=[[3, count]])
    assert [e.count for e in got] == [3, count, count, count, count]
    assert [_bits(e) for e in got[1:3]] == [_bits(finals[0])] * 2
    assert [_bits(e) for e in got[3:]] == [_bits(e) for e in finals[1:]]


@pytest.mark.parametrize("prefixes", [
    [[4, 2]], [[3, 3]], [[0, 5]], [[-1]], [[11]], [[2], [2], [2]],
], ids=["descending", "repeated", "zero", "negative", "above-count",
        "more-lists-than-points"])
def test_bad_prefixes_are_refused_before_any_draw(monkeypatch, prefixes):
    drawn = []
    monkeypatch.setattr(oracle, "_philox", lambda seed: drawn.append(seed))
    orbit = su2_orbit()
    with pytest.raises(ValueError):
        oracle._mc_estimates(orbit, _points(orbit, 2), 3, 10,
                             prefixes=prefixes)
    assert drawn == []


def test_no_point_draws_nothing(monkeypatch):
    passes = []
    monkeypatch.setattr(oracle, "_haar_pass", lambda *a, **k: passes.append(a))
    assert oracle._mc_estimates(su2_orbit(), [], 3, 10 ** 6) == []
    assert passes == []


def exponentials(theta):
    """The valuer's (cos, sin) rows at the angles ``theta``, read as the
    one coordinate of each row against kx = (1,)."""
    out = np.empty((2, len(theta)))
    oracle._exponentials(np.asarray(theta, float)[:, None], np.ones(1), out)
    return out


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e-2, 1.0, 3.0, 10.0, 1e3,
                                   1e6, 1e9, 1e12])
def test_exponentials_match_the_complex_exponential(scale):
    theta = scale * np.random.default_rng(8).uniform(-1.0, 1.0, 20_000)
    cos, sin = exponentials(theta)
    want = np.exp(1j * theta)
    eps = np.finfo(float).eps
    assert np.max(np.abs(cos - want.real)) <= 2 * eps
    assert np.max(np.abs(sin - want.imag)) <= 2 * eps


def test_exponentials_at_special_angles():
    theta = np.array([0.0, -0.0, np.pi, -np.pi, 1e300, -1e300])
    cos, sin = exponentials(theta)
    want = np.exp(1j * theta)
    eps = np.finfo(float).eps
    assert np.max(np.abs(cos - want.real)) <= 2 * eps
    assert np.max(np.abs(sin - want.imag)) <= 2 * eps
    assert (cos[:2] == 1.0).all() and (sin[:2] == 0.0).all()
    assert (cos[2:4] == -1.0).all()
    with np.errstate(invalid="ignore"):
        assert np.isnan(exponentials([np.inf, -np.inf, np.nan])).all()


def test_merged_moments_match_the_full_sample_mean_and_variance():
    # Against np.mean and np.var(ddof=1) over all values at once, from the
    # origin (all values 1) through the small-variance regime to |X| = 2.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    count = 10 ** 6 + 17
    samples = haar_orbit_sample(orbit, 17, count)
    const = _liouville_const(orbit)
    direction = np.random.default_rng(4).standard_normal(orbit.algebra.dim)
    direction /= np.linalg.norm(direction)
    for norm in (0.0, 1e-4, 0.05, 0.6, 2.0):
        x = element(orbit.algebra, norm * direction)
        est = mc_fourier_integral(orbit, x, 0, 0, scale=const, samples=samples)
        vals = np.exp(orbit_exponents(samples, x))
        mean = const * vals.mean()
        stderr = abs(const) * math.sqrt(
            (vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / count)
        assert abs(est.mean - mean) <= 1e-14 * abs(const), norm
        assert abs(est.stderr - stderr) <= 1e-12 * stderr, norm
        value = fourier_value(orbit, x).value if norm else const
        assert (abs(est.mean - value) <= 3.0 * est.stderr) \
            == (abs(mean - value) <= 3.0 * stderr), norm


def test_fused_estimates_keep_no_per_sample_values():
    # The values of 20 points x 200,000 samples would take 64 MB; the
    # chunk buffers of the Haar pass take under 24 MB.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    xs = _points(orbit, 20)
    tracemalloc.start()
    try:
        oracle._mc_estimates(orbit, xs, 1, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


def test_samples_above_the_cap_are_refused_before_any_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(oracle, "_MAX_SAMPLES", 10)
    monkeypatch.setattr(oracle, "_philox", lambda seed: drawn.append(seed))
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.5, 0.2, 0.1])
    with pytest.raises(AlgebraError, match="11 Haar samples in one pass; the cap is 10"):
        mc_fourier_integral(orbit, x, 3, 11)
    assert drawn == []


def test_fused_estimate_of_zero_and_one_samples():
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.5, 0.2, 0.1])
    empty = mc_fourier_integral(orbit, x, 3, 0)
    assert np.isnan(empty.mean) and empty.stderr == float("inf")
    assert empty.count == 0
    one = mc_fourier_integral(orbit, x, 3, 1)
    assert abs(abs(one.mean) - 1.0) < 1e-12 and one.stderr == float("inf")
    assert one.count == 1


def test_fused_draw_error_reaches_caller_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(oracle, "_philox", _FailingThirdFill)
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    before = threading.active_count()
    with pytest.raises(MemoryError, match="fill failed"):
        oracle._mc_estimates(orbit, _points(orbit, 4), 5, 3 * _CHUNK)
    assert threading.active_count() == before


def test_valuing_error_reaches_caller_and_leaves_no_thread(monkeypatch):
    def fail(*args):
        raise MemoryError("valuing failed")

    monkeypatch.setattr(oracle, "_exponentials", fail)
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    before = threading.active_count()
    with pytest.raises(MemoryError, match="valuing failed"):
        oracle._mc_estimates(orbit, _points(orbit, 20), 5, 3 * _CHUNK)
    assert threading.active_count() == before


def test_every_point_is_valued_on_the_calling_thread(monkeypatch):
    # The helper thread only draws ahead: each of the 20 points is valued
    # on the calling thread, once per chunk.
    caller = threading.current_thread()
    threads = []
    real = oracle._exponentials

    def value(coords, kx, out):
        threads.append(threading.current_thread())
        real(coords, kx, out)

    monkeypatch.setattr(oracle, "_exponentials", value)
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    before = threading.active_count()
    oracle._mc_estimates(orbit, _points(orbit, 20), 5, 3 * _CHUNK + 17)
    assert threading.active_count() == before
    assert len(threads) == 20 * 4
    assert all(t is caller for t in threads)


def test_coordinate_error_stops_the_helper_before_it_values(monkeypatch):
    # The pass stops before any unwritten chunk is valued, and the
    # draw-ahead thread is joined.
    def fail(*args):
        raise MemoryError("coordinates failed")

    valued = []
    monkeypatch.setattr(oracle, "_orbit_coords", fail)
    monkeypatch.setattr(oracle, "_exponentials", lambda *a: valued.append(1))
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    before = threading.active_count()
    with pytest.raises(MemoryError, match="coordinates failed"):
        oracle._mc_estimates(orbit, _points(orbit, 4), 5, 3 * _CHUNK)
    assert valued == []
    assert threading.active_count() == before


def test_stderr_scaling_dyadic():
    orbit = su2_orbit()
    x = element(orbit.algebra, [0.8, 0.3, -0.1])
    errs = [mc_fourier_integral(orbit, x, 77, n).stderr
            for n in (25_000, 50_000, 100_000, 200_000)]
    for a, b in zip(errs, errs[1:]):
        assert b < 2.0 * a / np.sqrt(2.0)


def test_calibration_exact_at_reference():
    # The compact constant is the closed form: it reads no reference point,
    # so any point, even one where the Haar average is too small to
    # measure, gives the same bits, with no error.
    rng = np.random.default_rng(17)
    for n, weight in ((2, [1.0]), (3, [0.9, 0.4])):
        orbit = make_orbit(build_algebra("su", n), weight)
        const = _liouville_const(orbit)
        dim = orbit.algebra.dim
        for x0 in (np.zeros(dim), rng.standard_normal(dim),
                   60.0 * np.eye(dim)[0]):
            cal = calibrate(orbit, element(orbit.algebra, x0))
            assert repr(cal.liouville_const) == repr(const)
            assert (cal.stderr, cal.sign, cal.reference) == (0.0, 1, None)


def test_calibration_stable_across_seeds():
    # The Monte Carlo estimates of the constant agree across seeds, and the
    # closed form that calibrate returns does not move with them.
    orbit = su2_orbit()
    x0 = [0.6, 0.2, -0.3]
    ests = [mc_liouville_const(orbit, x0, s, 100_000) for s in (1, 2, 3)]
    for a, sa in ests:
        for b, sb in ests:
            assert abs(a - b) <= 3.5 * np.hypot(sa, sb)
    consts = {calibrate(orbit, element(orbit.algebra, x0)).liouville_const
              for _ in ests}
    assert consts == {_liouville_const(orbit)}


def test_recalibration_at_different_reference_consistent():
    # Estimates of the constant at two reference points agree within their
    # errors; calibrate gives the same bits at both.
    orbit = su2_orbit()
    refs = ([0.6, 0.2, -0.3], [0.3, -0.5, 0.4])
    (a, sa), (b, sb) = (mc_liouville_const(orbit, x0, seed, 100_000)
                        for x0, seed in zip(refs, (51, 52)))
    assert abs(a - b) <= 3.0 * np.hypot(sa, sb)
    ca, cb = (calibrate(orbit, element(orbit.algebra, x0)) for x0 in refs)
    assert repr(ca.liouville_const) == repr(cb.liouville_const)


def test_volume_limit_at_zero_argument():
    # exp(<0, zeta>) = 1: the scaled estimate is the orbit volume F(0)
    # exactly, and the evaluator reaches it along a dyadic schedule into
    # the origin.
    orbit = su2_orbit()
    const = _liouville_const(orbit)
    est = mc_fourier_integral(orbit, element(orbit.algebra, [0.0, 0.0, 0.0]),
                              29, 10_000, scale=const)
    assert est.mean == const and est.stderr == 0.0
    limit = fourier_value(
        orbit, element(orbit.algebra, [2.0 ** -20, 0.0, 0.0])
    ).value
    assert abs(limit - const) <= 1e-10 * abs(const)


@pytest.mark.parametrize("n", range(2, 10))
def test_liouville_const_is_the_zero_limit_of_det_m_over_v(n):
    # det M / V at ev = t h, t -> 0, in mpmath: det M vanishes to order
    # t^m, so about 16 m digits cancel at t = 1e-16 and 30 + 17 m digits
    # leave more than 30.  The O(t) term sits far below the 1e-12 gate.
    weight = np.random.default_rng(n).uniform(0.4, 1.6, n - 1)
    orbit = make_orbit(build_algebra("su", n), weight)
    m = n * (n - 1) // 2
    with mp.workdps(30 + 17 * m):
        t = mp.mpf(10) ** -16
        ev = [t * (n - 1 - 2 * i) / 2 for i in range(n)]
        zeta = [mp.mpf(float(z)) for z in orbit.zeta]
        s = -2 * n
        det = mp.det(mp.matrix([[mp.exp(s * e * z) for z in zeta] for e in ev]))
        vander = mp.fprod(ev[j] - ev[i] for i in range(n) for j in range(i + 1, n))
        limit = det / vander
        const = _liouville_const(orbit)
        assert const.imag == 0.0
        assert abs(const.real - limit) <= 1e-12 * abs(limit)


@pytest.mark.parametrize("n", range(2, 10))
def test_liouville_const_imaginary_part_is_positive_zero(n):
    # s^m alone would make it -0.0 wherever m = n(n-1)/2 is odd.
    weight = np.random.default_rng(n).uniform(0.4, 1.6, n - 1)
    const = _liouville_const(make_orbit(build_algebra("su", n), weight))
    assert math.copysign(1.0, const.imag) == 1.0 and const.imag == 0.0


@pytest.mark.parametrize("n, weight, const", [
    (2, [1.0], 8.0),
    (3, [0.9, 0.4], 19.656),
])
def test_liouville_const_pinned_values(n, weight, const):
    got = _liouville_const(make_orbit(build_algebra("su", n), weight))
    assert got == pytest.approx(const, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n, weight, x0, seed", [
    (2, [1.0], [0.6, 0.2, -0.3], 3),
    (2, [0.6], [0.3, -0.5, 0.4], 4),
    (3, [0.9, 0.4], [0.2, -0.1, 0.3, 0.1, -0.2, 0.15, 0.05, -0.1], 2),
    (3, [1.2, 0.5], [-0.15, 0.25, 0.1, -0.3, 0.2, 0.05, -0.1, 0.2], 5),
])
def test_monte_carlo_calibration_agrees_with_the_closed_form(n, weight, x0,
                                                            seed):
    orbit = make_orbit(build_algebra("su", n), weight)
    estimate, sigma = mc_liouville_const(orbit, x0, seed, 100_000)
    assert abs(estimate - _liouville_const(orbit)) <= 3.0 * sigma


def test_liouville_const_refuses_an_unrepresentable_volume():
    # The weight is finite but V(zeta) overflows.
    orbit = make_orbit(build_algebra("su", 3), [1e120, 3e120])
    with pytest.raises(CalibrationError):
        _liouville_const(orbit)


def test_mc_matches_formula_small_run():
    orbit = su2_orbit()
    const = _liouville_const(orbit)
    shared = haar_orbit_sample(orbit, seed=43, count=100_000)
    misses = 0
    for _ in range(10):
        x = element(orbit.algebra, RNG.standard_normal(3) * 0.7)
        est = mc_fourier_integral(orbit, x, 0, 0, scale=const, samples=shared)
        fv = fourier_value(orbit, x).value
        if abs(est.mean - fv) > 3.0 * est.stderr:
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
    signs = {calibrate(orbit, x).sign for _ in range(3)}
    assert signs == {-1}


def test_damped_integral_schedule_validation():
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.6, 0.0, 0.0])
    with pytest.raises(AlgebraError):
        damped_oscillatory_integral(orbit, x, (0.05, 0.1))
    with pytest.raises(AlgebraError):
        damped_oscillatory_integral(orbit, x, ())


@pytest.mark.parametrize("eps", [
    (float("nan"),), (0.2, float("nan"), 0.05), (float("inf"), 0.1),
], ids=["nan", "nan-inside", "inf-first"])
def test_damped_integral_refuses_non_finite_schedule(eps):
    # NaN fails both order comparisons, so it needs its own refusal.
    orbit = sl2_orbit()
    x = element(orbit.algebra, [0.6, 0.0, 0.0])
    with pytest.raises(AlgebraError,
                       match="damping schedule must decrease to a positive value"):
        damped_oscillatory_integral(orbit, x, eps)


@pytest.mark.parametrize("coords, eps", [
    ([1e30, 0.0, 0.0], (0.2, 0.1, 0.05)),
    ([0.6, 0.0, 0.0], (1e-300,)),
], ids=["far-point", "tiny-eps"])
def test_damped_integral_refuses_mesh_above_cap(coords, eps):
    # 9e33 and 1e155 nodes: both refused before any block is summed.
    orbit = sl2_orbit()
    x = element(orbit.algebra, coords)
    with pytest.raises(AlgebraError, match="Simpson nodes; the cap is 4,194,304"):
        damped_oscillatory_integral(orbit, x, eps)
    with pytest.raises(AlgebraError, match="the cap"):
        damped_oscillatory_integral(orbit, element(orbit.algebra, [0.6, 0, 0]),
                                    (0.05,), s_nodes=oracle._MAX_S_NODES)


def test_richardson_recovers_power_law():
    eps = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    vals = 3.7 + 1.9 * eps ** 0.9
    limit, order = richardson_extrapolate(tuple(eps), tuple(vals))
    assert limit == pytest.approx(3.7, abs=2e-3)
    assert order == pytest.approx(0.9, abs=0.05)
