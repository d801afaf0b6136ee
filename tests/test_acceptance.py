"""Acceptance criteria, one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are fixed here and are not meant to be tuned.
"""

import json
import time

import numpy as np
import pytest

from orbit_localize.algebra import (
    IndeterminateRegularityError,
    build_algebra,
    cartan_coordinates,
    element,
    element_from_matrix,
    is_regular_semisimple,
    reduce_to_cartan,
)
from orbit_localize.cli import main
from orbit_localize.geometry_sl2 import (
    cycle_scaling_limit,
    fiber_structure_check,
    flag_point,
    group_action,
    model_algebra,
    moment,
    orbit_image_check,
    twisted_moment,
    twisted_moment_inverse,
    cotangent_point,
    weight_at,
)
from orbit_localize.localize import (
    casimir_check,
    fourier_value,
    invariance_checks,
    make_orbit,
    random_group_element,
    standard_cartan,
)
from orbit_localize.oracle import (
    _liouville_const,
    haar_orbit_sample,
    mc_fourier_integral,
    split_orbit_carrier,
)

MC_SAMPLES = 1_000_000
RNG = np.random.default_rng(616_101)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_regular(spec, rng, wall_margin=0.15):
    """Gaussian ambient coordinates, filtered to the regular (split) set."""
    cart = standard_cartan(spec)
    for _ in range(500):
        x = element(spec, rng.standard_normal(spec.dim) * 0.7)
        try:
            if not is_regular_semisimple(x):
                continue
        except IndeterminateRegularityError:
            continue
        red = reduce_to_cartan(x, cart)
        if red is None:
            continue
        vals = np.abs(cart.roots @ cartan_coordinates(cart, red.reduced))
        if vals.min() > wall_margin and vals.max() < 40.0:
            return x
    raise RuntimeError("sampling failed")


def random_elliptic_sl2(spec, rng):
    theta = rng.uniform(0.2, 2.5)
    g = random_group_element(spec, rng)
    m = g @ (theta * np.array([[0.0, 1.0], [-1.0, 0.0]])) @ np.linalg.inv(g)
    return element_from_matrix(spec, m)


# --- criterion 1: compact oracle agreement ---------------------------------

@pytest.mark.parametrize("family,n,weight", [
    ("su", 2, (1.0,)),
    ("su", 3, (0.9, 0.4)),
])
def test_criterion_1_compact_oracle_agreement(family, n, weight):
    started = time.perf_counter()
    rng = np.random.default_rng(1000 + n)
    spec = build_algebra(family, n)
    orbit = make_orbit(spec, weight)
    # The former Monte Carlo calibration point is still drawn, so the 20
    # test points stay the same.
    random_regular(spec, rng)
    const = _liouville_const(orbit)
    shared = haar_orbit_sample(orbit, seed=2024_002, count=MC_SAMPLES)
    misses = 0
    worst = 0.0
    for _ in range(20):
        x = random_regular(spec, rng)
        est = mc_fourier_integral(orbit, x, 0, 0, scale=const, samples=shared)
        fv = fourier_value(orbit, x).value
        pulls = abs(est.mean - fv) / est.stderr
        worst = max(worst, pulls)
        if pulls > 3.0:
            misses += 1
    elapsed = time.perf_counter() - started
    report(
        f"criterion 1 ({family}({n}))",
        misses <= 2 and elapsed <= 300.0,
        f"{misses} misses of 20 at 3 sigma (worst pull {worst:.2f}), "
        f"N={MC_SAMPLES}, {elapsed:.1f}s",
    )


# --- criterion 2: eigendistribution property --------------------------------

def casimir_test_point(orbit, rng, gap_min, ratio_min, cancel_min):
    """Random regular point where the pointwise-relative residual is testable.

    The relative residual divides by |F(X)|, so points where the
    fixed-point terms cancel (zeros of F) are excluded by requiring |F| to
    be a fraction of the term-magnitude sum; the split form additionally
    has a genuine pole on the cone (unlike the compact forms, where the
    wall singularity is removable), so a distance-and-boost window keeps
    the fourth derivative within finite-difference reach at h = 1e-3.
    """
    spec = orbit.algebra
    cart = standard_cartan(spec)
    for _ in range(5000):
        x = element(spec, rng.standard_normal(spec.dim) * 0.7)
        try:
            if not is_regular_semisimple(x):
                continue
        except IndeterminateRegularityError:
            continue
        red = reduce_to_cartan(x, cart)
        if red is None:
            continue
        vals = np.abs(cart.roots @ cartan_coordinates(cart, red.reduced))
        gap = float(vals.min())
        if gap < gap_min or vals.max() > 40.0:
            continue
        if gap / float(np.linalg.norm(x.matrix)) < ratio_min:
            continue
        res = fourier_value(orbit, x)
        if abs(res.value) < cancel_min * sum(abs(t.value) for t in res.terms):
            continue
        return x
    raise RuntimeError("sampling failed")


@pytest.mark.parametrize("family,n,weight,split", [
    ("su", 2, (1.0,), False),
    ("su", 3, (0.9, 0.4), False),
    ("sl_real", 2, (1.0,), True),
])
def test_criterion_2_eigendistribution(family, n, weight, split):
    rng = np.random.default_rng(2000 + n + (100 if split else 0))
    spec = build_algebra(family, n)
    orbit = make_orbit(spec, weight, s0=-1 if split else 1)
    if split:
        window = dict(gap_min=1.0, ratio_min=1.32, cancel_min=0.15)
    else:
        window = dict(gap_min=0.5, ratio_min=0.0, cancel_min=0.1)
    worst = 0.0
    for _ in range(100):
        x = casimir_test_point(orbit, rng, **window)
        res = casimir_check(orbit, x, step=1e-3)
        assert res.relative
        worst = max(worst, res.residual)
    report(
        f"criterion 2 ({family}({n}))",
        worst <= 1e-4,
        f"max relative residual {worst:.3e} over 100 points at h=1e-3",
    )


# --- criterion 3: Ad-invariance ---------------------------------------------

@pytest.mark.parametrize("family,n,weight,split", [
    ("su", 2, (1.0,), False),
    ("su", 3, (0.9, 0.4), False),
    ("sl_real", 2, (1.0,), True),
])
def test_criterion_3_ad_invariance(family, n, weight, split):
    rng = np.random.default_rng(3000 + n + (100 if split else 0))
    spec = build_algebra(family, n)
    orbit = make_orbit(spec, weight, s0=-1 if split else 1)
    worst = 0.0
    used = 0
    while used < 50:
        x = random_regular(spec, rng)
        g = random_group_element(spec, rng)
        rep = invariance_checks(orbit, x, g)
        if rep.flagged:
            continue
        worst = max(worst, rep.ad_difference)
        used += 1
    report(
        f"criterion 3 ({family}({n}))",
        worst <= 1e-9,
        f"max |F(Ad(g)x) - F(x)| = {worst:.3e} over 50 samples",
    )


# --- criterion 4: split-form vanishing and reality ---------------------------

def test_criterion_4_split_vanishing_and_reality():
    rng = np.random.default_rng(4000)
    spec = build_algebra("sl_real", 2)
    orbit = make_orbit(spec, [1.0], s0=-1)

    exact_zero = True
    for _ in range(100):
        res = fourier_value(orbit, random_elliptic_sl2(spec, rng))
        exact_zero &= (res.value == 0 and res.terms == ())

    worst_im = 0.0
    two_exp = True
    for _ in range(100):
        x = random_regular(spec, rng)
        res = fourier_value(orbit, x)
        worst_im = max(worst_im, abs(res.value.imag))
        live = [t for t in res.terms if t.multiplicity != 0]
        two_exp &= (
            len(live) == 2
            and abs(live[0].exponent + live[1].exponent) < 1e-10
            and max(abs(t.exponent.real) for t in live) < 1e-10
        )
    report(
        "criterion 4 (sl(2,R) split mode)",
        exact_zero and worst_im <= 1e-12 and two_exp,
        f"elliptic values exactly zero: {exact_zero}; "
        f"max |Im F| on split set {worst_im:.3e}; "
        f"two-exponential form: {two_exp}",
    )


# --- criterion 5: compact multiplicities and continuity ----------------------

def test_criterion_5_compact_example():
    ones = all(
        set(make_orbit(build_algebra("su", n), w).assignment.values.values())
        == {1}
        for n, w in ((2, (1.0,)), (3, (0.9, 0.4)))
    )
    orbit = make_orbit(build_algebra("su", 2), [1.0])
    vals = [
        fourier_value(orbit, element(orbit.algebra, [2.0 ** -k, 0.0, 0.0])).value
        for k in range(21)
    ]
    bounded = all(np.isfinite(v.real) and np.isfinite(v.imag) for v in vals)
    tail = max(abs(vals[k] - vals[k + 1]) for k in range(15, 20))
    report(
        "criterion 5 (compact example)",
        ones and bounded and tail <= 1e-6,
        f"multiplicities all one: {ones}; bounded through origin: {bounded}; "
        f"dyadic tail increment {tail:.3e}",
    )


# --- criterion 6: geometry suite ---------------------------------------------

def test_criterion_6_geometry():
    rng = np.random.default_rng(6000)
    radius = 1.0
    lam = 8j * radius
    spec = model_algebra()

    def rand_point():
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return flag_point(z[0], z[1])

    nilp = max(
        max(abs(np.linalg.det(m)), abs(np.trace(m)))
        for m in (
            moment(cotangent_point(rand_point(), complex(*rng.standard_normal(2)))).matrix
            for _ in range(500)
        )
    )

    equiv = 0.0
    for _ in range(300):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
        u = q / np.sqrt(np.linalg.det(q))
        x = rand_point()
        lhs = weight_at(group_action(u, x), lam).matrix
        rhs = u @ weight_at(x, lam).matrix @ np.conj(u.T)
        equiv = max(equiv, float(np.max(np.abs(lhs - rhs))))

    rt = 0.0
    for _ in range(1000):
        zt = cotangent_point(rand_point(), complex(*rng.standard_normal(2)))
        back = twisted_moment_inverse(twisted_moment(zt, lam), lam)
        rt = max(rt, float(np.linalg.norm(back.base.vector - zt.base.vector)),
                 abs(back.component - zt.component))

    samples = [
        element(spec, 1j * split_orbit_carrier(radius, s, phi))
        for s, phi in zip(rng.uniform(-3, 3, 10_000),
                          rng.uniform(0, 2 * np.pi, 10_000))
    ]
    image = orbit_image_check(lam, samples)
    bound_ok = image.max_real_part <= image.real_part_bound + 1e-9

    fib = fiber_structure_check(lam, samples[0],
                                [0.0, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0])
    fiber_worst = max(float(fib.invariant_drift.max()),
                      float(fib.base_drift.max()),
                      float(fib.conormal_defect.max()))

    sched = tuple(2.0 ** (-k) for k in range(21))
    sc = cycle_scaling_limit(lam, sched, samples[:200])
    tail_defect = max(float(sc.base_defects[-1]), float(sc.moment_defects[-1]))
    rate_ok = sc.at_floor or abs(sc.slope - 1.0) < 0.25

    ok = (
        nilp <= 1e-10 and equiv <= 1e-10 and rt <= 1e-9
        and image.max_base_defect <= 1e-9 and bound_ok
        and fiber_worst <= 1e-8
        and sc.identity_at_one and tail_defect <= 1e-5 and rate_ok
    )
    report(
        "criterion 6 (geometry)",
        ok,
        f"nilpotency {nilp:.1e}; equivariance {equiv:.1e}; roundtrip {rt:.1e}; "
        f"orbit on real line {image.max_base_defect:.1e}; bound respected: {bound_ok}; "
        f"fiber {fiber_worst:.1e}; scaling tail {tail_defect:.1e} "
        f"(slope {sc.slope:.3f}, at_floor={sc.at_floor})",
    )


# --- criterion 7: determinism -------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    su2 = {
        "algebra": {"family": "su", "n": 2},
        "weight": [1.0],
        "grid": {"axes": [{"start": -1.2, "stop": 1.2, "steps": 5}]},
        "oracle": {"seed": 77, "samples": 20000},
        "output": {"format": "json"},
    }
    sl2 = {
        "algebra": {"family": "sl_real", "n": 2},
        "weight": [1.0],
        "s0": -1,
        "grid": {"axes": [{"start": 0.4, "stop": 1.0, "steps": 3}]},
        "oracle": {"seed": 78, "samples": 20000,
                   "eps_schedule": [0.2, 0.1, 0.05]},
        "output": {"format": "csv"},
    }
    su2_path = tmp_path / "su2.json"
    su2_path.write_text(json.dumps(su2))
    sl2_path = tmp_path / "sl2.json"
    sl2_path.write_text(json.dumps(sl2))

    commands = [
        ("eval", ["eval", "--config", str(su2_path)]),
        ("oracle", ["oracle", "--config", str(su2_path)]),
        ("calibrate", ["calibrate", "--config", str(su2_path)]),
        ("verify", ["verify", "--config", str(su2_path),
                    "--suite", "fixedpoints"]),
        ("cycle-limit", ["cycle-limit", "--config", str(sl2_path)]),
    ]
    mismatched = []
    for name, argv in commands:
        outs = []
        for k in (0, 1):
            out = tmp_path / f"{name}.{k}"
            code = main(argv + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatched.append(name)
    report(
        "criterion 7 (determinism)",
        not mismatched,
        "byte-identical reruns for eval, oracle, calibrate, verify, "
        "cycle-limit" if not mismatched else f"mismatches: {mismatched}",
    )
