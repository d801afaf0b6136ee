"""Named verification suites behind the command-line ``verify`` command.

Each suite re-measures the structural invariants of one module and reports
(name, residual, threshold, pass/fail) rows.  Thresholds are fixed here,
not configurable: they are the acceptance contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry_sl2 as geo
from .algebra import (
    AlgebraError,
    AlgebraSpec,
    adjoint_matrix,
    bracket,
    build_algebra,
    element,
    element_from_matrix,
    iwasawa_decomposition,
    reduce_to_cartan,
    standard_spectrum,
)
from .fixedpoints import _multiplicities, split_positive_system
from .localize import (
    OrbitSpec,
    casimir_check,
    fourier_value,
    invariance_checks,
    make_orbit,
    random_group_element,
    standard_cartan,
)
from .oracle import (
    calibrate,
    damped_oscillatory_integral,
    haar_orbit_sample,
    kks_density_bruteforce,
    mc_fourier_integral,
    split_orbit_carrier,
    split_orbit_liouville_density,
)

__all__ = ["CheckResult", "SuiteSettings", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("algebra", "fixedpoints", "localize", "geometry", "oracle")


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SuiteSettings:
    family: str
    n: int
    weight: tuple[float, ...]
    mode: Optional[str] = None
    s0: int = 1
    seed: int = 20240801
    mc_samples: int = 200_000
    eps_schedule: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    sweep: int = 20
    user_multiplicities: Optional[dict] = None


def _check(name: str, residual: float, threshold: float) -> CheckResult:
    return CheckResult(
        name=name,
        residual=float(residual),
        threshold=float(threshold),
        passed=bool(residual <= threshold),
    )


def _orbit(st: SuiteSettings) -> OrbitSpec:
    spec = build_algebra(st.family, st.n)
    return make_orbit(spec, st.weight, mode=st.mode, s0=st.s0,
                      user_multiplicities=st.user_multiplicities)


def _root_gaps(ev: np.ndarray) -> np.ndarray:
    """|alpha(x)| over the roots, from the standard-Cartan spectrum of x."""
    i, j = np.triu_indices(len(ev), 1)
    return np.abs(ev[i] - ev[j])


def _random_regular(spec: AlgebraSpec, rng: np.random.Generator,
                    split_only: bool = False):
    """Gaussian ambient coordinates, filtered to the regular (split) set."""
    for _ in range(400):
        x = element(spec, rng.standard_normal(spec.dim) * 0.7)
        try:
            ev = standard_spectrum(x)
        except AlgebraError:
            continue
        if ev is None:
            if split_only:
                continue
            return x
        vals = _root_gaps(ev)
        if vals.min() > 0.15 and vals.max() < 40.0:
            return x
    raise RuntimeError("failed to sample a usable regular element")


def _casimir_point(orbit: OrbitSpec, rng: np.random.Generator):
    """Regular point where the relative residual is finite-difference testable.

    Excludes near-zeros of the transform (the pointwise-relative residual
    divides by |F|) and, for the split form, points too close to the cone,
    where the transform has a genuine pole and the fourth derivative
    escapes the h^2 error budget.
    """
    spec = orbit.algebra
    split = spec.family == "sl_real"
    if split:
        # Largest achievable gap-to-norm ratio: equally spaced spectrum.
        peak = 1.0 / np.sqrt((spec.n ** 3 - spec.n) / 12.0)
        gap_min, ratio_min, cancel_min = 0.7, 0.93 * peak, 0.15
    else:
        gap_min, ratio_min, cancel_min = 0.5, 0.0, 0.1
    for _ in range(5000):
        x = element(spec, rng.standard_normal(spec.dim) * 0.7)
        try:
            ev = standard_spectrum(x)
        except AlgebraError:
            continue
        if ev is None:
            continue
        vals = _root_gaps(ev)
        gap = float(vals.min())
        if gap < gap_min or vals.max() > 40.0:
            continue
        if ratio_min and gap / float(np.linalg.norm(x.matrix)) < ratio_min:
            continue
        res = fourier_value(orbit, x)
        if abs(res.value) < cancel_min * sum(abs(t.value) for t in res.terms):
            continue
        return x
    raise RuntimeError("failed to sample a casimir-testable point")


# ---------------------------------------------------------------------------

def _algebra_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed))
    spec = build_algebra(st.family, st.n)
    # First, so that an algebra whose Weyl table is refused is refused
    # before the dim^4 checks below are allocated.
    cart = standard_cartan(spec)
    out = []

    # Structure tensor [e_i, e_j] = sum_k c[i,j,k] e_k, only for these checks.
    units = [element(spec, row) for row in np.eye(spec.dim)]
    c = np.array([[bracket(u, v).coords for v in units] for u in units])
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    out.append(_check("jacobi identity (all basis triples)",
                      np.max(np.abs(jac)), 1e-12))
    inv = np.einsum("zxm,my->zxy", c, spec.killing) \
        + np.einsum("zym,xm->zxy", c, spec.killing)
    out.append(_check("killing invariance (all basis triples)",
                      np.max(np.abs(inv)), 1e-10))

    out.append(_check("root count = dim - rank",
                      abs(len(cart.roots) - (spec.dim - spec.rank)), 0.5))
    x = _random_regular(spec, rng)
    ad = adjoint_matrix(x)
    kernel = np.sum(np.abs(np.linalg.eigvals(ad)) < 1e-6 * max(1.0, np.max(np.abs(ad))))
    out.append(_check("ad kernel of a regular element = rank",
                      abs(int(kernel) - spec.rank), 0.5))

    mats = {tuple(np.round(w.matrix, 6).ravel()) for w in cart.weyl}
    closure = 0.0
    for w1 in cart.weyl:
        for w2 in cart.weyl:
            if tuple(np.round(w1.matrix @ w2.matrix, 6).ravel()) not in mats:
                closure = 1.0
    out.append(_check("weyl closure under composition", closure, 0.5))
    perm = 0.0
    root_keys = {tuple(np.round(r, 6)) for r in cart.roots}
    for w in cart.weyl:
        for r in cart.roots:
            if tuple(np.round(w.apply(r), 6)) not in root_keys:
                perm = 1.0
    out.append(_check("weyl elements permute the root set", perm, 0.5))

    iw = iwasawa_decomposition(spec)
    dim_sum = len(iw.k_basis) + len(iw.a_basis) + len(iw.n_basis)
    out.append(_check("iwasawa dimension identity",
                      abs(dim_sum - spec.dim), 0.5))
    # Lower central series of n terminates at zero.
    series = list(iw.n_basis)
    depth = 0
    while series and depth < spec.n + 1:
        nxt = []
        for u in iw.n_basis:
            for v in series:
                w = bracket(u, v)
                if np.max(np.abs(w.coords)) > 1e-12:
                    nxt.append(w)
        series = nxt
        depth += 1
    out.append(_check("nilradical lower central series terminates",
                      float(len(series)), 0.5))

    worst_rt = 0.0
    worst_comm = 0.0
    for _ in range(st.sweep):
        x = _random_regular(spec, rng, split_only=(st.family == "sl_real"))
        red = reduce_to_cartan(x, cart)
        g = red.group_element
        ad_moved = g @ x.matrix @ np.linalg.inv(g)
        worst_rt = max(worst_rt, float(np.max(np.abs(ad_moved - red.reduced.matrix))))
        for h in cart.basis:
            worst_comm = max(
                worst_comm,
                float(np.max(np.abs(bracket(red.reduced, h).coords))),
            )
    out.append(_check("cartan reduction round trip", worst_rt, 1e-10))
    out.append(_check("reduced element commutes with the cartan",
                      worst_comm, 1e-9))
    return out


def _fixedpoints_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed + 1))
    orbit = _orbit(st)
    cart = orbit.cartan
    out = []
    out.append(_check("fixed point count = weyl order",
                      abs(len(orbit.fixed_points) - len(cart.weyl)), 0.5))

    union_ok = 0.0
    closure_ok = 0.0
    root_keys = {tuple(np.round(r, 6)): i for i, r in enumerate(cart.roots)}
    for fp in orbit.fixed_points:
        listed = set(fp.borel_roots)
        negs = {
            root_keys[tuple(np.round(-cart.roots[r], 6))] for r in listed
        }
        if listed | negs != set(range(len(cart.roots))) or listed & negs:
            union_ok = 1.0
        for r1 in listed:
            for r2 in listed:
                key = tuple(np.round(cart.roots[r1] + cart.roots[r2], 6))
                if key in root_keys and root_keys[key] not in listed:
                    closure_ok = 1.0
    out.append(_check("borel roots + negatives tile the root set", union_ok, 0.5))
    out.append(_check("borel roots closed under addition", closure_ok, 0.5))

    base = next(fp for fp in orbit.fixed_points if fp.weyl.label == "e")
    neg_set = {root_keys[tuple(np.round(-cart.roots[r], 6))] for r in cart.positive}
    out.append(_check("base borel carries the negative system",
                      0.0 if set(base.borel_roots) == neg_set else 1.0, 0.5))

    # Sign-split conditions on random regular Cartan points.
    bad = 0.0
    for _ in range(st.sweep):
        t = rng.uniform(0.3, 1.5, cart.rank) * rng.choice([-1.0, 1.0], cart.rank)
        t = t.astype(complex)
        lower, upper = split_positive_system(cart, t)
        for r in lower:
            if np.real(np.dot(cart.roots[r], t)) >= 0:
                bad = 1.0
        for r in upper:
            if np.real(np.dot(cart.roots[r], t)) <= 0:
                bad = 1.0
        for ra in cart.positive:
            for rb in cart.positive:
                key = tuple(np.round(cart.roots[ra] + cart.roots[rb], 6))
                if key not in root_keys:
                    continue
                rc = root_keys[key]
                if ra in lower and rb in lower and rc not in lower:
                    bad = 1.0
                if ra in upper and rb in upper and rc not in upper:
                    bad = 1.0
    out.append(_check("sign-split subsets satisfy both conditions", bad, 0.5))

    mults = orbit._multiplicities
    if orbit.mode == "compact":
        out.append(_check("compact multiplicities identically one",
                          0.0 if (mults == 1).all() else 1.0, 0.5))
    elif orbit.mode == "maximally_split":
        flipped = _multiplicities(None, orbit.cartan._table.signs, orbit.mode,
                                  -orbit.s0, None)
        out.append(_check("global sign flip negates multiplicities",
                          float(np.abs(flipped + mults).max()), 0.5))
        off = [not fp.in_closed_orbit for fp in orbit.fixed_points]
        out.append(_check("multiplicities vanish off the closed orbit",
                          0.0 if (mults[off] == 0).all() else 1.0, 0.5))
    else:
        out.append(_check("user multiplicities are integral",
                          0.0 if mults.dtype == np.int64 else 1.0, 0.5))
    return out


def _localize_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed + 2))
    orbit = _orbit(st)
    spec = orbit.algebra
    split_only = spec.family == "sl_real"
    out = []

    worst = 0.0
    for _ in range(st.sweep):
        x = _random_regular(spec, rng, split_only=split_only)
        g = random_group_element(spec, rng)
        rep = invariance_checks(orbit, x, g)
        if not rep.flagged:
            worst = max(worst, rep.ad_difference)
        if rep.weyl_differences:
            worst = max(worst, max(rep.weyl_differences.values()))
    out.append(_check("ad and weyl invariance of the transform", worst, 1e-9))

    worst = 0.0
    for _ in range(st.sweep):
        x = _casimir_point(orbit, rng)
        res = casimir_check(orbit, x, step=1e-3)
        worst = max(worst, res.residual)
    out.append(_check("quadratic invariant eigenvalue identity", worst, 1e-4))

    if spec.family == "su" and spec.n == 2:
        vals = [
            fourier_value(orbit, element(spec, [2.0 ** -k, 0.0, 0.0])).value
            for k in range(0, 21)
        ]
        bound = max(abs(v) for v in vals)
        tail = max(abs(vals[k] - vals[k + 1]) for k in range(15, 20))
        out.append(_check("bounded through the origin (dyadic schedule)",
                          0.0 if np.isfinite(bound) else 1.0, 0.5))
        out.append(_check("cauchy tail at the origin", tail, 1e-6))

    if split_only:
        worst_im = 0.0
        for _ in range(st.sweep):
            x = _random_regular(spec, rng, split_only=True)
            worst_im = max(worst_im, abs(fourier_value(orbit, x).value.imag))
        if spec.n == 2:
            out.append(_check("split-set values are real", worst_im, 1e-12))
        zero = 0.0
        if spec.n == 2:
            for _ in range(st.sweep):
                theta = rng.uniform(0.3, 2.0)
                g = random_group_element(spec, rng)
                m = theta * np.array([[0.0, 1.0], [-1.0, 0.0]])
                x = element_from_matrix(spec, g @ m @ np.linalg.inv(g))
                zero = max(zero, abs(fourier_value(orbit, x).value))
            out.append(_check("vanishing off the split class (exact)", zero, 0.0))
        if orbit.mode == "maximally_split":
            flipped = make_orbit(spec, st.weight, mode=orbit.mode, s0=-orbit.s0)
            x = _random_regular(spec, rng, split_only=True)
            covariance = abs(
                fourier_value(flipped, x).value + fourier_value(orbit, x).value
            )
            out.append(_check("global sign flip negates the transform",
                              covariance, 1e-12))
    return out


def _oracle_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed + 3))
    orbit = _orbit(st)
    spec = orbit.algebra
    out = []

    if spec.family == "su":
        samples = haar_orbit_sample(orbit, st.seed, min(st.mc_samples, 4000))
        target = np.sort(np.linalg.eigvalsh(1j * orbit.dual_element.matrix))
        drift = 0.0
        for row in samples.coords[:2000]:
            got = np.sort(np.linalg.eigvalsh(1j * element(spec, row).matrix))
            drift = max(drift, float(np.max(np.abs(got - target))))
        out.append(_check("samples stay on the orbit (eigenvalues)", drift, 1e-10))

        x_ref = _random_regular(spec, rng)
        counts = [st.mc_samples // 8, st.mc_samples // 4,
                  st.mc_samples // 2, st.mc_samples]
        runs = [mc_fourier_integral(orbit, x_ref, st.seed + 9, c)
                for c in counts]
        errs = [r.stderr for r in runs]
        monotone = all(
            errs[i + 1] < 2.0 * errs[i] / np.sqrt(2.0) for i in range(3)
        )
        out.append(_check("standard error decays along dyadic sample counts",
                          0.0 if monotone else 1.0, 0.5))
        consistent = all(
            abs(a.mean - b.mean) <= 3.0 * np.hypot(a.stderr, b.stderr)
            for a in runs for b in runs
        )
        out.append(_check("dyadic-count means are mutually consistent",
                          0.0 if consistent else 1.0, 0.5))

        cal = calibrate(orbit, x_ref, st.seed + 17, st.mc_samples)
        shared = haar_orbit_sample(orbit, st.seed + 23, st.mc_samples)
        misses = 0
        for _ in range(20):
            x = _random_regular(spec, rng)
            est = mc_fourier_integral(
                orbit, x, 0, 0, scale=cal.liouville_const, samples=shared
            )
            fv = fourier_value(orbit, x).value
            sigma = np.hypot(
                est.stderr,
                abs(est.mean) * cal.stderr / abs(cal.liouville_const),
            )
            if abs(est.mean - fv) > 3.0 * sigma:
                misses += 1
        out.append(_check("calibrated estimates match (<= 2 of 20 misses)",
                          float(misses), 2.0))

        rerun = haar_orbit_sample(orbit, st.seed, min(st.mc_samples, 4000))
        identical = np.array_equal(samples.coords, rerun.coords)
        out.append(_check("sampling is seed-deterministic",
                          0.0 if identical else 1.0, 0.5))
    else:
        if spec.n != 2:
            raise AlgebraError(
                "the noncompact oracle suite requires su(n) or sl(2,R)"
            )
        dens = 0.0
        for _ in range(40):
            s, phi = rng.uniform(-2.5, 2.5), rng.uniform(0, 2 * np.pi)
            dens = max(dens, abs(
                kks_density_bruteforce(orbit, s, phi)
                - float(split_orbit_liouville_density(orbit.weight[0], s))
            ))
        out.append(_check("orbit measure matches the bracket computation",
                          dens, 1e-8))

        x = _random_regular(spec, rng, split_only=True)
        seq = damped_oscillatory_integral(orbit, x, st.eps_schedule)
        half = damped_oscillatory_integral(
            orbit, x, st.eps_schedule[-1:], s_nodes=2001
        )
        mesh_rel = abs(half.estimates[0] - seq.estimates[-1]) / abs(seq.estimates[-1])
        out.append(_check("quadrature stable under mesh halving", mesh_rel, 1e-2))
        fv = fourier_value(orbit, x).value
        rel = abs(seq.extrapolated - fv) / max(abs(fv), 1e-12)
        out.append(_check("vanishing-damping limit matches the transform (10%)",
                          rel, 0.10))
        cal = calibrate(orbit, x, st.seed, st.mc_samples)
        out.append(_check("sign calibration reproduces the configured sign",
                          0.0 if cal.sign == orbit.s0 else 1.0, 0.5))
    return out


def _geometry_suite(st: SuiteSettings) -> list[CheckResult]:
    # Each check draws its random numbers as one array whose row k holds
    # what sample k takes, in the order a one-sample loop draws them; with
    # the kernels rounding as the one-point functions do, every residual is
    # that of the one-point loop (tests/test_geometry_kernels.py pins them).
    rng = np.random.Generator(np.random.Philox(key=st.seed + 4))
    radius = 1.0
    lam = 8j * radius
    out = []

    def pairs(r):
        return r[:, 0:2] + 1j * r[:, 2:4]

    r = rng.standard_normal((400, 6))
    v, chart = geo._flags(pairs(r))
    m = geo._carriers(geo._moments(v, chart, r[:, 4] + 1j * r[:, 5]))
    worst = max(0.0, np.max(geo._hypot(np.linalg.det(m))),
                np.max(geo._hypot(np.trace(m, axis1=1, axis2=2))))
    out.append(_check("moment lands in the nilpotent cone", worst, 1e-10))

    r = rng.standard_normal((200, 12))
    zg = r[:, 0:4].reshape(-1, 2, 2) + 1j * r[:, 4:8].reshape(-1, 2, 2)
    q, rq = np.linalg.qr(zg)
    d = np.diagonal(rq, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    u = q / np.sqrt(np.linalg.det(q))[:, None, None]
    v, _ = geo._flags(pairs(r[:, 8:12]))
    moved, _ = geo._flags((u @ v[:, :, None])[:, :, 0])
    lhs = geo._carriers(geo._weights(moved, lam))
    rhs = u @ geo._carriers(geo._weights(v, lam)) @ np.conj(np.swapaxes(u, 1, 2))
    worst = max(0.0, float(np.max(np.abs(lhs - rhs))))
    out.append(_check("transported parameter is compactly equivariant",
                      worst, 1e-10))

    r = rng.standard_normal((1000, 6))
    v, chart = geo._flags(pairs(r))
    component = r[:, 4] + 1j * r[:, 5]
    nu = geo._moments(v, chart, component) + geo._weights(v, lam)
    v2, _, component2 = geo._inverse(geo._carriers(nu), lam)
    worst = max(0.0, np.max(geo._norms(v2 - v)),
                np.max(geo._hypot(component2 - component)))
    out.append(_check("twisted moment round trip", worst, 1e-9))

    # Row k holds the (s, phi) angles that sample k draws.
    angles = rng.uniform((-3.0, 0.0), (3.0, 2.0 * np.pi), (10_000, 2))
    samples = 1j * split_orbit_carrier(radius, angles[:, 0], angles[:, 1])
    rep = geo.orbit_image_check(lam, samples)
    out.append(_check("projected orbit lies on the real line",
                      rep.max_base_defect, 1e-9))
    out.append(_check("moment real part within the compact bound",
                      max(0.0, rep.max_real_part - rep.real_part_bound), 1e-9))

    fib = geo.fiber_structure_check(
        lam, element(geo.model_algebra(), samples[0]),
        [0.0, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0]
    )
    out.append(_check("nilradical translations stay on the orbit",
                      float(fib.invariant_drift.max()), 1e-8))
    out.append(_check("fiber offsets are purely conormal",
                      float(fib.conormal_defect.max()), 1e-8))
    out.append(_check("conormal dimension count",
                      abs(fib.conormal_dim - (fib.flag_dim - fib.orbit_dim)), 0.5))

    sched = tuple(2.0 ** (-k) for k in range(0, 21))
    sc = geo.cycle_scaling_limit(lam, sched, samples[:200])
    out.append(_check("unit scale is the identity",
                      0.0 if sc.identity_at_one else 1.0, 0.5))
    out.append(_check("scaling defects at 2^-20",
                      max(float(sc.base_defects[-1]), float(sc.moment_defects[-1])),
                      1e-5))
    rate_ok = sc.at_floor or abs(sc.slope - 1.0) < 0.25
    out.append(_check("moment defect scales linearly (or at floor)",
                      0.0 if rate_ok else 1.0, 0.5))
    return out


def run_suite(name: str, settings: SuiteSettings) -> list[CheckResult]:
    runners = {
        "algebra": _algebra_suite,
        "fixedpoints": _fixedpoints_suite,
        "localize": _localize_suite,
        "geometry": _geometry_suite,
        "oracle": _oracle_suite,
    }
    if name == "all":
        out = []
        for key in SUITE_NAMES:
            if (key == "oracle" and settings.family == "sl_real"
                    and settings.n != 2):
                out.append(CheckResult(
                    "oracle: skipped (noncompact oracle covers sl(2,R) only)",
                    0.0, 0.5, True,
                ))
                continue
            out.extend(
                CheckResult(f"{key}: {c.name}", c.residual, c.threshold, c.passed)
                for c in runners[key](settings)
            )
        return out
    if name not in runners:
        raise KeyError(name)
    return runners[name](settings)
