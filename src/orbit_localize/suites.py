"""Named verification suites behind the command-line ``verify`` command.

Each suite re-measures the structural invariants of one module and reports
(name, residual, threshold, pass/fail) rows.  Thresholds are fixed here,
not configurable: they are the acceptance contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry_sl2 as geo
from .algebra import (
    AlgebraError,
    AlgebraSpec,
    _coords,
    _unit,
    _upper_pairs,
    adjoint_matrix,
    bracket,
    build_algebra,
    element,
    element_from_matrix,
    reduce_to_cartan,
    standard_spectrum,
)
from .fixedpoints import RULES, _multiplicities
from .localize import (
    OrbitSpec,
    _closed_form,
    _term_sum,
    casimir_check,
    fourier_grid,
    invariance_checks,
    make_orbit,
    random_group_element,
    standard_cartan,
)
from .oracle import (
    _calibrated_comparison,
    _calibrated_estimates,
    calibrate,
    damped_oscillatory_integral,
    haar_orbit_sample,
    kks_density_bruteforce,
    split_orbit_carrier,
    split_orbit_liouville_density,
)

__all__ = ["CheckResult", "SuiteSettings", "SuiteRefusal", "SUITE_NAMES",
           "run_suite"]

SUITE_NAMES = ("algebra", "fixedpoints", "localize", "geometry", "oracle")

# The suites key Philox streams at seed + 0 .. seed + 4 and seed + 23, and
# Philox keys lie in [0, 2^128).  seed + 9 is not keyed: the oracle suite's
# dyadic rows read prefixes of the seed + 23 pass, which stays the largest
# key and so sets the bound.
MAX_SEED = 2 ** 128 - 24

_SWEEP = 20   # random points per sweep of a check


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    skipped: bool = False   # a check that was not run; it fails nothing


class SuiteRefusal(AlgebraError):
    """A suite of ``run_suite("all")`` refused; ``checks`` holds the rows
    of the suites that ran before it."""

    def __init__(self, error: AlgebraError, checks: list[CheckResult]):
        super().__init__(str(error))
        self.checks = checks


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


def _values(orbit: OrbitSpec, points) -> np.ndarray:
    """Transform values at elements or coordinate rows, as one batch."""
    return np.array([r.value for r in fourier_grid(orbit, points)])


def _draws(spec: AlgebraSpec, rng: np.random.Generator, tries: int):
    """Regular Gaussian ambient points x, one draw each, with |alpha(x)|
    over the roots (None for sl(n,R) points with a non-real spectrum)."""
    i, j = _upper_pairs(spec.n)
    for _ in range(tries):
        x = element(spec, rng.standard_normal(spec.dim) * 0.7)
        try:
            ev = standard_spectrum(x)
        except AlgebraError:
            continue
        yield x, None if ev is None else np.abs(ev[i] - ev[j])


def _random_regular(spec: AlgebraSpec, rng: np.random.Generator,
                    split_only: bool = False):
    """Gaussian ambient coordinates, filtered to the regular (split) set.

    If no draw passes, the refusal names the first filter that none of
    them passed.
    """
    real = False   # some draw had a real spectrum
    tries = 400
    for x, vals in _draws(spec, rng, tries):
        if vals is None:
            if split_only:
                continue
            return x
        real = True
        if vals.min() > 0.15 and vals.max() < 40.0:
            return x
    failed = "root gap in (0.15, 40)" if real else "real spectrum"
    raise AlgebraError(
        f"no usable regular point in {tries} draws: none passed the "
        f"{failed} filter"
    )


def _casimir_point(orbit: OrbitSpec, rng: np.random.Generator):
    """Regular point where the relative residual is finite-difference testable.

    Excludes near-zeros of the transform (the pointwise-relative residual
    divides by |F|) and, for the split form, points too close to the cone,
    where the transform has a genuine pole and the fourth derivative
    escapes the h^2 error budget.  If no draw passes, the refusal names
    the first filter that none of them passed.
    """
    spec = orbit.algebra
    split = spec.family == "sl_real"
    if split:
        # Largest achievable gap-to-norm ratio: equally spaced spectrum.
        peak = 1.0 / np.sqrt((spec.n ** 3 - spec.n) / 12.0)
        gap_min, ratio_min, cancel_min = 0.7, 0.93 * peak, 0.15
    else:
        gap_min, ratio_min, cancel_min = 0.5, 0.0, 0.1
    filters = ("real spectrum", f"root gap in [{gap_min}, 40]",
               f"gap-to-norm ratio >= {ratio_min:.3f}",
               f"|F| >= {cancel_min} sum |terms|")
    passed = 0   # filters that some draw passed
    tries = 5000
    for x, vals in _draws(spec, rng, tries):
        if vals is None:
            continue
        passed = max(passed, 1)
        gap = float(vals.min())
        if gap < gap_min or vals.max() > 40.0:
            continue
        passed = max(passed, 2)
        if ratio_min and gap / float(np.linalg.norm(x.matrix)) < ratio_min:
            continue
        passed = max(passed, 3)
        res = fourier_grid(orbit, [x])[0]
        if abs(res.value) < cancel_min * sum(abs(t.value) for t in res.terms):
            continue
        return x
    raise AlgebraError(
        f"no casimir-testable point in {tries} draws: none passed the "
        f"{filters[passed]} filter"
    )


# ---------------------------------------------------------------------------

def _algebra_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed))
    spec = build_algebra(st.family, st.n)
    # First, so that an algebra whose Weyl table is refused is refused
    # before the dim^4 checks below are allocated.
    cart = standard_cartan(spec)
    out = []

    # Structure tensor [e_i, e_j] = sum_k c[i,j,k] e_k, only for these
    # checks, read off the commutators of the basis.
    basis = spec.basis
    c = _coords(spec, basis[:, None] @ basis - basis @ basis[:, None]).real
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

    # The Weyl group as permutations: row w of the table is w^-1, which
    # maps the root (i, j) = e_i - e_j to (w^-1 i, w^-1 j).  A permutation
    # is keyed by its digits base n.  Rows that are n! distinct
    # permutations are all of S_n, which is closed under composition.
    n = spec.n
    pos = cart._table.pos
    keys = pos @ n ** np.arange(n)
    closed = ((np.sort(pos, axis=1) == np.arange(n)).all()
              and len(np.unique(keys)) == math.factorial(n))
    out.append(_check("weyl closure under composition", 0.0 if closed else 1.0, 0.5))
    i, j = np.array(cart.root_pairs).T
    moved = np.isin(pos[:, i] * n + pos[:, j], i * n + j).all()
    out.append(_check("weyl elements permute the root set", 0.0 if moved else 1.0, 0.5))

    # Iwasawa g = k + a + n.  For sl(n,R), k is spanned by the E_ij - E_ji
    # (i < j), a by the diagonal differences h_k and n by the negative root
    # vectors E_ij (i > j); su(n) is all k.
    h = [_unit(n, c, c) - _unit(n, c + 1, c + 1) for c in range(n - 1)]
    lower = [(r, c) for r, c in cart.root_pairs if r > c]
    if spec.family == "su":
        k, a, nil = spec.basis, [], []
    else:
        k = [_unit(n, c, r) - _unit(n, r, c) for r, c in lower]
        a = h
        nil = [element_from_matrix(spec, _unit(n, r, c)) for r, c in lower]
    out.append(_check("iwasawa dimension identity",
                      abs(len(k) + len(a) + len(nil) - spec.dim), 0.5))
    # Lower central series of n terminates at zero.
    series = list(nil)
    depth = 0
    while series and depth < n + 1:
        nxt = []
        for u in nil:
            for v in series:
                w = bracket(u, v)
                if np.max(np.abs(w.coords)) > 1e-12:
                    nxt.append(w)
        series = nxt
        depth += 1
    out.append(_check("nilradical lower central series terminates",
                      float(len(series)), 0.5))

    hs = [element_from_matrix(spec, m) for m in h]
    worst_rt = 0.0
    worst_comm = 0.0
    for _ in range(_SWEEP):
        x = _random_regular(spec, rng, split_only=(st.family == "sl_real"))
        red = reduce_to_cartan(x, cart)
        g = red.group_element
        ad_moved = g @ x.matrix @ np.linalg.inv(g)
        worst_rt = max(worst_rt, float(np.max(np.abs(ad_moved - red.reduced.matrix))))
        for h in hs:
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
    # The fixed points are the rows of the S_n table: n! distinct
    # permutations of 0 .. n-1.  Each missing, extra, repeated or
    # non-permutation row adds one to the residual.
    n = orbit.algebra.n
    pos = cart._table.pos
    perms = pos[(np.sort(pos, axis=1) == np.arange(n)).all(axis=1)]
    distinct = len(np.unique(perms @ n ** np.arange(n, dtype=np.int64)))
    out.append(_check("fixed point count = weyl order",
                      abs(len(pos) - math.factorial(n)) + len(pos) - distinct,
                      0.5))

    # Root e_i - e_j as the index pair (i, j): its negative is (j, i), and
    # a sum of two roots is a root only as (i, j) + (j, k) = (i, k).  The
    # Borel of w carries the w-images (w i, w j), i > j, of the negative
    # roots, so with pos = w^-1 it holds (i, j) exactly when pos_i > pos_j.
    borel = pos[:, :, None] > pos[:, None, :]
    negated = borel.transpose(0, 2, 1)
    tiled = (((borel | negated) == ~np.eye(n, dtype=bool)).all()
             and not (borel & negated).any())
    out.append(_check("borel roots + negatives tile the root set",
                      0.0 if tiled else 1.0, 0.5))
    out.append(_check("borel roots closed under addition",
                      0.0 if _closed(borel) else 1.0, 0.5))
    base = borel[(pos == np.arange(n)).all(axis=1)]
    negative = np.tri(n, k=-1, dtype=bool)[None]
    out.append(_check("base borel carries the negative system",
                      0.0 if np.array_equal(base, negative) else 1.0, 0.5))

    # Sign-split conditions on random regular Cartan points x = sum t_k h_k,
    # whose diagonal is d_i = t_i - t_(i-1): each positive root (i, j),
    # i < j, goes by the sign of alpha(x) = d_i - d_j, and both parts must
    # be closed under addition.
    i, j = np.triu_indices(n, 1)
    bad = 0.0
    for _ in range(_SWEEP):
        t = rng.uniform(0.3, 1.5, cart.rank) * rng.choice([-1.0, 1.0], cart.rank)
        d = np.append(t, 0.0) - np.append(0.0, t)
        values = d[i] - d[j]
        tol = 1e-12 * np.abs(values).max()
        for sign in (-1.0, 1.0):
            part = np.zeros((1, n, n), dtype=bool)
            part[0, i, j] = sign * values > tol
            if not _closed(part):
                bad = 1.0
    out.append(_check("sign-split subsets satisfy both conditions", bad, 0.5))

    mults = orbit._multiplicities
    if orbit.mode == "maximally_split":
        flipped = _multiplicities(None, orbit.cartan._table.signs, orbit.mode,
                                  -orbit.s0, None)
        out.append(_check("global sign flip negates multiplicities",
                          float(np.abs(flipped + mults).max()), 0.5))
    if orbit.mode in RULES:
        # Both readers of RULES at canonical real-form spectra i t (su) or
        # t (sl), t descending of mean 0, where sum |terms| = n!/|V|.
        t = np.sort(rng.standard_normal((_SWEEP, n)), axis=1)[:, ::-1]
        t = t - t.mean(axis=1, keepdims=True)
        ev = t * 1j if orbit.algebra.family == "su" else t + 0j
        scale = math.factorial(n) / np.abs(np.prod(t[:, j] - t[:, i], axis=1))
        gap = np.abs(_closed_form(orbit, ev) - _term_sum(orbit, ev))
        out.append(_check("closed form equals the sum over the multiplicities",
                          float((gap / scale).max()), 1e-14))
    else:
        out.append(_check("user multiplicities are integral",
                          0.0 if mults.dtype == np.int64 else 1.0, 0.5))
    return out


def _closed(roots: np.ndarray) -> bool:
    """Whether each (m, n, n) root set holds (i, k) with any (i, j) and (j, k)."""
    step = roots.astype(np.uint8)
    return not ((step @ step > 0) & ~roots).any()


def _localize_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed + 2))
    orbit = _orbit(st)
    spec = orbit.algebra
    split_only = spec.family == "sl_real"
    out = []

    worst = 0.0
    for _ in range(_SWEEP):
        x = _random_regular(spec, rng, split_only=split_only)
        g = random_group_element(spec, rng)
        rep = invariance_checks(orbit, x, g)
        if not rep.flagged:
            worst = max(worst, rep.ad_difference)
        if rep.weyl_differences:
            worst = max(worst, max(rep.weyl_differences.values()))
    out.append(_check("ad and weyl invariance of the transform", worst, 1e-9))

    worst = 0.0
    for _ in range(_SWEEP):
        x = _casimir_point(orbit, rng)
        res = casimir_check(orbit, x, step=1e-3)
        worst = max(worst, res.residual)
    out.append(_check("quadratic invariant eigenvalue identity", worst, 1e-4))

    if spec.family == "su" and spec.n == 2:
        vals = _values(orbit, np.array([[2.0 ** -k, 0.0, 0.0]
                                        for k in range(0, 21)]))
        bound = max(abs(v) for v in vals)
        tail = max(abs(vals[k] - vals[k + 1]) for k in range(15, 20))
        out.append(_check("bounded through the origin (dyadic schedule)",
                          0.0 if np.isfinite(bound) else 1.0, 0.5))
        out.append(_check("cauchy tail at the origin", tail, 1e-6))

    if split_only:
        # Each batch draws its points in the order a one-point loop does.
        split = [_random_regular(spec, rng, split_only=True)
                 for _ in range(_SWEEP)]
        if spec.n == 2:
            worst_im = np.max(np.abs(_values(orbit, split).imag))
            out.append(_check("split-set values are real", worst_im, 1e-12))
            elliptic = []
            for _ in range(_SWEEP):
                theta = rng.uniform(0.3, 2.0)
                g = random_group_element(spec, rng)
                m = theta * np.array([[0.0, 1.0], [-1.0, 0.0]])
                elliptic.append(
                    element_from_matrix(spec, g @ m @ np.linalg.inv(g)))
            zero = np.max(np.abs(_values(orbit, elliptic)))
            out.append(_check("vanishing off the split class (exact)", zero, 0.0))
        if orbit.mode == "maximally_split":
            flipped = make_orbit(spec, st.weight, mode=orbit.mode, s0=-orbit.s0)
            x = [_random_regular(spec, rng, split_only=True)]
            covariance = abs(_values(flipped, x)[0] + _values(orbit, x)[0])
            out.append(_check("global sign flip negates the transform",
                              covariance, 1e-12))
    return out


def _oracle_suite(st: SuiteSettings) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(key=st.seed + 3))
    orbit = _orbit(st)
    spec = orbit.algebra
    out = []

    if spec.family == "su":
        if st.mc_samples < 8:
            raise AlgebraError(
                f"the su(n) oracle suite needs oracle.samples >= 8 for its "
                f"dyadic counts N/8, N/4, N/2; got {st.mc_samples}"
            )
        samples = haar_orbit_sample(orbit, st.seed, min(st.mc_samples, 4000))
        target = np.sort(np.linalg.eigvalsh(1j * orbit.dual_element.matrix))
        n = spec.n
        carriers = samples.coords[:2000] @ spec.basis.reshape(spec.dim, n * n)
        got = np.linalg.eigvalsh(1j * carriers.reshape(-1, n, n))   # ascending
        drift = float(np.max(np.abs(got - target), initial=0.0))
        out.append(_check("samples stay on the orbit (eigenvalues)", drift, 1e-10))

        # One pass values the dyadic reference x_ref and the 20 comparison
        # points; the dyadic rows read x_ref at nested prefixes of it.
        x_ref = _random_regular(spec, rng)
        coords = np.array([x_ref.coords] + [_random_regular(spec, rng).coords
                                            for _ in range(20)])
        dyadic = [st.mc_samples // 8, st.mc_samples // 4, st.mc_samples // 2]
        ests = _calibrated_estimates(orbit, coords, st.seed + 23,
                                     st.mc_samples, prefixes=[dyadic])
        runs, ests = ests[:4], ests[4:]
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

        verdicts = _calibrated_comparison(ests, _values(orbit, coords[1:]))[2]
        out.append(_check("calibrated estimates match (<= 2 of 20 misses)",
                          float(verdicts.count(False)), 2.0))

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
        fv = _values(orbit, [x])[0]
        rel = abs(seq.extrapolated - fv) / max(abs(fv), 1e-12)
        out.append(_check("vanishing-damping limit matches the transform (10%)",
                          rel, 0.10))
        cal = calibrate(orbit, x)
        out.append(_check("sign calibration reproduces the configured sign",
                          0.0 if cal.sign == orbit.s0 else 1.0, 0.5))
    return out


def _geometry_suite(st: SuiteSettings) -> list[CheckResult]:
    # Each check draws its random numbers as one array whose row k holds
    # what sample k takes, in the order a one-sample loop draws them, and
    # the kernels value a row as the one-row wrappers do, so every residual
    # is that of a one-sample loop (tests/test_geometry_kernels.py pins them).
    rng = np.random.Generator(np.random.Philox(key=st.seed + 4))
    radius = 1.0
    lam = 8j * radius
    out = []

    def pairs(r):
        return r[:, 0:2] + 1j * r[:, 2:4]

    r = rng.standard_normal((400, 6))
    v, chart = geo._flags(pairs(r))
    m = geo._carriers(geo._moments(v, chart, r[:, 4] + 1j * r[:, 5]))
    worst = max(0.0, np.max(geo._hypot(geo._dets(m))),
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
                    0.0, 0.5, True, skipped=True,
                ))
                continue
            try:
                checks = runners[key](settings)
            except AlgebraError as exc:
                raise SuiteRefusal(exc, out) from exc
            out.extend(
                CheckResult(f"{key}: {c.name}", c.residual, c.threshold, c.passed)
                for c in checks
            )
        return out
    if name not in runners:
        raise KeyError(name)
    return runners[name](settings)
