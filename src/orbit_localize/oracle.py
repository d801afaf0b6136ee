"""Direct numeric integration over coadjoint orbits.

Two independent routes to the transform, used to validate the fixed-point
evaluator and to pin its calibration constants:

* compact forms: Monte Carlo over the orbit, sampled by conjugating the
  dual Cartan element with Haar-random unitaries (Gram-Schmidt of Ginibre
  matrices, which is their QR factor with the standard phase correction).
* sl(2,R), split parameter: Gaussian-damped integral over the explicit
  one-sheeted hyperboloid carrier orbit, the circle angle in closed form
  (a Bessel function) and the hyperbolic angle by Simpson quadrature, with
  a vanishing-damping schedule and Richardson-style extrapolation.  The
  damping error is linear in eps, so on the default schedule the
  extrapolated limit is good to about 1%.

The Haar average equals the Liouville integral only up to a constant (both
are invariant measures on the orbit), so the compact route carries a
one-point calibration constant; the hyperboloid route needs none, and its
sign fixes the split-mode multiplicity calibration.

Randomness comes from numpy's Philox counter-based generator keyed by the
caller's seed and consumed in a fixed chunk order, so every estimate is a
pure function of (seed, sample count, inputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraError,
    bracket,
    element,
    killing_form,
    standard_spectrum,
)
from .localize import OrbitSpec, fourier_value

__all__ = [
    "CalibrationError",
    "OrbitSamples",
    "McEstimate",
    "CalibrationResult",
    "DampedIntegralResult",
    "haar_orbit_sample",
    "orbit_exponents",
    "mc_fourier_integral",
    "calibrate",
    "split_orbit_carrier",
    "split_orbit_liouville_density",
    "kks_density_bruteforce",
    "damped_oscillatory_integral",
    "richardson_extrapolate",
]

_CHUNK = 1 << 15     # Haar draws per Philox chunk
_S_BLOCK = 1 << 16   # hyperbolic-angle nodes per summed block


class CalibrationError(AlgebraError):
    """Calibration reference unusable (degenerate or consistent with zero)."""


@dataclass(frozen=True, eq=False)
class OrbitSamples:
    """Orbit points, stored as coordinates of their real-form carriers.

    A sampled covector is i times the Killing dual of its carrier row.
    """

    orbit: OrbitSpec
    coords: np.ndarray      # (count, dim) real
    seed: int
    count: int


@dataclass(frozen=True, eq=False)
class McEstimate:
    mean: complex
    stderr: float
    count: int
    seed: int


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    liouville_const: complex
    stderr: float
    sign: int
    seed: int
    count: int


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Orthonormalise the columns of matrices laid out (n, n, count).

    Modified Gram-Schmidt with one re-orthogonalisation pass.  Each column
    keeps a positive real component along its own input column, which is
    the QR factor with the diagonal of R made positive: Haar-distributed
    for Ginibre input (Mezzadri, Notices AMS 54, 2007).
    """
    u = np.empty_like(z)
    for k in range(z.shape[1]):
        v = z[:, k].copy()
        for _ in range(2):
            for j in range(k):
                v -= np.einsum("it,it->t", u[:, j].conj(), v) * u[:, j]
        v /= np.sqrt(np.einsum("it,it->t", v.real, v.real)
                     + np.einsum("it,it->t", v.imag, v.imag))
        u[:, k] = v
    return u


def haar_orbit_sample(orbit: OrbitSpec, seed: int, count: int) -> OrbitSamples:
    """Conjugate the dual Cartan element by Haar-random unitaries.

    Compact form only.  Deterministic in (seed, count): samples are drawn
    in fixed-size chunks from one Philox stream.
    """
    if orbit.algebra.family != "su":
        raise AlgebraError("Haar orbit sampling requires the compact form")
    spec = orbit.algebra
    n = spec.n
    # The carrier is diagonal, so U D U^H = sum_k d_k u_k u_k^H.
    d = np.diagonal(orbit.dual_element.matrix)
    rng = _philox(seed)
    out = np.empty((count, spec.dim))
    done = 0
    while done < count:
        take = min(_CHUNK, count - done)
        z = np.empty((n, n, take), dtype=complex)
        z.real = rng.standard_normal((take, n, n)).transpose(1, 2, 0)
        z.imag = rng.standard_normal((take, n, n)).transpose(1, 2, 0)
        u = _gram_schmidt(z)
        uc = u.conj()
        moved = np.zeros_like(z)
        for k in range(n):
            moved += (d[k] * u[:, k])[:, None] * uc[None, :, k]
        flat = np.concatenate(
            [moved.real.reshape(n * n, take), moved.imag.reshape(n * n, take)]
        )
        out[done:done + take] = (spec._proj @ flat).T
        done += take
    return OrbitSamples(orbit=orbit, coords=out, seed=int(seed), count=count)


def orbit_exponents(samples: OrbitSamples, x: AlgebraElement) -> np.ndarray:
    """<x, zeta> for each sampled covector zeta: purely imaginary values."""
    kx = samples.orbit.algebra.killing @ x.coords
    return 1j * (samples.coords @ kx)


def mc_fourier_integral(orbit: OrbitSpec, x: AlgebraElement, seed: int,
                        count: int, scale: complex = 1.0,
                        samples: Optional[OrbitSamples] = None) -> McEstimate:
    """Monte Carlo average of exp(<x, zeta>) over the orbit, times ``scale``.

    ``scale`` is the Liouville normalization constant from ``calibrate``;
    pass 1 for the raw Haar average.  A precomputed sample set may be
    supplied to share sampling cost across evaluation points.
    """
    if samples is None:
        samples = haar_orbit_sample(orbit, seed, count)
    vals = np.exp(orbit_exponents(samples, x))
    mean = complex(vals.mean()) if len(vals) else complex("nan")
    if len(vals) > 1:
        var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
        stderr = float(np.sqrt(var / len(vals)))
    else:
        stderr = float("inf")
    return McEstimate(
        mean=complex(scale) * mean,
        stderr=abs(complex(scale)) * stderr,
        count=samples.count,
        seed=samples.seed,
    )


def calibrate(orbit: OrbitSpec, x0: AlgebraElement, seed: int,
              count: int) -> CalibrationResult:
    """Pin the Haar-to-Liouville constant (compact) or the global sign (split).

    Compact form: one-point calibration against the fixed-point value at
    the reference point.  Split sl(2,R): the damped hyperboloid integral is
    extrapolated and its sign compared with the fixed-point value.
    """
    if orbit.algebra.family == "su":
        raw = mc_fourier_integral(orbit, x0, seed, count)
        if abs(raw.mean) <= 3.0 * raw.stderr:
            raise CalibrationError(
                "reference Haar average is consistent with zero"
            )
        target = fourier_value(orbit, x0).value
        const = target / raw.mean
        rel = raw.stderr / abs(raw.mean)
        return CalibrationResult(
            liouville_const=complex(const),
            stderr=abs(const) * rel,
            sign=orbit.s0,
            seed=int(seed),
            count=count,
        )

    if (orbit.algebra.family, orbit.algebra.n) != ("sl_real", 2):
        raise CalibrationError(
            "sign calibration is implemented for sl(2,R) split orbits only"
        )
    if orbit.mode != "maximally_split":
        raise CalibrationError(
            "sign calibration applies to the automatic split mode"
        )
    eps = (0.2, 0.1, 0.05, 0.025)
    seq = damped_oscillatory_integral(orbit, x0, eps)
    limit = seq.extrapolated
    plus = _fixed_point_value_with_sign(orbit, x0, +1)
    if abs(limit) < 1e-12 or abs(plus) < 1e-12:
        raise CalibrationError("sign reference is consistent with zero")
    d_plus = abs(limit - plus)
    d_minus = abs(limit + plus)
    if abs(d_plus - d_minus) < 0.2 * abs(limit):
        raise CalibrationError("sign calibration is ambiguous at this point")
    sign = +1 if d_plus < d_minus else -1
    return CalibrationResult(
        liouville_const=1.0 + 0.0j,
        stderr=float(abs(d_plus - d_minus)),
        sign=sign,
        seed=int(seed),
        count=count,
    )


def _fixed_point_value_with_sign(orbit: OrbitSpec, x: AlgebraElement,
                                 sign: int) -> complex:
    from .localize import make_orbit

    probe = make_orbit(orbit.algebra, orbit.weight, mode=orbit.mode, s0=sign)
    return fourier_value(probe, x).value


# ---------------------------------------------------------------------------
# Noncompact oracle: the sl(2,R) hyperboloid orbit
# ---------------------------------------------------------------------------

def _split_radius(orbit: OrbitSpec) -> float:
    if (orbit.algebra.family, orbit.algebra.n) != ("sl_real", 2):
        raise AlgebraError("hyperboloid oracle requires sl(2,R)")
    # The orbits of +-(a * diag(1,-1)) coincide: one hyperboloid either way.
    return abs(float(orbit.weight[0]))


def split_orbit_carrier(radius: float, s, phi) -> np.ndarray:
    """Carrier coordinates (h, e, f) of hyperboloid points.

    The real orbit of ``radius * diag(1,-1)`` is the quadric
    h^2 + ef = radius^2; in (hyperbolic angle, circle angle) coordinates
    h = r cosh(s) cos(phi), e/f = r (cosh(s) sin(phi) +- sinh(s)).
    Broadcasts over s and phi.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ch, sh = np.cosh(s), np.sinh(s)
    h = radius * ch * np.cos(phi)
    p = radius * ch * np.sin(phi)
    q = radius * sh * np.ones_like(phi)
    return np.stack([h, p + q, p - q], axis=-1)


def split_orbit_liouville_density(radius: float, s) -> np.ndarray:
    """|Liouville measure| per ds dphi on the hyperboloid: 2 r cosh(s) / pi.

    Derived from the orbit two-form value B(Y,[U,V]) on coordinate tangent
    frames; validated numerically by ``kks_density_bruteforce``.
    """
    return 2.0 * radius * np.cosh(np.asarray(s, dtype=float)) / np.pi


def kks_density_bruteforce(orbit: OrbitSpec, s: float, phi: float,
                           step: float = 1e-6) -> float:
    """|orbit two-form / ds dphi| from brackets alone, for validation.

    Solves [u, Y] = dY/ds and [v, Y] = dY/dphi by least squares (the
    centralizer ambiguity drops out of B(Y,[u,v])) and divides by 2 pi.
    """
    spec = orbit.algebra
    r = _split_radius(orbit)
    y = split_orbit_carrier(r, s, phi)
    t_s = (split_orbit_carrier(r, s + step, phi)
           - split_orbit_carrier(r, s - step, phi)) / (2 * step)
    t_phi = (split_orbit_carrier(r, s, phi + step)
             - split_orbit_carrier(r, s, phi - step)) / (2 * step)
    ad_y = np.stack(
        [bracket(element(spec, np.eye(3)[i]), element(spec, y)).coords
         for i in range(3)],
        axis=1,
    )
    u = np.linalg.lstsq(ad_y, -t_s, rcond=None)[0]
    v = np.linalg.lstsq(ad_y, -t_phi, rcond=None)[0]
    two_form = killing_form(
        element(spec, y),
        bracket(element(spec, u), element(spec, v)),
    )
    return abs(two_form) / (2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class DampedIntegralResult:
    eps_schedule: tuple[float, ...]
    estimates: tuple[complex, ...]
    extrapolated: complex
    fit_order: float
    s_nodes: int
    phi_nodes: int          # always 1: closed-form circle integral


def damped_oscillatory_integral(orbit: OrbitSpec, x: AlgebraElement,
                                eps_schedule: Sequence[float],
                                s_nodes: Optional[int] = None,
                                ) -> DampedIntegralResult:
    """Gaussian-damped transform over the hyperboloid, per damping value.

    Estimates the integral of exp(<x, zeta>) exp(-eps |zeta|^2) against the
    Liouville measure; |zeta| is the Frobenius norm of the carrier.  The
    evaluation point is replaced by its conjugate diag(ev) in the split
    Cartan, ev its sorted spectrum (elliptic points are refused).  The
    damping does not depend on the circle angle, so the circle integral is
    exact: with rho = |(kx_h, kx_e + kx_f)| and c = kx_e - kx_f it is
    2 pi J0(r cosh(s) rho) exp(i c r sinh(s)) (DLMF 10.9.1).  What remains is Simpson quadrature in the hyperbolic angle,
    on a mesh that scales with the phase rate unless pinned by ``s_nodes``,
    summed in fixed-size blocks of nodes.  The vanishing-damping
    extrapolation converges to the transform; the damping error is linear
    in eps.
    """
    from scipy.special import j0

    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not eps_schedule or any(
        b >= a for a, b in zip(eps_schedule, eps_schedule[1:])
    ) or eps_schedule[-1] <= 0:
        raise AlgebraError("damping schedule must decrease to a positive value")
    r = _split_radius(orbit)
    ev = standard_spectrum(x)
    if ev is None:
        raise AlgebraError(
            "damped integral requires a split-class evaluation point"
        )
    # diag(ev) has the coordinates cumsum(ev)[:-1] over the diagonal basis.
    reduced = np.zeros(orbit.algebra.dim)
    reduced[:orbit.algebra.rank] = np.cumsum(ev)[:-1]
    kx = orbit.algebra.killing @ reduced
    rate_scale = float(np.sum(np.abs(kx)))
    rho = float(np.hypot(kx[0], kx[1] + kx[2]))
    c = float(kx[1] - kx[2])

    estimates = []
    ns_used = 0
    for eps in eps_schedule:
        s_max = float(np.arcsinh(np.sqrt(10.0 / eps) / r)) + 1.0
        kappa = max(50.0, r * np.cosh(s_max) * rate_scale)
        ns = s_nodes if s_nodes is not None else max(
            4001, int(16.0 * s_max * kappa)
        )
        if ns % 2 == 0:
            ns += 1
        ns_used = ns
        step = 2.0 * s_max / (ns - 1)

        total = 0.0 + 0.0j
        for lo in range(0, ns, _S_BLOCK):
            i = np.arange(lo, min(ns, lo + _S_BLOCK))
            s = i * step - s_max
            w_simpson = np.where(i % 2 == 1, 4.0, 2.0)
            w_simpson[(i == 0) | (i == ns - 1)] = 1.0
            rs, rc = r * np.sinh(s), r * np.cosh(s)
            circle = 2.0 * np.pi * j0(rc * rho) * np.exp(1j * c * rs)
            density = split_orbit_liouville_density(r, s)
            damping = np.exp(-eps * (2.0 * r * r + 4.0 * rs ** 2))
            total += np.sum(circle * density * damping * w_simpson)
        estimates.append(complex(total * step / 3.0))
    limit, order = richardson_extrapolate(eps_schedule, estimates)
    return DampedIntegralResult(
        eps_schedule=eps_schedule,
        estimates=tuple(estimates),
        extrapolated=limit,
        fit_order=order,
        s_nodes=ns_used,
        phi_nodes=1,
    )


def richardson_extrapolate(eps: Sequence[float],
                           vals: Sequence[complex]) -> tuple[complex, float]:
    """Sequence limit by iterated Aitken acceleration, with a fitted order.

    The reported order is the power-law exponent inferred from the last
    difference ratio on the raw sequence.  Falls back to the final value if
    the differences do not contract (ratio outside (1.05, 100)).
    """
    vals = [complex(v) for v in vals]
    if len(vals) < 3:
        return vals[-1], float("nan")
    d1 = vals[-2] - vals[-3]
    d2 = vals[-1] - vals[-2]
    if abs(d2) < 1e-300:
        return vals[-1], float("inf")
    rho = abs(d1) / abs(d2)
    ratio = eps[-2] / eps[-1]
    if rho < 1.05 or rho > 100.0:
        return vals[-1], float("nan")
    order = float(np.log(rho) / np.log(ratio))

    seq = vals
    for _ in range(2):
        if len(seq) < 3:
            break
        nxt = []
        for k in range(len(seq) - 2):
            da, db = seq[k + 1] - seq[k], seq[k + 2] - seq[k + 1]
            denom = db - da
            if abs(denom) < 1e-300 or abs(db * db / denom) > 10.0 * abs(db):
                nxt.append(seq[k + 2])
            else:
                nxt.append(seq[k + 2] - db * db / denom)
        seq = nxt
    return seq[-1], order
