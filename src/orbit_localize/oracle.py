"""Direct numeric integration over coadjoint orbits.

Two independent routes to the transform, used to validate the fixed-point
evaluator and to pin its calibration constants:

* compact forms: Monte Carlo over the orbit, sampled by conjugating the
  dual Cartan element with Haar-random unitaries (Gram-Schmidt of Ginibre
  matrices, which is their QR factor with the standard phase correction).
  Only the first n-1 columns are drawn and formed: u_n u_n^H = I -
  sum_{k<n} u_k u_k^H, so U diag(zeta) U^H = zeta_n I + sum_{k<n}
  (zeta_k - zeta_n) u_k u_k^H, and the coordinates are written from that
  sum.
* sl(2,R), split parameter: Gaussian-damped integral over the explicit
  one-sheeted hyperboloid carrier orbit, the circle angle in closed form
  (the Bessel function J0, evaluated by ``_j0`` in numpy alone: fitted
  polynomials up to 8, the Hankel form of DLMF 10.17.3 beyond) and the
  hyperbolic angle by Simpson quadrature, with a vanishing-damping
  schedule and Richardson-style extrapolation.  The damping error is
  linear in eps, so on the default schedule the extrapolated limit is good
  to about 1%.

The Haar average equals the Liouville integral only up to a constant (both
are invariant measures on the orbit, and the Haar average of exp<X, .> is 1
at X = 0), so the compact route carries the constant F(0), the orbit's
symplectic volume.  It is known in closed form (``_liouville_const``): the
fixed-point sum det M / V tends to s^m V(zeta) / prod_{k<n} k! as X -> 0.
``calibrate`` returns it for su(n), with no sample drawn.  The hyperboloid
route needs no constant, and its sign fixes the split-mode multiplicity
calibration.  A calibrated estimate MC agrees with the formula value F
when |MC - F| <= 3 sigma, where sigma is the estimate's own standard error
(the constant carries no error).  This one rule (``_calibrated_comparison``)
gives the ``agree_3sigma`` column of the ``oracle`` command and the oracle
suite's "calibrated estimates match" row.

Randomness comes from numpy's Philox counter-based generator keyed by the
caller's seed and consumed in a fixed chunk order, one fill of the n-1
Ginibre columns per chunk, so every estimate is a pure function of (seed,
sample count, inputs).  One chunk loop (``_haar_pass``) serves the sampler
and the estimates.  It keeps one helper thread, a one-worker executor that
only draws ahead: per chunk it draws the next chunk into the other of two
draw buffers while the calling thread works on the current one in place.
The stream has one reader at a time and is read in the serial order, so
the samples are those of a serial draw bit for bit.  An estimate without a
stored sample set (the comparison) values its points inside that loop, on
the calling thread, while each chunk is hot, and the (count, dim) sample
set is never formed.  Each chunk's values of a point are reduced to
running moments (sums and squared deviations of Re and Im, merged chunk by
chunk in a fixed order) and dropped, so a point costs four floats however
many samples it takes.  The values are formed as cos and sin through
tan of the half angle (``_exponentials``), since numpy's float64 tan has
SIMD loops and its sin, cos and complex exp do not.  Every point is valued
by one thread, in chunk order, so the output does not depend on
scheduling.  A point can also be read at nested prefixes of the pass (the
oracle suite's dyadic sample counts): at a prefix m a copy of its moments
takes the first m samples' values, and the estimate equals the stored-set
estimate on those m samples bit for bit, while its running moments, and
so its estimate over the whole pass, are left as they are.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraError,
    _cartan_sums,
    adjoint_matrix,
    bracket,
    element,
    killing_form,
    standard_spectrum,
)
from .localize import OrbitSpec, _diagonal, _scale, fourier_value

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
_GS_BLOCK = 1 << 12  # Haar draws per Gram-Schmidt block
_MAX_SAMPLES = 1 << 32   # Haar draws per pass
_S_BLOCK = 1 << 16   # hyperbolic-angle nodes per summed block
_MAX_S_NODES = 1 << 22   # hyperbolic-angle nodes per damping value
EPS_SCHEDULE = (0.2, 0.1, 0.05, 0.025)   # default vanishing damping values


class CalibrationError(AlgebraError):
    """No calibration: the orbit volume is not representable, or the
    sl(2,R) sign reference is degenerate or ambiguous."""


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
    reference: Optional[tuple[float, ...]]   # the point read; None for su(n)


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _gram_schmidt(re: np.ndarray, im: np.ndarray) -> None:
    """Orthonormalise in place the complex columns ``re[k] + i im[k]``.

    Columns are laid out (column, row, count), real and imaginary parts
    apart.  Modified Gram-Schmidt with one re-orthogonalisation pass.  Each
    column keeps a positive real component along its own input column, so
    on all n columns of an n x n matrix this is the QR factor with the
    diagonal of R made positive: Haar-distributed for Ginibre input
    (Mezzadri, Notices AMS 54, 2007).  The first m columns do not depend
    on the columns after them.
    """
    for k in range(len(re)):
        vr, vi = re[k], im[k]
        for _ in range(2):
            for j in range(k):
                ur, ui = re[j], im[j]
                # <u_j, v> = sum_i conj(u_ij) v_i
                pr = np.einsum("it,it->t", ur, vr) + np.einsum("it,it->t", ui, vi)
                pi = np.einsum("it,it->t", ur, vi) - np.einsum("it,it->t", ui, vr)
                vr -= pr * ur - pi * ui
                vi -= pr * ui + pi * ur
        norm = np.sqrt(np.einsum("it,it->t", vr, vr) + np.einsum("it,it->t", vi, vi))
        vr /= norm
        vi /= norm


def _orbit_coords(re: np.ndarray, im: np.ndarray, zeta: np.ndarray,
                  out: np.ndarray) -> None:
    """Write the su(n) coordinates of i H into ``out`` (count, dim).

    ``re + i im`` holds the first n-1 columns u_k of unitaries, laid out as
    for ``_gram_schmidt``.  Since u_n u_n^H = I - sum_{k<n} u_k u_k^H,
    H = U diag(zeta) U^H = zeta_n I + sum_{k<n} (zeta_k - zeta_n) u_k u_k^H.
    Over the su(n) basis the diagonal coordinates of i H are the partial
    sums of diag H, and the pair j < l has the coordinates -Im H_jl and
    Re H_jl.
    """
    n = len(zeta)
    w = zeta[:-1] - zeta[-1]
    wr = w[:, None, None] * re
    wi = w[:, None, None] * im
    diag = np.einsum("kjt,kjt->jt", wr, re) + np.einsum("kjt,kjt->jt", wi, im)
    out[:, :n - 1] = np.cumsum(diag[:n - 1] + zeta[-1], axis=0).T
    c = n - 1
    for j in range(n):
        for l in range(j + 1, n):
            # H_jl - zeta_n delta_jl = sum_k w_k u_kj conj(u_kl)
            out[:, c] = (np.einsum("kt,kt->t", wr[:, j], im[:, l])
                         - np.einsum("kt,kt->t", wi[:, j], re[:, l]))
            out[:, c + 1] = (np.einsum("kt,kt->t", wr[:, j], re[:, l])
                             + np.einsum("kt,kt->t", wi[:, j], im[:, l]))
            c += 2


def _haar_zeta(orbit: OrbitSpec) -> np.ndarray:
    """zeta with carrier i diag(zeta); compact forms only.

    It is read off the weight (``_diagonal``), bit for bit the dual
    element's diagonal, which ``orbit.zeta`` may miss in the last place.
    """
    if orbit.algebra.family != "su":
        raise AlgebraError("Haar orbit sampling requires the compact form")
    return np.array(_diagonal(orbit.weight))


def _haar_pass(zeta: np.ndarray, seed: int, count: int,
               coords_at: Callable[[int, int], np.ndarray],
               value: Optional[Callable[[int, np.ndarray], None]] = None
               ) -> None:
    """One pass over ``count`` Haar samples of the orbit of i diag(zeta).

    Samples are drawn in fixed-size chunks from one Philox stream, each
    chunk in one fill of shape (2, n - 1, n, take): the real and imaginary
    parts of the first n - 1 Ginibre columns, laid out (column, row,
    sample) as ``_gram_schmidt`` reads them.  The n-th column is never
    read, so it is never drawn.  Gram-Schmidt runs in place on the drawn
    chunk, then ``_orbit_coords`` writes from it, both on sub-blocks of
    ``_GS_BLOCK`` samples that stay in cache; the per-sample arithmetic is
    that of one call on the whole chunk.  ``coords_at(lo, take)`` is the
    (take, dim) array that receives the coordinates of samples lo .. lo +
    take - 1.  Once they are written, ``value(lo, coords)`` runs on this
    thread, while the chunk is hot.

    One helper thread draws ahead: a one-worker executor.  This thread
    draws the first chunk.  Per chunk the helper draws the next chunk into
    the other of two alternating draw buffers, while this thread
    orthonormalises, writes and values the current one.  The stream has
    one reader at a time and is read in the serial order, and every chunk
    is valued on this thread in chunk order, so the result does not depend
    on scheduling.  A failure on either thread is raised here, and the
    helper is joined on every way out.  More than ``_MAX_SAMPLES``
    draws (about 40 minutes of su(3) draws at one point on a 2-core x86
    host) are refused with ``AlgebraError`` before any is drawn: an
    estimate keeps no per-sample memory, so no allocation would refuse
    them.
    """
    if count > _MAX_SAMPLES:
        raise AlgebraError(f"{count:,} Haar samples in one pass; the cap is "
                           f"{_MAX_SAMPLES:,}")
    n = len(zeta)
    rng = _philox(seed)
    per_sample = 2 * (n - 1) * n   # normals
    bufs = [np.empty(per_sample * min(_CHUNK, count)) for _ in range(2)]

    def draw(k: int, take: int) -> np.ndarray:
        block = bufs[k % 2][:per_sample * take].reshape(2, n - 1, n, take)
        rng.standard_normal(out=block)
        return block

    with ThreadPoolExecutor(max_workers=1) as helper:
        for k, lo in enumerate(range(0, count, _CHUNK)):
            take = min(_CHUNK, count - lo)
            re, im = drawn.result() if k else draw(0, take)
            if lo + take < count:
                drawn = helper.submit(draw, k + 1,
                                      min(_CHUNK, count - lo - take))
            coords = coords_at(lo, take)
            for s in range(0, take, _GS_BLOCK):
                block = slice(s, s + _GS_BLOCK)
                _gram_schmidt(re[..., block], im[..., block])
                _orbit_coords(re[..., block], im[..., block], zeta,
                              coords[block])
            if value is not None:
                value(lo, coords)


def haar_orbit_sample(orbit: OrbitSpec, seed: int, count: int) -> OrbitSamples:
    """Conjugate the dual Cartan element by Haar-random unitaries.

    Compact form only.  Deterministic in (seed, count): the samples come
    from one ``_haar_pass`` over a Philox stream, one fill of the first
    n-1 Ginibre columns per chunk.  Only those columns are drawn and
    orthonormalised, since the last column enters the sample only through
    u_n u_n^H = I - sum_{k<n} u_k u_k^H, and the coordinates are written
    from them directly.  A helper thread only draws the next chunk while
    this thread works on the current one, and the samples are bit for bit
    those of a serial draw.
    """
    zeta = _haar_zeta(orbit)
    out = np.empty((count, orbit.algebra.dim))
    _haar_pass(zeta, seed, count, lambda lo, take: out[lo:lo + take])
    return OrbitSamples(orbit=orbit, coords=out, seed=int(seed), count=count)


def orbit_exponents(samples: OrbitSamples, x: AlgebraElement) -> np.ndarray:
    """<x, zeta> for each sampled covector zeta: purely imaginary values."""
    kx = samples.orbit.algebra.killing @ x.coords
    return 1j * (samples.coords @ kx)


def _exponentials(coords: np.ndarray, kx: np.ndarray, out: np.ndarray) -> None:
    """cos and sin of theta = <x, zeta> / i at the rows of one chunk of
    coordinates, into the rows of ``out`` (2, take).

    exp(<x, zeta>) = cos theta + i sin theta.  numpy's float64 sin and
    cos and its complex exp run scalar libm code, while its float64 tan
    has SIMD loops: on a 2-core AVX-512 x86-64 host (numpy 2.4) about 20
    ns a value for sin or cos and 40 ns for the complex exp, against 2-3
    ns for tan.  So the values come from the half angle: with t =
    tan(theta / 2), cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2t /
    (1 + t^2), within one eps of libm's for |theta| up to 1e12, on
    contiguous rows in place.  The half is folded into ``kx``, which is
    exact.  t^2 cannot overflow: no double lies close enough to an odd
    multiple of pi / 2.  A non-finite theta gives NaN in both rows, as exp
    does.  The last bit of tan, and so of a value, can depend on numpy's
    SIMD dispatch.

    Every estimate forms its exponents one chunk of at most ``_CHUNK`` rows
    at a time, so a stored sample set and a fused pass give the same bits.
    A row's bits can depend on how many rows the product takes (OpenBLAS
    treats a tail of a few rows apart), so a chunk cut short is valued on
    its own rows, never read off the values of the whole chunk.
    """
    cos, sin = out
    np.matmul(coords, 0.5 * kx, out=sin)
    np.tan(sin, out=sin)
    np.multiply(sin, sin, out=cos)
    den = np.add(cos, 1.0)
    np.subtract(1.0, cos, out=cos)
    cos /= den
    sin /= den
    sin += sin


def _merge_chunk(moments: np.ndarray, lo: int, coords: np.ndarray,
                 kx: np.ndarray) -> None:
    """Value samples lo .. lo + len(coords) - 1, merge them into ``moments``.

    The values exp(<x, zeta>) come from ``_exponentials`` on the rows of
    ``coords`` alone, as a row of real parts and a row of imaginary parts,
    each reduced where it lies.  ``moments`` is (sum Re, sum Im, M2 Re,
    M2 Im) over samples 0 .. lo - 1, M2 the sum of squared deviations from
    the mean.  The chunk's sums and its M2 about its own mean join the
    totals by the pairwise update of Chan, Golub and LeVeque (Amer.
    Statist. 37, 1983): M2 = M2_a + M2_b + delta^2 n_a n_b / (n_a + n_b),
    delta the difference of the two means.  The merge itself makes no BLAS
    call: it would contend with the Haar pass's draw-ahead thread for the
    cores.
    """
    take = len(coords)
    vals = np.empty((2, take))
    _exponentials(coords, kx, vals)
    for k, part in enumerate(vals):
        total = part.sum()
        part -= total / take
        m2 = np.square(part, out=part).sum()
        if lo:
            delta = total / take - moments[k] / lo
            m2 += delta * delta * (lo * take / (lo + take))
        moments[k] += total
        moments[2 + k] += m2


def _estimate(moments: np.ndarray, count: int, scale: complex,
              seed: int) -> McEstimate:
    """Mean and standard error from one point's merged ``moments`` over
    ``count`` samples, times ``scale``."""
    total_re, total_im, m2_re, m2_im = moments.tolist()
    mean = (complex(total_re / count, total_im / count) if count
            else complex("nan"))
    if count > 1:
        stderr = math.sqrt((m2_re + m2_im) / (count - 1) / count)
    else:
        stderr = float("inf")
    return McEstimate(
        mean=complex(scale) * mean,
        stderr=abs(complex(scale)) * stderr,
        count=count,
        seed=int(seed),
    )


def _mc_estimates(orbit: OrbitSpec, xs: Sequence[AlgebraElement], seed: int,
                  count: int, scale: complex = 1.0,
                  prefixes: Sequence[Sequence[int]] = ()) -> list[McEstimate]:
    """``mc_fourier_integral`` at each of ``xs`` on one Haar sample set.

    The points are valued inside the sampler's chunk loop, on the calling
    thread, and the (count, dim) sample set is never formed: each chunk's
    coordinates go to one reused buffer.  Each chunk's values are merged
    into their point's running moments (``_merge_chunk``) and dropped, so
    what is kept is four floats a point, and every point is valued in one
    pass whatever the number of points and samples.  Chunk k of a point is
    merged before chunk k + 1, so the moments do not depend on
    scheduling.  With no point nothing is drawn.

    ``prefixes[p]``, if given, holds ascending sample counts in 1 .. count
    at which point p is also read, and its estimates at them come just
    before its estimate at ``count``.  At a count m inside the chunk from
    lo, a copy of the point's moments takes the values of the chunk's
    first m - lo rows, valued on those rows alone, while the running
    moments take the whole chunk as they do without prefixes.  So the
    estimates at ``count`` keep their bits, and the one at m is that of
    ``mc_fourier_integral`` on the first m samples of the pass, bit for
    bit: both value and merge the same rows on the same ``_CHUNK``
    boundaries.
    """
    if len(prefixes) > len(xs):
        raise ValueError(f"{len(prefixes)} prefix lists for {len(xs)} points")
    for asked in prefixes:
        bounds = [0, *asked]
        if not all(a < b for a, b in zip(bounds, asked)) or bounds[-1] > count:
            raise ValueError(f"prefixes {list(asked)} do not ascend "
                             f"within 1 .. {count}")
    if not xs:
        return []
    zeta = _haar_zeta(orbit)
    kxs = [orbit.algebra.killing @ x.coords for x in xs]
    moments = np.zeros((len(kxs), 4))
    marks = [list(m) for m in prefixes] + [[]] * (len(kxs) - len(prefixes))
    reads = [[] for _ in kxs]    # moments at each prefix of a point
    chunk = np.empty((min(_CHUNK, count), orbit.algebra.dim))

    def value(lo: int, coords: np.ndarray) -> None:
        for p, kx in enumerate(kxs):
            for m in marks[p]:
                if lo < m <= lo + len(coords):
                    read = moments[p].copy()
                    _merge_chunk(read, lo, coords[:m - lo], kx)
                    reads[p].append(read)
            _merge_chunk(moments[p], lo, coords, kx)

    _haar_pass(zeta, seed, count, lambda lo, take: chunk[:take], value)
    return [_estimate(m, c, scale, seed)
            for p in range(len(kxs))
            for m, c in zip(reads[p] + [moments[p]], marks[p] + [count])]


def mc_fourier_integral(orbit: OrbitSpec, x: AlgebraElement, seed: int,
                        count: int, scale: complex = 1.0,
                        samples: Optional[OrbitSamples] = None) -> McEstimate:
    """Monte Carlo average of exp(<x, zeta>) over the orbit, times ``scale``.

    ``scale`` is the Liouville normalization constant
    (``_liouville_const``); pass 1 for the raw Haar average.  Without
    ``samples`` the point is valued during the draw of (seed, count); a
    stored sample set is valued and merged on the same chunks, so it gives
    the same estimate bit for bit.
    """
    if samples is None:
        return _mc_estimates(orbit, [x], seed, count, scale)[0]
    kx = samples.orbit.algebra.killing @ x.coords
    moments = np.zeros(4)
    for lo in range(0, samples.count, _CHUNK):
        _merge_chunk(moments, lo, samples.coords[lo:lo + _CHUNK], kx)
    return _estimate(moments, samples.count, scale, samples.seed)


def _liouville_const(orbit: OrbitSpec) -> complex:
    """The Haar-to-Liouville constant F(0) = s^m V(zeta) / prod_{k<n} k!.

    The Haar average of exp<X, .> is 1 at X = 0, so the constant is the
    transform there, the orbit's symplectic volume (Duistermaat-Heckman).
    With M = exp(outer(ev, s zeta)), det M / V at ev = t h tends to it as
    t -> 0 (Harish-Chandra's formula), for m = n(n-1)/2, s =
    ``localize._scale`` and V(zeta) = prod over i < j of (zeta_j - zeta_i),
    ordered as ``localize._vandermonde`` orders V(ev); imaginary part +0.0.
    """
    zeta = orbit.zeta.tolist()
    n = len(zeta)
    volume = (_scale(orbit.algebra) ** (n * (n - 1) // 2)
              * math.prod(b - a for a, b in combinations(zeta, 2))
              / math.prod(map(math.factorial, range(n))))
    if not (cmath.isfinite(volume) and volume):
        raise CalibrationError("the orbit volume is not representable")
    return complex(volume.real, 0.0)


def _calibrated_estimates(orbit: OrbitSpec, coords: np.ndarray, seed: int,
                          count: int, prefixes: Sequence[Sequence[int]] = ()
                          ) -> list[McEstimate]:
    """``_mc_estimates`` at the rows of ``coords``, the Haar averages
    scaled by the closed-form ``_liouville_const``: all points are valued
    in one pass over the Haar samples of (seed, count), with no stored
    sample set."""
    return _mc_estimates(orbit, [element(orbit.algebra, c) for c in coords],
                         seed, count, scale=_liouville_const(orbit),
                         prefixes=prefixes)


def _calibrated_comparison(ests: Sequence[McEstimate],
                           values: Sequence[complex]
                           ) -> tuple[list[complex], list[float], list[bool]]:
    """The means MC of calibrated estimates (``_calibrated_estimates``),
    their sigmas and the verdicts |MC - F| <= 3 sigma against the formula
    ``values`` F (see the module docstring).  The constant is exact, so
    sigma is each estimate's own standard error."""
    means = [est.mean for est in ests]
    sigmas = [est.stderr for est in ests]
    return means, sigmas, [abs(mc - fv) <= 3.0 * sigma
                           for mc, fv, sigma in zip(means, values, sigmas)]


def calibrate(orbit: OrbitSpec, x0: AlgebraElement) -> CalibrationResult:
    """The Haar-to-Liouville constant (compact) or the global sign (split).

    Compact form: the closed-form ``_liouville_const``, exact, so its
    stderr is 0; x0 is not read.  Split sl(2,R): the damped hyperboloid
    integral at x0 is extrapolated and its sign compared with the
    fixed-point value; the stderr is the margin between the two signs.
    Both are deterministic: no sample is drawn.
    """
    if orbit.algebra.family == "su":
        return CalibrationResult(_liouville_const(orbit), 0.0, orbit.s0, None)

    if (orbit.algebra.family, orbit.algebra.n) != ("sl_real", 2):
        raise CalibrationError(
            "sign calibration is implemented for sl(2,R) split orbits only"
        )
    if orbit.mode != "maximally_split":
        raise CalibrationError(
            "sign calibration applies to the automatic split mode"
        )
    seq = damped_oscillatory_integral(orbit, x0, EPS_SCHEDULE)
    limit = seq.extrapolated
    # The value at s0 = +1: split values are s0 perm M / V.
    plus = orbit.s0 * fourier_value(orbit, x0).value
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
        reference=tuple(x0.coords.tolist()),
    )


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


def kks_density_bruteforce(orbit: OrbitSpec, s: float, phi: float) -> float:
    """|orbit two-form / ds dphi| from brackets alone, for validation.

    Solves [Y, u] = dY/ds and [Y, v] = dY/dphi by least squares (the
    centralizer ambiguity drops out of B(Y,[u,v])) and divides by 2 pi.
    """
    step = 1e-6   # central-difference step
    spec = orbit.algebra
    r = _split_radius(orbit)
    y = split_orbit_carrier(r, s, phi)
    t_s = (split_orbit_carrier(r, s + step, phi)
           - split_orbit_carrier(r, s - step, phi)) / (2 * step)
    t_phi = (split_orbit_carrier(r, s, phi + step)
             - split_orbit_carrier(r, s, phi - step)) / (2 * step)
    ad_y = adjoint_matrix(element(spec, y))
    u = np.linalg.lstsq(ad_y, t_s, rcond=None)[0]
    v = np.linalg.lstsq(ad_y, t_phi, rcond=None)[0]
    two_form = killing_form(
        element(spec, y),
        bracket(element(spec, u), element(spec, v)),
    )
    return abs(two_form) / (2.0 * np.pi)


# Coefficients of ``_j0``, fitted and checked by tests/fit_j0.py: Chebyshev
# interpolants in powers of the variable each piece is evaluated in, highest
# power first.  _J0_NEAR is J0 in t = x^2 for x < 2; _J0_MID is
# J0 / prod_k (t - j_k^2) in t - 32 for 2 <= x <= 8, with the squares of the
# first three zeros of J0 in _J0_ZEROS_SQ; for x > 8, _J0_FAR_P and
# _J0_FAR_Q are P~ = P / sqrt(8 pi) and Q~ = Q x / (8 sqrt(8 pi)) in
# w = (8/x)^2, with P and Q of DLMF 10.17.3 (Q x / 8 is smooth in w, Q is
# not).
_J0_NEAR = (
    -1.4352164561879054e-22,
    7.235883549287085e-20,
    -2.896865066102433e-17,
    9.385965527190444e-15,
    -2.4028075458327086e-12,
    4.709502797005742e-10,
    -6.781684027777088e-08,
    6.781684027777773e-06,
    -0.00043402777777777775,
    0.015625,
    -0.25,
    1.0,
)
_J0_MID = (
    -3.156763507444827e-34,
    2.8122857589112826e-31,
    -2.1069236128188674e-28,
    1.3552825354723792e-25,
    -7.362232629067482e-23,
    3.321179045758951e-20,
    -1.2187879838809508e-17,
    3.544320970546894e-15,
    -7.889560851830899e-13,
    1.2807123787128287e-10,
    -1.4085626477131445e-08,
    9.229049195470852e-07,
    -2.6662941994458524e-05,
)
_J0_ZEROS_SQ = (
    5.783185962946784,
    30.471262343662087,
    74.88700679069518,
)
_J0_FAR_P = (
    6.886628031271258e-11,
    -4.76786389575215e-10,
    1.6105460938052322e-09,
    -3.8129922401324615e-09,
    8.15337794133156e-09,
    -2.024114547209942e-08,
    7.217844833873318e-08,
    -4.35624439190851e-07,
    5.461695813153546e-06,
    -0.000219145539764515,
    0.19947114020071632,
)
_J0_FAR_Q = (
    -6.204823353242398e-11,
    4.2141310694639793e-10,
    -1.3776035904056015e-09,
    3.077109901489483e-09,
    -5.946574033915837e-09,
    1.2604914188159083e-08,
    -3.619559470416219e-08,
    1.643287837071477e-07,
    -1.3824915493989953e-06,
    2.8534575484372546e-05,
    -0.0031167365656361652,
)


def _horner(coefs, z):
    """sum_k coefs[k] z^(d - k), by Horner's rule."""
    p = coefs[0] * z
    p += coefs[1]
    for c in coefs[2:]:
        p *= z
        p += c
    return p


def _j0_mid(x: np.ndarray) -> np.ndarray:
    """J0 for 2 <= x <= 8; overwrites x."""
    t = np.multiply(x, x, out=x)
    v = t - 32.0
    j = _horner(_J0_MID, v)
    for zero in _J0_ZEROS_SQ:
        j *= np.subtract(t, zero, out=v)
    return j


def _j0_far(x: np.ndarray) -> np.ndarray:
    """J0 for x > 8; overwrites x.

    With cos(x - pi/4) = (cos x + sin x) / sqrt(2), DLMF 10.17.3 reads
    J0 = p (cos x + sin x) + q (cos x - sin x), p = sqrt(8/x) P~ and
    q = sqrt(8/x) (8/x) Q~.  x - pi/4 is never rounded, and numpy's cos and
    sin reduce x exactly.
    """
    y = np.divide(8.0, x)
    w = np.square(y)
    p = _horner(_J0_FAR_P, w)
    q = _horner(_J0_FAR_Q, w)
    q *= y
    np.sqrt(y, out=y)
    p *= y
    q *= y
    np.add(p, q, out=y)
    p -= q
    y *= np.cos(x, out=w)
    p *= np.sin(x, out=x)
    y += p
    return y


def _j0(x) -> np.ndarray:
    """Bessel function J0 of float input, elementwise.

    Against 50-digit mpmath (tests/test_j0.py) the absolute error is at
    most 1e-15 for |x| <= 8 and at most eps (1 + |x|) sqrt(2 / (pi |x|))
    beyond, what one rounding of x in the phase would cost.  NaN gives
    NaN.
    """
    x = np.abs(np.asarray(x, dtype=float))
    j = np.empty_like(x)
    far = x > 8.0
    j[far] = _j0_far(x[far])
    # Below 2 J0 is near 1, where a zero-factored fit rounds to 5.6e-16.
    near = x < 2.0
    if near.any():
        j[near] = _horner(_J0_NEAR, np.square(x[near]))
        far |= near
    mid = ~far
    j[mid] = _j0_mid(x[mid])
    return j


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
    2 pi J0(r cosh(s) rho) exp(i c r sinh(s)) (DLMF 10.9.1), with J0 from
    ``_j0`` (the Hankel form of DLMF 10.17.3 beyond 8).  What remains
    is Simpson quadrature in the hyperbolic angle, on a mesh that scales
    with the phase rate unless pinned by ``s_nodes``, summed in fixed-size
    blocks of nodes.  A mesh of ``_MAX_S_NODES`` nodes or more (a tiny eps
    or a far evaluation point) is refused with ``AlgebraError`` before any
    quadrature is done.  The vanishing-damping extrapolation converges to
    the transform; the damping error is linear in eps.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not (eps_schedule and np.isfinite(eps_schedule).all()
            and all(b < a for a, b in zip(eps_schedule, eps_schedule[1:]))
            and eps_schedule[-1] > 0):
        raise AlgebraError("damping schedule must decrease to a positive value")
    r = _split_radius(orbit)
    ev = standard_spectrum(x)
    if ev is None:
        raise AlgebraError(
            "damped integral requires a split-class evaluation point"
        )
    reduced = np.zeros(orbit.algebra.dim)
    reduced[:orbit.algebra.rank] = _cartan_sums(orbit.algebra, ev)
    kx = orbit.algebra.killing @ reduced
    rate_scale = float(np.sum(np.abs(kx)))
    rho = float(np.hypot(kx[0], kx[1] + kx[2]))
    c = float(kx[1] - kx[2])

    # Every mesh is sized, and refused above the cap, before any is summed.
    meshes = []
    for eps in eps_schedule:
        with np.errstate(over="ignore"):
            s_max = float(np.arcsinh(np.sqrt(10.0 / eps) / r)) + 1.0
            kappa = max(50.0, r * np.cosh(s_max) * rate_scale)
        nodes = float(s_nodes) if s_nodes is not None else max(
            4001.0, 16.0 * s_max * kappa
        )
        if not nodes < _MAX_S_NODES:
            raise AlgebraError(
                f"the hyperboloid quadrature at eps = {eps:g} needs "
                f"{nodes:.3g} Simpson nodes; the cap is {_MAX_S_NODES:,}"
            )
        meshes.append((eps, s_max, int(nodes) | 1))   # Simpson needs odd

    estimates = []
    for eps, s_max, ns in meshes:
        step = 2.0 * s_max / (ns - 1)

        total = 0.0 + 0.0j
        for lo in range(0, ns, _S_BLOCK):
            i = np.arange(lo, min(ns, lo + _S_BLOCK))
            s = i * step - s_max
            w_simpson = np.where(i % 2 == 1, 4.0, 2.0)
            w_simpson[(i == 0) | (i == ns - 1)] = 1.0
            rs, rc = r * np.sinh(s), r * np.cosh(s)
            circle = 2.0 * np.pi * _j0(rc * rho) * np.exp(1j * c * rs)
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
        s_nodes=ns,
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
