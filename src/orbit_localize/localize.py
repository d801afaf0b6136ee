"""Fixed-point evaluation of the orbit Fourier transform.

The value at a regular semisimple point is a sum over the fixed points of
the induced flag-variety vector field:

    sum over w of  d_w * exp(<X, w.weight>) / prod(alpha(X) over Borel roots)

The transform is Ad-invariant, so it is evaluated at the representative
diag(ev) of X in the standard Cartan, ev the defining eigenvalues of X in
canonical (descending) order; no flag-variety geometry is needed in rank
above one.  For su(n) and sl(n,R) everything is an array of eigenvalues
and a permutation table.  The orbit parameter is a sorted diagonal zeta,
the fixed points are the permutations w in S_n, the exponent of w is
s * sum_i zeta_(w^-1 i) ev_i (s = -2n for su(n), 2n i for sl(n,R)), and
its Borel denominator is det(w) times the one Vandermonde product
V = prod over i < j of (ev_j - ev_i).  Inputs from one adjoint orbit share
ev, so invariance holds by construction; in split mode the multiplicity
pattern is tied to the canonical chamber.

In the automatic modes the sum over W has a closed form (Harish-Chandra's
formula), read off the mode's row of ``fixedpoints.RULES`` as the
multiplicities are.  With M = exp(outer(ev, s zeta)), the compact
multiplicities +1 make it det M / V, and the split ones s0 det(w) cancel
the signs, leaving s0 perm M / V: n^2 exponentials a row and an LU
determinant, or Glynn's permanent in 2^(n-1) n products, in place of n!
terms.  It values the points of the real form, which read no permutation
table, so a CSV ``eval`` in these modes builds none.  The term sum over W
stays: it gives the values of user_supplied mode and of points off the
real form (complex coordinates, whose su(n) exponents have real parts),
and the term breakdowns (``EvalResult.terms`` and the JSON ``terms``),
whose sum matches the closed-form value to 1e-14 sum |terms| (measured at
exponents up to about 350).

A batch of points is one pass of a block kernel (``fourier_grid``).  Each
block of rows takes one batched eigenvalue solve and classification, then
the value of its valued rows: the closed form, or the (|W|, rows) term
arrays built from the permuted diagonals, signs and multiplicities of the
Cartan's permutation table, summed in label order.
``fourier_value`` is the one-row case.  No ``FixedPoint`` object is built
unless ``OrbitSpec.fixed_points`` is read.
Every step is elementwise or runs along a row's own axis, so each row is
the same bit for bit whatever batch it comes in, and the block size
bounds memory without changing any value.

Conventions: the orbit parameter is purely imaginary, ``i`` times the
Killing dual of a real Cartan element.  The ``weight`` sequence supplied by
callers lists the coordinates of that Cartan element over the real Cartan
basis.  Exponentials therefore oscillate on the real form, and all term
arithmetic is complex.  Values of the transform vanish identically (by
construction, not numerically) on elements that cannot be conjugated into
the standard Cartan in split mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraSpec,
    CartanDatum,
    _INDETERMINATE,
    _NONREAL,
    _REGULAR,
    _SINGULAR,
    _readonly,
    _refuse,
    _spectra,
    _standard_cartan,
    _upper_pairs,
    element,
    element_from_matrix,
    killing_form,
)
from .fixedpoints import (
    RULES,
    FixedPoint,
    MultiplicityAssignment,
    _check_mode,
    _check_regular,
    _multiplicities,
    assign_multiplicities,
    closed_orbit_support,
    enumerate_fixed_points,
)

__all__ = [
    "DegenerateInputError",
    "OrbitSpec",
    "TermBreakdown",
    "EvalResult",
    "CasimirCheck",
    "InvarianceReport",
    "standard_cartan",
    "make_orbit",
    "fourier_value",
    "fourier_grid",
    "casimir_check",
    "invariance_checks",
    "random_group_element",
]

# Relative distance to a root hyperplane below which evaluation refuses to
# report a value (each individual term has a pole there).
WALL_TOL = 1e-8


class DegenerateInputError(AlgebraError):
    """Evaluation point too close to a root hyperplane."""


_STANDARD_CARTANS: dict[tuple[str, int], CartanDatum] = {}


def standard_cartan(spec: AlgebraSpec) -> CartanDatum:
    """The diagonal Cartan of the realization, kept per (family, n).

    Its real basis is the diagonal-difference family itself (times i for
    the compact form), the first rank coordinate rows, so weight
    coordinates have a stable meaning across runs.
    """
    key = (spec.family, spec.n)
    if key not in _STANDARD_CARTANS:
        _STANDARD_CARTANS[key] = _standard_cartan(spec)
    return _STANDARD_CARTANS[key]


@dataclass(frozen=True, eq=False)
class OrbitSpec:
    """A regular orbit parameter with its Cartan and multiplicity mode.

    The automatic modes are evaluated from ``zeta`` alone.  The arrays
    over W (rows in the Cartan's table order) that the term sum reads, and
    the Weyl labels, come from the Cartan's table on first read; the
    ``fixed_points`` and ``assignment`` views are built from the Cartan's
    Weyl objects on first read.
    """

    algebra: AlgebraSpec
    cartan: CartanDatum
    weight: tuple[float, ...]          # coordinates of the dual Cartan element
    mode: str
    s0: int
    weight_values: np.ndarray          # i * lambda'(H_k): parameter on the basis
    zeta: np.ndarray                   # diagonal of the dual element, over i for su
    user_multiplicities: Optional[Mapping[str, int]]

    @cached_property
    def _multiplicities(self) -> np.ndarray:
        cart = self.cartan
        labels = cart._labels if self.mode == "user_supplied" else None
        return _multiplicities(labels, cart._table.signs, self.mode, self.s0,
                               self.user_multiplicities)

    @cached_property
    def _zeta(self) -> np.ndarray:
        """(|W|, n): row w is s * zeta_(w^-1 i)."""
        return _scale(self.algebra) * self.zeta[self.cartan._table.pos]

    @cached_property
    def _objects(self) -> tuple[MultiplicityAssignment, tuple[FixedPoint, ...]]:
        fps = enumerate_fixed_points(self.cartan, self.weight_values)
        fps = closed_orbit_support(self.cartan, fps, self.algebra.family)
        return assign_multiplicities(fps, self.mode, sign=self.s0,
                                     user_values=self.user_multiplicities)

    @cached_property
    def fixed_points(self) -> tuple[FixedPoint, ...]:
        return self._objects[1]

    @cached_property
    def assignment(self) -> MultiplicityAssignment:
        return self._objects[0]

    @property
    def dual_element(self) -> AlgebraElement:
        # The real Cartan basis is the first rank coordinate rows.
        spec = self.algebra
        return element(spec, np.pad(self.weight, (0, spec.dim - spec.rank)))

    def casimir_eigenvalue(self) -> complex:
        """B*(parameter, parameter); negative of the real dual's square."""
        z = self.dual_element
        return complex(-killing_form(z, z))


def _scale(spec: AlgebraSpec) -> complex:
    """The s with <diag(ev), parameter> = s * sum_i zeta_i ev_i.

    The parameter is i B(z, .) with B = 2n tr and z = i diag(zeta) (su)
    or diag(zeta) (sl).
    """
    return -2.0 * spec.n + 0j if spec.family == "su" else 2.0j * spec.n


def _diagonal(weight: tuple[float, ...]) -> list[float]:
    """The diagonal zeta of a weight, as n Python floats.

    Weight coordinate c_k adds c_k to zeta_k and subtracts it from
    zeta_(k+1), in the order of operations of the array form zeros(n);
    zeta[:-1] += weight; zeta[1:] -= weight, bit for bit.
    """
    return [(0.0 + a) - b for a, b in zip(weight + (0.0,), (0.0,) + weight)]


def make_orbit(spec: AlgebraSpec, weight: Sequence[float], mode: str = None,
               s0: int = 1,
               user_multiplicities: Optional[Mapping[str, int]] = None,
               ) -> OrbitSpec:
    """Validate the orbit parameter; read its arrays off the Cartan's table.

    The dual Cartan element of the weight is diag(zeta) for sl(n,R) and
    i diag(zeta) for su(n): weight coordinate c_k adds c_k to zeta_k and
    subtracts it from zeta_(k+1).  The orbits of a parameter and of its
    Weyl images coincide, so the automatic modes store the parameter in
    the canonical chamber, zeta descending and weight = cumsum(zeta)[:-1].
    This pins the orientation convention behind the all-ones compact
    multiplicities and makes the transform manifestly Weyl-invariant in
    the parameter.  User-supplied multiplicity labels refer to the chamber
    of the parameter as given, so that mode keeps it as given.
    """
    if mode is None:
        mode = next(m for m, rule in RULES.items() if rule[0] == spec.family)
    family = RULES.get(mode, (spec.family,))[0]
    if family != spec.family:
        raise AlgebraError(f"{mode} mode requires the {family} family")

    weight = tuple(float(w) for w in weight)
    cart = standard_cartan(spec)
    if len(weight) != cart.rank:
        raise AlgebraError(
            f"weight needs {cart.rank} coordinates, got {len(weight)}"
        )
    zeta = _diagonal(weight)
    finite = all(map(math.isfinite, zeta))
    if finite and mode in RULES:
        zeta = sorted(zeta)[::-1]   # ties in the order of np.sort(zeta)[::-1]
        weight = tuple(accumulate(zeta))[:-1]
    # The largest root pairing bounds every coroot pairing.
    span = abs(_scale(spec)) * (max(zeta) - min(zeta))
    if not (finite and all(map(math.isfinite, (*weight, span)))):
        raise AlgebraError("orbit parameter is non-finite or too large to represent")
    _check_regular(zeta)
    _check_mode(mode, s0, user_multiplicities)
    steps = [a - b for a, b in zip(zeta, zeta[1:])]
    orbit = OrbitSpec(
        algebra=spec,
        cartan=cart,
        weight=weight,
        mode=mode,
        s0=int(s0),
        weight_values=_scale(spec) * np.array(steps),
        zeta=_readonly(np.array(zeta)),
        user_multiplicities=user_multiplicities,
    )
    # Only user-supplied multiplicities are keyed by label, so only that
    # mode reads the Cartan's table here, to check the map.
    if mode == "user_supplied":
        orbit._multiplicities
    return orbit


@dataclass(frozen=True, eq=False)
class TermBreakdown:
    label: str
    exponent: complex
    denominator: complex
    multiplicity: int
    value: complex


class EvalResult:
    """Value with per-fixed-point terms.

    At points of the real form in the automatic modes the value is the
    closed form (det M / V or s0 perm M / V) and matches the sum of
    ``terms`` to 1e-14 sum |terms| (see the module docstring); elsewhere
    it is their label-ordered sum.  A row with a
    value keeps the spectrum it was evaluated at and builds ``terms``, by
    the sum over W, when that is first read, so callers that read values
    only build no per-term objects.  Rows are read-only by convention.
    """

    __slots__ = ("value", "degenerate", "conjugacy", "_terms", "_orbit", "_ev")

    def __init__(self, value: complex, terms: tuple[TermBreakdown, ...],
                 degenerate: bool, conjugacy: str) -> None:
        self.value = value
        self.degenerate = degenerate
        self.conjugacy = conjugacy    # "cartan" or "outside"
        self._terms = terms
        self._orbit = self._ev = None

    def __repr__(self) -> str:
        return (f"EvalResult(value={self.value!r}, degenerate={self.degenerate!r}, "
                f"conjugacy={self.conjugacy!r}, terms={len(self.terms)})")

    @property
    def terms(self) -> tuple[TermBreakdown, ...]:
        if self._terms is None:
            orbit = self._orbit
            expo, den, vals = _terms(orbit, self._ev[None])
            self._terms = tuple(map(
                TermBreakdown, orbit.cartan._labels, expo[:, 0].tolist(),
                den[:, 0].tolist(), orbit._multiplicities.tolist(),
                vals[:, 0].tolist(),
            ))
        return self._terms


def _valued(orbit: OrbitSpec, value: complex, ev: np.ndarray) -> EvalResult:
    row = EvalResult(value, None, False, "cartan")
    row._orbit, row._ev = orbit, ev
    return row


# Not conjugate into the split Cartan: the transform vanishes identically
# on the conjugacy class.
_OUTSIDE = EvalResult(value=0.0 + 0.0j, terms=(), degenerate=False,
                      conjugacy="outside")
# Too close to a root hyperplane, or not regular: no value is reported.
_DEGENERATE = EvalResult(value=complex("nan"), terms=(), degenerate=True,
                         conjugacy="cartan")

# Outcome of a row within WALL_TOL of a root hyperplane, beside the
# spectral outcomes of algebra._spectra.
_WALL = -1

# Matrix entries (rows x n^2) per block of the kernel, and terms
# (rows x |W|) per chunk of the term sum.  It bounds the working arrays
# and changes no value: every row's arithmetic is elementwise or runs
# along that row's own axis.
_BLOCK = 1 << 16


def _vandermonde(ev: np.ndarray) -> np.ndarray:
    """prod over i < j of (ev_j - ev_i) for each row, as one accumulate."""
    i, j = _upper_pairs(ev.shape[1])
    return np.multiply.accumulate(ev[:, j] - ev[:, i], axis=1)[:, -1]


def _permanent(m: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices, by Glynn's formula.

    perm M = 2^(1-n) times the sum over d in {+1, -1}^n with d_0 = 1 of
    (prod_k d_k) prod_j (sum_i d_i M_ij)  (Glynn, Eur. J. Combin. 31,
    2010).  The signs run in Gray-code order: step k flips d_i for i the
    position of the lowest set bit of k, plus one, which moves the column
    sums by -2 d_i M_i and flips the sign of prod_k d_k.  Each step is
    elementwise over the stack, so 2^(n-1) n products per matrix, and a
    matrix's value does not depend on the stack it comes in.
    """
    n = m.shape[1]
    sums = m[:, 0].copy()
    for i in range(1, n):
        sums += m[:, i]
    d = [1.0] * n

    def product() -> np.ndarray:
        # Not in place: numpy multiplies a one-element complex array in
        # place by another rounding than a longer one.
        p = sums[:, 0] * sums[:, 1]
        for j in range(2, n):
            p = p * sums[:, j]
        return p

    total = product()
    for k in range(1, 1 << (n - 1)):
        i = (k & -k).bit_length()
        sums -= (2.0 * d[i]) * m[:, i]
        d[i] = -d[i]
        if k % 2:
            total -= product()
        else:
            total += product()
    return total * 2.0 ** (1 - n)


def _closed_form(orbit: OrbitSpec, ev: np.ndarray,
                 zeta: Optional[np.ndarray] = None) -> np.ndarray:
    """The fixed-point sum of an automatic mode at N canonical spectra, (N,).

    With M = exp(outer(ev, s zeta)), the term of w is the product of the
    entries M[i, w^-1 i] times m_w det(w) / V.  With the mode's
    m_w = c det(w)^power (``fixedpoints.RULES``) the sum is c det M / V at
    power 0 and c perm M / V at power 1 (Harish-Chandra's formula).  n^2
    exponentials a row in place of the n! of the term sum.  A (K, 1, n)
    stack of diagonals in place of ``orbit.zeta`` values K parameters of
    the mode at one spectrum, (K,), each as its own orbit would.
    """
    _, power, signed = RULES[orbit.mode]
    if zeta is None:
        zeta = orbit.zeta
    m = np.exp(ev[:, :, None] * (_scale(orbit.algebra) * zeta))
    num = _permanent(m) if power else np.linalg.det(m)
    if signed:
        num = orbit.s0 * num
    return num / _vandermonde(ev)


def _terms(orbit: OrbitSpec, ev: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents, Borel denominators and values of every term, (|W|, N).

    ``ev`` holds the canonical spectra of N regular points, one per row.
    The term of w at diag(ev) has the exponent s * sum_i zeta_(w^-1 i) ev_i
    (row w of ``orbit._zeta``) and the denominator det(w) V, with
    V = prod over i < j of (ev_j - ev_i): the Borel of w carries the roots
    e_(w j) - e_(w i), whose product is V up to the sign of w.  V is formed
    once per row.  The sum over i and the product over pairs run as short
    loops and accumulates, not as matrix products: BLAS blocks a product
    differently for different N, which would make a row's last bits depend
    on its batch.
    """
    zeta = orbit._zeta
    expo = zeta[:, :1] * ev[:, 0]
    for i in range(1, zeta.shape[1]):
        expo += zeta[:, i:i + 1] * ev[:, i]
    den = orbit.cartan._table.signs[:, None] * _vandermonde(ev)
    return expo, den, orbit._multiplicities[:, None] * np.exp(expo) / den


def _term_sum(orbit: OrbitSpec, ev: np.ndarray) -> np.ndarray:
    """The label-ordered sum of each row's terms, (N,), _BLOCK terms at a time."""
    step = max(1, _BLOCK // math.factorial(orbit.algebra.n))
    total = np.empty(len(ev), complex)
    for lo in range(0, len(ev), step):
        terms = _terms(orbit, ev[lo:lo + step])[2]
        total[lo:lo + step] = np.add.accumulate(terms, axis=0)[-1]
    return total


def _evaluate(orbit: OrbitSpec, coords: np.ndarray, real: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outcome, value, spectrum and separation of each row of coordinates.

    Rows go through in blocks of at most _BLOCK matrix entries: per block
    one batched eigensolve and classification (algebra._spectra), the
    wall test, and the value of the rows left.  In the automatic modes
    rows of the real form take the closed form; the other rows, and every
    row in user_supplied mode, take the label-ordered term sum.  Values
    are 0 on _NONREAL rows and NaN on every refused row.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != orbit.algebra.dim:
        raise AlgebraError(f"expected rows of {orbit.algebra.dim} coordinates, "
                           f"got shape {coords.shape}")
    step = max(1, _BLOCK // orbit.algebra.n ** 2)
    blocks = [_evaluate_block(orbit, coords[lo:lo + step], real[lo:lo + step])
              for lo in range(0, len(coords), step)]
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _evaluate_block(orbit: OrbitSpec, coords: np.ndarray, real: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    code, ev, sep = _spectra(orbit.algebra, coords, real)
    # The wall test reads the returned spectrum, which for sl(n,R) is the
    # real part of the one the separation was measured on.
    i, j = _upper_pairs(orbit.algebra.n)
    gaps = np.abs(ev[:, i] - ev[:, j])
    wall = gaps.min(axis=1) < WALL_TOL * np.maximum(1.0, gaps.max(axis=1))
    code[(code == _REGULAR) & wall] = _WALL
    ok = code == _REGULAR
    values = np.where(code == _NONREAL, 0j, complex("nan"))
    summed = ok
    if orbit.mode in RULES:
        # Rows off the real form (complex coordinates) keep the term sum,
        # so their value is exactly the sum of their reported terms.  An
        # su(n) spectrum there has real parts, and so do the exponents: a
        # few terms carry the sum, each with its exponent's rounding, about
        # eps |exponent| of the term, and no other double precision form
        # of the sum matches the term sum to 1e-14 sum |terms|.
        closed = ok & real
        values[closed] = _closed_form(orbit, ev[closed])
        summed = ok & ~real
    if summed.any():
        values[summed] = _term_sum(orbit, ev[summed])
    return code, values, ev, sep


def fourier_value(orbit: OrbitSpec, x: AlgebraElement,
                  on_degenerate: str = "raise") -> EvalResult:
    """Evaluate the transform at a regular semisimple element.

    Raises DegenerateInputError near root hyperplanes unless
    ``on_degenerate="flag"``, in which case a degenerate result row is
    returned instead.  Raises AlgebraError when x is not regular
    semisimple or has non-finite coordinates, and
    IndeterminateRegularityError in the indeterminate band.  The result
    is row 0 of the batch kernel, so it equals the ``fourier_grid`` row
    of x bit for bit.
    """
    real = np.array([not np.iscomplexobj(x.coords)])
    codes, values, spectra, seps = _evaluate(orbit, x.coords[None], real)
    code = int(codes[0])
    _refuse_row(code, float(seps[0]), walls=on_degenerate == "raise")
    if code == _NONREAL:
        return _OUTSIDE
    if code == _WALL:
        return _DEGENERATE
    return _valued(orbit, complex(values[0]), spectra[0])


def _refuse_row(code: int, sep: float, walls: bool = True) -> None:
    """Raise what ``fourier_value`` raises for a row's outcome, if anything.

    Wall rows raise only when ``walls`` is set.
    """
    _refuse(code, sep)
    if code == _SINGULAR:
        raise AlgebraError("evaluation point must be regular semisimple")
    if code == _WALL and walls:
        raise DegenerateInputError(
            "evaluation point within tolerance of a root hyperplane"
        )


def fourier_grid(orbit: OrbitSpec,
                 samples: Sequence[AlgebraElement] | np.ndarray,
                 ) -> tuple[EvalResult, ...]:
    """Evaluate a batch; degenerate or non-regular rows are flagged, not dropped.

    ``samples`` is a sequence of elements or an (N, dim) array of basis
    coordinates (real rows lie in the real form).  Row k equals
    ``fourier_value(orbit, samples[k], on_degenerate="flag")`` bit for bit,
    or is the degenerate row where that raises (non-regular,
    indeterminate or non-finite points); output order matches input
    order.  The whole batch is one pass of the block kernel: per block one
    batched eigensolve, then the value of every valued row.  Rows build
    their term breakdown only when it is read.
    """
    if isinstance(samples, np.ndarray):
        coords = samples
        real = np.full(len(coords), not np.iscomplexobj(coords))
    else:
        coords = [x.coords for x in samples]
        real = np.array([not np.iscomplexobj(c) for c in coords], dtype=bool)
    if len(coords) == 0:
        return ()
    codes, values, spectra, _ = _evaluate(orbit, coords, real)
    out = []
    for k, (code, value) in enumerate(zip(codes.tolist(), values.tolist())):
        if code == _REGULAR:
            out.append(_valued(orbit, value, spectra[k]))
        else:
            out.append(_OUTSIDE if code == _NONREAL else _DEGENERATE)
    return tuple(out)


# ---------------------------------------------------------------------------
# Analytic property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CasimirCheck:
    residual: float
    relative: bool          # False when |F| was too small for a ratio
    eigenvalue: complex
    value: complex


def _orthogonal_directions(spec: AlgebraSpec) -> tuple[np.ndarray, np.ndarray]:
    """Killing-orthonormal coordinate directions and their signature signs."""
    evals, vecs = np.linalg.eigh(spec.killing)
    signs = np.sign(evals)
    dirs = vecs / np.sqrt(np.abs(evals))
    return dirs, signs


def casimir_check(orbit: OrbitSpec, x: AlgebraElement,
                  step: float = 1e-3) -> CasimirCheck:
    """Finite-difference check of the second-order eigenvalue identity.

    Applies the flat quadratic invariant operator (Killing-orthonormal
    second derivatives weighted by signature) and compares with
    multiplication by the Casimir eigenvalue of the orbit parameter.  Each
    second derivative is the fourth-order five-point stencil
    (-f(x+2h) + 16 f(x+h) - 30 f(x) + 16 f(x-h) - f(x-2h)) / (12 h^2), all
    stencil points valued in one batch.
    """
    spec = orbit.algebra
    dirs, signs = _orthogonal_directions(spec)
    # Row 0 is x, rows 4i+1 .. 4i+4 are x + step * direction i times 1,
    # -1, 2 and -2: x - step * d comes before x +- 2 step * d.
    stencil = np.repeat(x.coords[None], 4 * spec.dim + 1, axis=0)
    for k, t in enumerate((step, -step, 2.0 * step, -2.0 * step)):
        stencil[1 + k::4] += t * dirs.T
    codes, values, _, seps = _evaluate(
        orbit, stencil, np.full(len(stencil), not np.iscomplexobj(x.coords)))
    refused = np.flatnonzero((codes != _REGULAR) & (codes != _NONREAL))
    if refused.size:
        # Raise what fourier_value raises for the first refused point.
        _refuse_row(int(codes[refused[0]]), float(seps[refused[0]]))
    base, *moved = values.tolist()
    acc = 0.0 + 0.0j
    for sign, fp, fm, fpp, fmm in zip(signs, moved[::4], moved[1::4],
                                      moved[2::4], moved[3::4]):
        acc += sign * (-fpp + 16.0 * fp - 30.0 * base + 16.0 * fm - fmm) \
            / (12.0 * step * step)
    eig = orbit.casimir_eigenvalue()
    err = abs(acc - eig * base)
    if abs(base) < 1e-12:
        return CasimirCheck(residual=float(err), relative=False,
                            eigenvalue=eig, value=base)
    return CasimirCheck(residual=float(err / abs(base)), relative=True,
                        eigenvalue=eig, value=base)


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    ad_difference: float
    weyl_differences: Mapping[str, float]
    flagged: bool


def _generator_exp(e: np.ndarray, c: float) -> np.ndarray:
    """exp(c e) for a basis generator e of su(n) or sl(n,R), in closed form.

    Every such generator is traceless and lives on one 2 x 2 block (the
    rows and columns p < q where it is nonzero), so exp(c e) is the
    identity off that block.  On it B = c e has B^2 = delta I, delta =
    -det B, so exp(B) = cosh(sqrt delta) I + sinh(sqrt delta) / sqrt delta
    B, which is I + B when delta = 0.
    """
    idx = np.flatnonzero(np.any(e, axis=0) | np.any(e, axis=1))
    pq = np.ix_(idx, idx)
    block = c * e[pq]
    root = cmath.sqrt(block[0, 1] * block[1, 0] - block[0, 0] * block[1, 1])
    g = np.eye(len(e), dtype=complex)
    g[pq] = cmath.cosh(root) * np.eye(2) + (cmath.sinh(root) / root
                                            if root else 1.0) * block
    return g


def random_group_element(spec: AlgebraSpec,
                         rng: np.random.Generator) -> np.ndarray:
    """Product of four n x n exp(0.4 z e_i), i uniform, z standard normal."""
    g = np.eye(spec.n, dtype=complex)
    for _ in range(4):
        i = int(rng.integers(0, spec.dim))
        c = 0.4 * float(rng.standard_normal())
        g = g @ _generator_exp(spec.basis[i], c)
    return g


def invariance_checks(orbit: OrbitSpec, x: AlgebraElement,
                      g: np.ndarray) -> InvarianceReport:
    """|F(Ad(g)x) - F(x)| and, in compact mode, |F_(w.weight)(x) - F(x)|.

    x and Ad(g)x are one two-row batch.  A refused x raises what
    ``fourier_value`` raises; a wall or indeterminate Ad(g)x is flagged.
    Each F_(w.weight)(x) is valued at the spectrum of x from that batch,
    as the block kernel values the row x, so it equals
    ``fourier_value(make_orbit(..., w.weight), x)`` bit for bit.
    """
    # A non-finite x is refused below, before its image is read.
    with np.errstate(over="ignore", invalid="ignore"):
        gx = element_from_matrix(
            orbit.algebra, np.asarray(g) @ x.matrix @ np.linalg.inv(np.asarray(g))
        )
    real = np.array([not np.iscomplexobj(x.coords), not np.iscomplexobj(gx.coords)])
    codes, values, spectra, seps = _evaluate(
        orbit, np.stack([x.coords, gx.coords]), real)
    _refuse_row(int(codes[0]), float(seps[0]))
    base = complex(values[0])
    flagged = int(codes[1]) in (_WALL, _INDETERMINATE)
    if flagged:
        ad_diff = float("nan")
    else:
        _refuse_row(int(codes[1]), float(seps[1]))
        ad_diff = abs(complex(values[1]) - base)

    weyl_diffs: dict[str, float] = {}
    if orbit.mode == "compact":
        # The w-image of the parameter has the diagonal zeta_(w^-1 i), and
        # its weight coordinates are the partial sums of that diagonal;
        # make_orbit reads them back into a canonical diagonal.  x is
        # regular here, and its value takes the closed form on the real
        # form and the term sum off it, as in _evaluate_block.
        moved = np.array([
            sorted(_diagonal(tuple(np.cumsum(orbit.zeta[pos])[:-1].tolist())))[::-1]
            for pos in orbit.cartan._table.pos])
        if real[0]:
            values = _closed_form(orbit, spectra[:1], moved[:, None, :])
        else:
            # The term sum reads the orbit's diagonal, table and
            # multiplicities; only the diagonal moves.
            values = [_term_sum(replace(orbit, zeta=zeta), spectra[:1])[0]
                      for zeta in moved]
        for label, value in zip(orbit.cartan._labels, values):
            weyl_diffs[label] = abs(complex(value) - base)
    return InvarianceReport(
        ad_difference=ad_diff, weyl_differences=weyl_diffs, flagged=flagged
    )

