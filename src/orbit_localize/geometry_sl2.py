"""Explicit CP^1 model of the sl(2,C) flag variety.

Points are unit homogeneous pairs [z0 : z1]; Borel subalgebras are line
stabilizers.  Covectors live in one of the two affine charts (z = z1/z0 or
w = z0/z1), always the chart owning the larger homogeneous coordinate, with
the cotangent transformation rule between them.

Derived formulas (in the chart coordinate z at [1 : z], covector xi dz):

* the vector field of A = [[a, b], [c, -a]] is (c - 2 a z - b z^2) d/dz,
  so the moment covector has Killing-dual carrier
  (xi / 4) [[-z, 1], [-z^2, z]] -- visibly nilpotent;
* the stabilizer torus of x in SU(2) is generated by i(2 v v* - 1); the
  transported Cartan parameter at x has carrier (lam / 8)(1 - 2 v v*),
  normalized so the parameter value is +lam at the base point [0 : 1]
  (the Borel spanned by the Cartan and the negative root space).

Complex/real cotangent identifications follow the factor-two relation
between the real pairing and twice the real part of the complex pairing;
concretely, membership of a covector in a conormal space is the vanishing
of the real part of its chart component against real tangent directions.

Real-part norms of functionals are Frobenius norms of the real component
of their Killing-dual carriers.

Array layout.  The model computes on stacks of points.  N flag points are
an (N, 2) complex array of unit, phase-reduced pairs with an (N,) int
array of owning charts; N covectors add an (N,) complex array of chart
components.  Algebra elements are (N, 3) complex coordinates on the model
basis (h, e, f), and their Killing-dual carriers are (N, 2, 2) complex
stacks.  The private kernels (``_flags``, ``_carriers``, ``_stack``,
``_weights``, ``_moments``, ``_dets``, ``_inverse``, ``_invariant_defects``,
``_real_part_norms``, ``_real_line_defects``) work on these arrays, and
the three reports run on them; carriers are read back into coordinates by
the algebra's batched ``_in_span``.  ``flag_point``, ``group_action``,
``moment``, ``weight_at``, ``twisted_moment`` and ``twisted_moment_inverse``
are one-row wrappers that return the dataclasses below.

The kernels solve each traceless carrier t = [[a, b], [c, -a]] in closed
form: its coordinates are (a, b, c), its determinant is -(a^2 + bc), and
the eigenline of the inverse twisted moment is a kernel vector of t - mu
(see ``_inverse``), with no LAPACK call.  They compute entry by entry on
(N,) columns with elementwise numpy operations, which round each element
alike whatever the batch size, so a row of a batch equals the one-row
wrapper bit for bit.  Every refusal is checked row by row and raised for
the first failing row in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .algebra import (AlgebraElement, AlgebraError, _in_span, _row_element,
                      build_algebra)

__all__ = [
    "FlagPoint",
    "CotangentPoint",
    "model_algebra",
    "flag_point",
    "cotangent_point",
    "group_action",
    "moment",
    "weight_at",
    "twisted_moment",
    "twisted_moment_inverse",
    "scale_cotangent",
    "OrbitImageReport",
    "orbit_image_check",
    "FiberReport",
    "fiber_structure_check",
    "ScalingReport",
    "cycle_scaling_limit",
]

_MODEL = build_algebra("sl_real", 2)
_BASIS = _MODEL.basis.reshape(3, 4)
_RESOLUTION = 72   # polar angles of the sphere grid; twice as many azimuths

# Orbit samples: AlgebraElements, or their (N, 3) coordinate rows.
Samples = Union[Sequence[AlgebraElement], np.ndarray]


def model_algebra():
    """The sl(2,R) realization underlying the model."""
    return _MODEL


# ---------------------------------------------------------------------------
# Array kernels
# ---------------------------------------------------------------------------

def _sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each complex entry, in real arithmetic."""
    return z.real ** 2 + z.imag ** 2


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (N, 2) array."""
    return np.sqrt(_sq(a[:, 0]) + _sq(a[:, 1]))


def _hypot(z: np.ndarray) -> np.ndarray:
    """|z| as ``abs`` of one complex scalar computes it."""
    return np.hypot(z.real, z.imag)


def _flags(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit, phase-reduced pairs and owning charts of (N, 2) homogeneous pairs."""
    v = np.array(z, dtype=complex).reshape(-1, 2)
    nrm = _norms(v)
    if np.any(nrm < 1e-150):
        raise AlgebraError("flag point requires a nonzero homogeneous pair")
    v = v / nrm[:, None]
    lead = np.where(np.abs(v[:, 1]) > np.abs(v[:, 0]), v[:, 1], v[:, 0])
    v = v * np.conj(lead / _hypot(lead))[:, None]
    chart = np.where(_hypot(v[:, 0]) >= _hypot(v[:, 1]), 0, 1)
    return v, chart


def _carriers(coords: np.ndarray) -> np.ndarray:
    """(N, 2, 2) carriers of (N, 3) coordinates, as ``AlgebraElement.matrix``."""
    return np.dot(coords, _BASIS).reshape(-1, 2, 2)


def _stack(h: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(N, 3) coordinates of the carriers [[h, e], [f, -h]], read as
    ``element_from_matrix`` reads one: (h, e, f), with a row's imaginary
    part dropped where all of it is below 1e-12."""
    t = np.empty(h.shape + (2, 2), dtype=complex)
    t[:, 0, 0], t[:, 0, 1], t[:, 1, 0], t[:, 1, 1] = h, e, f, -h
    return _in_span(_MODEL, t)


def _weights(v: np.ndarray, lam: complex) -> np.ndarray:
    """Coordinates of the parameter transported to the flag points v.

    The carrier (lam/8)(1 - 2 v v*), entry by entry: for a unit pair its h
    coordinate is (lam/8)(|v1|^2 - |v0|^2), and its e and f coordinates are
    -(lam/4) v0 conj(v1) and -(lam/4) v1 conj(v0).  The products are named:
    numpy multiplies a large unnamed temporary by a complex scalar in place,
    which rounds differently, so a row would depend on the batch size.
    """
    k = lam / 8.0
    cross = v[:, 0] * np.conj(v[:, 1])
    cross_conj = np.conj(cross)
    return _stack(k * (_sq(v[:, 1]) - _sq(v[:, 0])),
                  (-2.0 * k) * cross, (-2.0 * k) * cross_conj)


def _moments(v: np.ndarray, chart: np.ndarray,
             component: np.ndarray) -> np.ndarray:
    """Coordinates of the moment images of covectors at the flag points v.

    In chart 0 the carrier is c [[-t, 1], [-t^2, t]], in chart 1
    c [[t, -t^2], [1, -t]], with c = component/4 and t the chart coordinate.
    """
    c = component / 4.0
    on0 = chart == 0
    t = np.where(on0, v[:, 1], v[:, 0]) / np.where(on0, v[:, 0], v[:, 1])
    ct = c * t
    ctt = -(ct * t)
    return _stack(np.where(on0, -ct, ct), np.where(on0, c, ctt),
                  np.where(on0, ctt, c))


def _dets(t: np.ndarray) -> np.ndarray:
    """Determinants -(a^2 + bc) of traceless carriers [[a, b], [c, -a]]."""
    a = t[:, 0, 0]
    return -(a * a + t[:, 0, 1] * t[:, 1, 0])


def _invariant_defects(t: np.ndarray, lam: complex) -> np.ndarray:
    """Relative mismatch of det(carrier) against the orbit's invariant."""
    target = -(lam / 8.0) ** 2
    scale = max(1.0, abs(target))
    return _hypot(_dets(t) - target) / scale


def _inverse(t: np.ndarray, lam: complex
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base points, charts and chart components of the covectors whose
    twisted moments are the (N, 2, 2) carriers t; carriers whose relative
    invariant mismatch exceeds 1e-8 (or is NaN) are refused.

    The base is the eigenline of t for mu, the root of a^2 + bc nearest
    -lam/8.  (t - mu) annihilates (b, mu - a) and (mu + a, c); the one of
    larger norm is taken.  With t divided by its largest entry, that vector
    has a norm of at least 1/sqrt(2) whatever the size of t, so nothing
    underflows or overflows; the zero carrier takes the eigenline (1, 0), as
    LAPACK does.  An imaginary carrier on the orbit of an imaginary lam has
    an imaginary mu, so both vectors are imaginary and the base point is
    exactly real.
    """
    defect = _invariant_defects(t, lam)
    bad = np.flatnonzero(~(defect <= 1e-8))
    if bad.size:
        raise AlgebraError(
            "point is off the parameter orbit: invariant mismatch "
            f"{defect[bad[0]]:.3e}"
        )
    size = np.fmax(np.fmax(_hypot(t[:, 0, 0]), _hypot(t[:, 0, 1])),
                   _hypot(t[:, 1, 0]))
    zero = size == 0.0
    size[zero] = 1.0
    # Divided part by part: numpy's complex division takes the reciprocal
    # of the divisor, which overflows for a subnormal size.
    u = np.empty_like(t)
    u.real, u.imag = t.real / size[:, None, None], t.imag / size[:, None, None]
    a, b, c = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0]
    root = np.sqrt(a * a + b * c)
    # The root on the far side of lam is the nearer to -lam/8.
    far = root.real * np.real(lam) + root.imag * np.imag(lam) < 0.0
    mu = np.where(far, root, -root)
    first = np.stack([b, mu - a], axis=1)
    second = np.stack([mu + a, c], axis=1)
    z = np.where((_norms(first) >= _norms(second))[:, None], first, second)
    z[zero] = (1.0, 0.0)
    v, chart = _flags(z)
    w = _weights(v, lam)
    component = 4.0 * np.where(chart == 0, t[:, 0, 1] - w[:, 1],
                               t[:, 1, 0] - w[:, 2])
    return v, chart, component


def _real_part_norms(t: np.ndarray) -> np.ndarray:
    """Frobenius norms of the real parts of (N, 2, 2) carriers."""
    r = t.real.reshape(-1, 4) ** 2
    return np.sqrt(r[:, 0] + r[:, 1] + r[:, 2] + r[:, 3])


def _real_line_defects(v: np.ndarray) -> np.ndarray:
    """Distances |Im(conj(z0) z1)| of unit pairs from RP^1."""
    return np.abs(v[:, 0].real * v[:, 1].imag - v[:, 0].imag * v[:, 1].real)


def _sample_carriers(samples: Samples) -> np.ndarray:
    """(N, 2, 2) carriers of elements or of (N, 3) coordinate rows."""
    if isinstance(samples, np.ndarray):
        coords = samples
    else:
        coords = [s.coords for s in samples]
    return _carriers(np.asarray(coords, dtype=complex).reshape(-1, 3))


# ---------------------------------------------------------------------------
# One-point API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlagPoint:
    """A point [z0 : z1], unit norm, phase-reduced, with its owning chart."""

    z0: complex
    z1: complex
    chart: int

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.z0, self.z1])

    @property
    def affine(self) -> complex:
        return self.z1 / self.z0 if self.chart == 0 else self.z0 / self.z1

    def real_line_defect(self) -> float:
        """Distance from RP^1 as |Im(conj(z0) z1)| of the unit pair."""
        return abs(np.imag(np.conj(self.z0) * self.z1))


def _flag_row(v: np.ndarray, chart: np.ndarray) -> FlagPoint:
    """The first flag point of a batch."""
    return FlagPoint(z0=complex(v[0, 0]), z1=complex(v[0, 1]),
                     chart=int(chart[0]))


def flag_point(z0: complex, z1: complex) -> FlagPoint:
    return _flag_row(*_flags(np.array([[z0, z1]], dtype=complex)))


@dataclass(frozen=True)
class CotangentPoint:
    """A covector at a flag point, stored in the point's owning chart."""

    base: FlagPoint
    component: complex


def cotangent_point(base: FlagPoint, component: complex) -> CotangentPoint:
    return CotangentPoint(base=base, component=complex(component))


def scale_cotangent(zeta: CotangentPoint, s: float) -> CotangentPoint:
    return CotangentPoint(base=zeta.base, component=s * zeta.component)


def group_action(g: np.ndarray, x: FlagPoint) -> FlagPoint:
    w = np.asarray(g, dtype=complex) @ x.vector
    return flag_point(w[0], w[1])


def moment(zeta: CotangentPoint) -> AlgebraElement:
    """Pairing of the covector with vector fields, as a Killing-dual carrier.

    The image is nilpotent: trace and determinant of the carrier vanish.
    """
    base = zeta.base
    return _row_element(_MODEL, _moments(base.vector[None], np.array([base.chart]),
                                         np.array([zeta.component]))[0])


def weight_at(x: FlagPoint, lam: complex) -> AlgebraElement:
    """Cartan parameter transported to x, extended by zero on root spaces.

    ``lam`` is the parameter's value on diag(1,-1).  Equivariant under the
    compact form: weight_at(u.x) = u weight_at(x) u^-1 for u in SU(2).
    """
    return _row_element(_MODEL, _weights(x.vector[None], lam)[0])


def twisted_moment(zeta: CotangentPoint, lam: complex) -> AlgebraElement:
    """Moment plus transported parameter; lands on the parameter's orbit."""
    return moment(zeta) + weight_at(zeta.base, lam)


def twisted_moment_inverse(nu: AlgebraElement, lam: complex) -> CotangentPoint:
    """The unique covector mapping to a point of the parameter's orbit.

    The base is the carrier eigenline for eigenvalue -lam/8 (the base Borel
    convention); the fiber component is read off the chart pattern of the
    moment carrier.  Off-orbit inputs are rejected with the invariant
    mismatch.
    """
    v, chart, component = _inverse(nu.matrix[None], lam)
    return CotangentPoint(base=_flag_row(v, chart),
                          component=complex(component[0]))


# ---------------------------------------------------------------------------
# Orbit-image, fiber and scaling-limit reports
# ---------------------------------------------------------------------------

def _max_real_weight_norm(lam: complex) -> float:
    """Largest real-part norm of the transported parameter on a
    _RESOLUTION x 2 _RESOLUTION grid of polar angles over the sphere."""
    theta = np.linspace(0.0, np.pi, _RESOLUTION)[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * _RESOLUTION, endpoint=False)[None, :]
    z0 = np.broadcast_to(np.cos(theta / 2.0), (_RESOLUTION, 2 * _RESOLUTION))
    z1 = np.sin(theta / 2.0) * np.exp(1j * phi)
    v, _ = _flags(np.stack([z0, z1], axis=-1))
    norms = _real_part_norms(_carriers(_weights(v, lam)))
    return float(max(0.0, norms.max()))


@dataclass(frozen=True, eq=False)
class OrbitImageReport:
    base_defects: np.ndarray       # distance of projected points from RP^1
    real_part_norms: np.ndarray    # |Re| of the moment along the orbit
    real_part_bound: float         # compact maximum of |Re| of the parameter

    @property
    def max_base_defect(self) -> float:
        return float(self.base_defects.max())

    @property
    def max_real_part(self) -> float:
        return float(self.real_part_norms.max())


def orbit_image_check(lam: complex, samples: Samples) -> OrbitImageReport:
    """Project real-orbit points through the inverse twisted moment.

    All projected base points must land on RP^1 (the single closed real
    orbit), and the moment of each preimage must have real part below the
    compact maximum of the transported parameter's real part.  ``samples``
    are elements or their (N, 3) coordinate rows.
    """
    v, chart, component = _inverse(_sample_carriers(samples), lam)
    return OrbitImageReport(
        base_defects=_real_line_defects(v),
        real_part_norms=_real_part_norms(
            _carriers(_moments(v, chart, component))),
        real_part_bound=_max_real_weight_norm(lam),
    )


@dataclass(frozen=True, eq=False)
class FiberReport:
    t_values: tuple[float, ...]
    invariant_drift: np.ndarray    # orbit-membership defect of translated points
    base_drift: np.ndarray         # base-point movement through the inverse
    conormal_defect: np.ndarray    # |Re| of the fiber offset per unit size
    flag_dim: int
    orbit_dim: int
    conormal_dim: int


def fiber_structure_check(lam: complex, nu: AlgebraElement,
                          t_values: Sequence[float]) -> FiberReport:
    """Translate along the nilradical direction and probe the fiber.

    The translated points nu + i t I(n) stay on the orbit (a ruling of the
    hyperboloid), their preimages share the base point, and the covector
    offsets are purely conormal to RP^1 (vanishing real chart component).
    """
    t_mat = nu.matrix
    v0, _, component0 = _inverse(t_mat[None], lam)
    if _real_line_defects(v0)[0] > 1e-8:
        raise AlgebraError("fiber check requires a point over the real orbit")
    v = np.real(v0[0])
    v = v / np.linalg.norm(v)
    nil = np.outer(v, np.array([v[1], -v[0]]))

    t = np.array([float(s) for s in t_values])
    moved = _carriers(_in_span(_MODEL, t_mat + (1j * t)[:, None, None] * nil))
    vt, _, component = _inverse(moved, lam)
    offset = component - component0
    return FiberReport(
        t_values=tuple(t.tolist()),
        invariant_drift=_invariant_defects(moved, lam),
        base_drift=_norms(vt - v0),
        conormal_defect=np.abs(offset.real) / np.fmax(1.0, _hypot(offset)),
        flag_dim=2,
        orbit_dim=1,
        conormal_dim=2 - 1,
    )


@dataclass(frozen=True, eq=False)
class ScalingReport:
    s_schedule: tuple[float, ...]
    base_defects: np.ndarray       # max distance of bases from RP^1, per s
    moment_defects: np.ndarray     # max |Re| of the scaled moment, per s
    identity_at_one: bool
    slope: float                   # log-log rate of the moment defect
    at_floor: bool                 # defects already at roundoff before scaling


_DEFECT_FLOOR = 1e-12


def cycle_scaling_limit(lam: complex, s_schedule: Sequence[float],
                        samples: Samples) -> ScalingReport:
    """Fiber-scale preimages of real-orbit points and measure conic defects.

    For each scale s the report records the distance of base points from
    RP^1 and the failure of the scaled moment to be purely imaginary.  The
    moment is fiberwise linear, so the second defect scales exactly with s;
    for this split orbit the unscaled set already sits inside the purely
    imaginary locus up to roundoff, which the ``at_floor`` flag records.
    ``samples`` are elements or their (N, 3) coordinate rows.
    """
    s_schedule = tuple(float(s) for s in s_schedule)
    if not s_schedule or s_schedule[0] > 1.0 or any(
        b >= a for a, b in zip(s_schedule, s_schedule[1:])
    ):
        raise AlgebraError("scale schedule must decrease within (0, 1]")
    v, chart, component = _inverse(_sample_carriers(samples), lam)
    identity = bool(np.all(1.0 * component == component))

    # Scaling moves the covector only, so the bases are the same at every s.
    base_defects = np.full(len(s_schedule), _real_line_defects(v).max())
    moment_defects = np.array([
        _real_part_norms(_carriers(_moments(v, chart, s * component))).max()
        for s in s_schedule
    ])
    at_floor = bool(moment_defects[0] < _DEFECT_FLOOR)

    positive = moment_defects > 1e-300
    if positive.sum() >= 2:
        ls = np.log(np.asarray(s_schedule)[positive])
        ld = np.log(moment_defects[positive])
        slope = float(np.polyfit(ls, ld, 1)[0])
    else:
        slope = float("nan")
    return ScalingReport(
        s_schedule=s_schedule,
        base_defects=base_defects,
        moment_defects=moment_defects,
        identity_at_one=identity,
        slope=slope,
        at_floor=at_floor,
    )
