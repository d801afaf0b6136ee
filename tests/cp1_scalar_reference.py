"""One-point reference for the CP^1 model in ``orbit_localize.geometry_sl2``.

These are the model's formulas evaluated one flag point at a time, through
``element_from_matrix`` and 2 x 2 LAPACK calls per point, as the package
computed them before its array kernels.  Tests compare the kernels, the
one-row wrappers and the reports against them.
"""

import numpy as np

from orbit_localize.algebra import AlgebraError, element_from_matrix
from orbit_localize.geometry_sl2 import CotangentPoint, FlagPoint, model_algebra

MODEL = model_algebra()


def flag_point(z0, z1):
    v = np.array([z0, z1], dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm < 1e-150:
        raise AlgebraError("flag point requires a nonzero homogeneous pair")
    v = v / nrm
    i = int(np.argmax(np.abs(v)))
    phase = v[i] / abs(v[i])
    v = v * np.conj(phase)
    chart = 0 if abs(v[0]) >= abs(v[1]) else 1
    return FlagPoint(z0=complex(v[0]), z1=complex(v[1]), chart=chart)


def moment(zeta):
    c = zeta.component / 4.0
    t = zeta.base.affine
    if zeta.base.chart == 0:
        m = c * np.array([[-t, 1.0], [-t * t, t]])
    else:
        m = c * np.array([[t, -t * t], [1.0, -t]])
    return element_from_matrix(MODEL, m)


def weight_at(x, lam):
    v = x.vector
    carrier = (lam / 8.0) * (np.eye(2) - 2.0 * np.outer(v, np.conj(v)))
    return element_from_matrix(MODEL, carrier)


def twisted_moment(zeta, lam):
    return moment(zeta) + weight_at(zeta.base, lam)


def invariant_defect(carrier, lam):
    target = -(lam / 8.0) ** 2
    scale = max(1.0, abs(target))
    return abs(np.linalg.det(carrier) - target) / scale


def twisted_moment_inverse(nu, lam, tol=1e-8):
    t = nu.matrix
    defect = invariant_defect(t, lam)
    if defect > tol:
        raise AlgebraError(
            f"point is off the parameter orbit: invariant mismatch {defect:.3e}"
        )
    ev, vecs = np.linalg.eig(t)
    idx = int(np.argmin(np.abs(ev + lam / 8.0)))
    x = flag_point(vecs[0, idx], vecs[1, idx])
    m = t - weight_at(x, lam).matrix
    comp = 4.0 * m[0, 1] if x.chart == 0 else 4.0 * m[1, 0]
    return CotangentPoint(base=x, component=complex(comp))


def real_part_norm(x):
    m = x.matrix
    return float(np.linalg.norm((m + np.conj(m)) / 2.0))


def max_real_weight_norm(lam, resolution=72):
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, resolution):
        for phi in np.linspace(0.0, 2.0 * np.pi, 2 * resolution, endpoint=False):
            x = flag_point(np.cos(theta / 2.0),
                           np.sin(theta / 2.0) * np.exp(1j * phi))
            worst = max(worst, real_part_norm(weight_at(x, lam)))
    return worst


def orbit_image(lam, samples, inverse=twisted_moment_inverse):
    """(base defects, moment real-part norms) of the projected samples;
    ``inverse`` projects them."""
    base, re_norm = [], []
    for nu in samples:
        zeta = inverse(nu, lam)
        base.append(zeta.base.real_line_defect())
        re_norm.append(real_part_norm(moment(zeta)))
    return np.array(base), np.array(re_norm)


def scaling_defects(lam, s_schedule, samples, inverse=twisted_moment_inverse):
    """(base defects, moment defects) per scale, as ``cycle_scaling_limit``;
    ``inverse`` projects the samples."""
    zetas = [inverse(nu, lam) for nu in samples]
    base, mom = [], []
    for s in s_schedule:
        scaled = [CotangentPoint(z.base, s * z.component) for z in zetas]
        base.append(max(z.base.real_line_defect() for z in scaled))
        mom.append(max(real_part_norm(moment(z)) for z in scaled))
    return np.array(base), np.array(mom)
