"""The general spectral path of ``orbit_localize.algebra._spectra``.

Every row goes through its defining matrix: the complex basis product and
one LAPACK eigensolve per matrix (``eigvalsh`` for real-form su(n) rows,
``eigvals`` otherwise), as the package computed every row before diagonal
rows came to be read by index.  Tests compare ``_spectra`` with it byte for
byte.
"""

import numpy as np

from orbit_localize.algebra import (
    REGULAR_TOL, _INDETERMINATE, _NONFINITE, _NONREAL, _REGULAR, _SINGULAR,
    _non_real, _upper_pairs,
)


def spectra(spec, coords, real):
    """(status, ev, sep) of each row, through its matrix and LAPACK."""
    rows, n = len(coords), spec.n
    ev = np.zeros((rows, n), dtype=complex)
    i, j = _upper_pairs(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = coords @ spec.basis.reshape(spec.dim, n * n) + 0.0
        parts = m.view(np.float64)
        scale = np.sqrt(np.add.accumulate(parts * parts, axis=1)[:, -1])
        m = m.reshape(rows, n, n)
        solve = (scale > 0.0) & (scale < np.inf)
        hermitian = solve & real if spec.family == "su" else np.zeros(rows, bool)
        general = solve & ~hermitian
        if hermitian.any():
            ev[hermitian] = -1j * np.linalg.eigvalsh(1j * m[hermitian])
        if general.any():
            g = np.linalg.eigvals(m[general])
            order = np.lexsort((-g.imag, -g.real), axis=1)
            ev[general] = g[np.arange(len(g))[:, None], order]
        sep = np.abs(ev[:, i] - ev[:, j]).min(axis=1) / scale
    status = np.where(sep < 10 * REGULAR_TOL, _INDETERMINATE, _REGULAR).astype(np.int8)
    status[sep < REGULAR_TOL] = _SINGULAR
    if not solve.all():
        status[~solve] = np.where(np.isfinite(m[~solve]).all(axis=(1, 2)),
                                  _SINGULAR, _NONFINITE)
    if spec.family == "sl_real":
        status[(status == _REGULAR) & _non_real(ev)] = _NONREAL
        ev = ev.real.astype(complex)
    return status, ev, sep
