"""The batched evaluator against the independent mpmath reference.

``perfbench/reference.py`` evaluates the fixed-point sum at 30 digits over
the S_n permutation table, from mpmath's own eigenvalues, and shares no
code with the package.  The package reports the closed form of that sum
in these automatic modes, det M / V (su) or s0 perm M / V (sl) with
M = exp(outer(ev, s zeta)), and builds no table for the value.  A row may
differ from the reference by what double precision costs at the row's own
spectrum x, times sum |term|:

* the numerator: each entry of M carries a phase error of about eps times
  its exponent.  The entries are unimodular, so sum |term| = n! / |V|,
  and the LU determinant or Glynn's permanent rounds by a few eps times
  n!, a few eps sum |term| in the value (against the term sum over W,
  which this bound was first set for, 1.7e-15 sum |term| at most on
  su(2..7) and sl(2..7,R)).  Together 2 eps (1 + max |exponent|), the
  largest exponent read off the row's term breakdown;
* the eigensolve: an error delta in the eigenvalues moves every exponent
  by at most 2n sum |zeta| delta and every Vandermonde denominator by a
  relative sum over i < j of 2 delta / |x_i - x_j|.

Split points are drawn as g diag(d) g^-1 with a real diagonal d, so they
lie in the split class and take the fixed-point sum rather than the
structural zero; g is orthogonal, so their spectra are as well conditioned
as compact ones.
"""

import importlib.util
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from orbit_localize.algebra import (
    build_algebra,
    element,
    element_from_matrix,
    standard_spectrum,
)
from orbit_localize.localize import fourier_grid, make_orbit

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
EPS = np.finfo(float).eps


def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _points(spec, rng, count):
    if spec.family == "su":
        return rng.standard_normal((count, spec.dim))
    rows = []
    for _ in range(count):
        g = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))[0]
        d = rng.standard_normal(spec.n)
        m = g @ np.diag(d - d.mean()) @ g.T
        rows.append(element_from_matrix(spec, m).coords)
    return np.array(rows)


@pytest.mark.parametrize("family,n,weight", [
    ("su", 2, (1.3,)),
    ("su", 3, (0.9, 0.4)),
    ("su", 4, (0.9, 0.4, 0.3)),
    ("su", 5, (0.3, -0.2, 0.5, 0.1)),
    ("sl_real", 2, (1.0,)),
    ("sl_real", 3, (0.9, 0.4)),
    ("sl_real", 4, (0.9, 0.4, 0.15)),
    ("sl_real", 5, (0.2, -0.7, 0.4, 0.3)),
    ("su", 6, (0.4, -0.3, 0.6, 0.1, -0.5)),
    ("sl_real", 6, (0.5, 0.2, -0.6, 0.3, -0.1)),
])
def test_grid_matches_mpmath_reference(family, n, weight):
    reference = _load_reference()
    spec = build_algebra(family, n)
    orbit = make_orbit(spec, weight)
    with mp.workdps(reference.DPS):
        zeta_abs = float(sum(abs(z) for z in reference.dominant_zeta(family, n, weight)))
    i, j = np.triu_indices(n, 1)
    coords = _points(spec, np.random.default_rng(7 * n), 16)
    worst = 0.0
    for x, row in zip(coords, fourier_grid(orbit, coords)):
        ref = reference.fourier(family, n, weight, orbit.s0, x.tolist())
        assert ref.checkable and not ref.outside
        assert row.conjugacy == "cartan" and not row.degenerate
        with mp.workdps(reference.DPS):
            exact, _ = reference.spectrum(family, reference.coords_to_matrix(
                family, n, x.tolist()))
        exact = np.array([complex(v) for v in exact])
        delta = np.max(np.abs(standard_spectrum(element(spec, x)) - exact))
        top = max(abs(t.exponent) for t in row.terms)
        bound = ref.term_abs_sum * (
            2.0 * EPS * (1.0 + top)
            + delta * (2 * n * zeta_abs + np.sum(2.0 / np.abs(exact[i] - exact[j])))
        )
        worst = max(worst, abs(row.value - ref.value) / bound)
    assert worst <= 1.0
