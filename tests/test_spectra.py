"""Diagonal rows read by index against the matrix path, byte for byte.

``algebra._spectra`` reads a real-form row whose coordinates off the
Cartan are all 0.0 straight off its diagonal; every other row goes through
its matrix and LAPACK.  ``spectra_reference`` runs every row through the
matrix path, and the two must give the same outcome, spectrum and
separation bits on every row, whatever the rows beside it.
"""

import numpy as np
import pytest

import spectra_reference
from orbit_localize.algebra import (
    _INDETERMINATE, _NONFINITE, _REGULAR, _SINGULAR, _spectra, build_algebra,
)

FAMILIES_AND_N = [(family, n) for family in ("su", "sl_real") for n in range(2, 10)]

# Decades of the Cartan coordinates: ordinary ones, those where LAPACK
# rescales a matrix before solving (beyond about 2^+-459), those whose
# squares underflow or overflow the norm, and those where c_k - c_(k-1)
# overflows to inf.
DECADES = [0, -3, 5, -130, 130, -140, -146, -150, -160, 140, 146, 150, 154,
           -170, 170, -310, 300, 307]


def _cartan_rows(spec, rng):
    """(N, dim) real coordinates that are 0.0 off the Cartan."""
    n, r = spec.n, spec.rank
    blocks = []
    for e in DECADES:
        block = np.zeros((12, spec.dim))
        block[:, :r] = rng.standard_normal((12, r)) * np.float64(10.0) ** e
        blocks.append(block)
    # A rounded grid: ties (singular rows), exact zero eigenvalues and
    # signed zero coordinates.
    grid = np.zeros((60, spec.dim))
    grid[:, :r] = np.round(rng.uniform(-1.0, 1.0, (60, r)), 1)
    grid[:4, :r] = np.resize([-0.0, 0.0], r)
    grid[4, :r] = 0.3          # d = (0.3, 0, ..., 0, -0.3)
    blocks.append(grid)
    # Subnormal and non-finite coordinates, and +-1e300, entry by entry.
    special = np.zeros((40, spec.dim))
    special[:, :r] = rng.choice([0.5, -0.0, 5e-324, -1e-310, np.inf, -np.inf,
                                 np.nan, 1e300, -1e300], (40, r))
    blocks.append(special)
    # Separations in and around the indeterminate band.
    band = np.zeros((12, spec.dim))
    for k, rel in enumerate(np.geomspace(1e-9, 1e-6, 12)):
        d = np.arange(n, dtype=float)
        d[1] = d[0] + rel * np.sqrt(np.sum(d * d))
        band[k, :r] = np.cumsum(d - d.mean())[:-1]
    blocks.append(band)
    return np.concatenate(blocks)


def _mixed_rows(spec, rng):
    """Diagonal rows between off-Cartan ones, in one complex-dtype block,
    with ``real`` set on the rows of the real form."""
    diagonal = _cartan_rows(spec, rng)[::3]
    off = rng.standard_normal((len(diagonal), spec.dim))
    off[::2, spec.rank:] = 0.0
    off[::2, spec.rank] = -1e-300                  # one tiny off-Cartan entry
    complex_rows = (rng.standard_normal((len(diagonal), spec.dim))
                    + 1j * rng.standard_normal((len(diagonal), spec.dim)))
    complex_rows[::2, spec.rank:] = 0.0             # diagonal, complex entries
    coords = np.stack([diagonal, off, complex_rows], axis=1).reshape(-1, spec.dim)
    real = np.tile([True, True, False], len(diagonal))
    return coords, real


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family,n", FAMILIES_AND_N)
def test_diagonal_rows_match_the_matrix_path(family, n):
    spec = build_algebra(family, n)
    rng = np.random.default_rng(1000 + 10 * n + (family == "su"))
    coords = _cartan_rows(spec, rng)
    for real in (np.ones(len(coords), bool), rng.random(len(coords)) < 0.5):
        got = _spectra(spec, coords, real)
        _assert_same(got, spectra_reference.spectra(spec, coords, real))
        # Every outcome shows up among these rows; a diagonal su(2) or
        # sl(2,R) row has separation sqrt(2) or none.
        outcomes = {_REGULAR, _SINGULAR, _NONFINITE} | ({_INDETERMINATE} if n > 2 else set())
        assert outcomes <= set(got[0].tolist())
        # Each row alone, as a one-row block.  (On non-finite rows the
        # sign of the NaN separation may differ from the block's, on both
        # paths.)
        for k in range(0, len(coords), 7):
            one = coords[k:k + 1], real[k:k + 1]
            _assert_same(_spectra(spec, *one), spectra_reference.spectra(spec, *one))


@pytest.mark.parametrize("family,n", FAMILIES_AND_N)
def test_mixed_blocks_route_each_row_by_itself(family, n):
    spec = build_algebra(family, n)
    rng = np.random.default_rng(2000 + 10 * n + (family == "su"))
    coords, real = _mixed_rows(spec, rng)
    got = _spectra(spec, coords, real)
    _assert_same(got, spectra_reference.spectra(spec, coords, real))
    # The real rows of the block, as a real-dtype block of their own.
    alone = _spectra(spec, coords[real].real.copy(), real[real])
    _assert_same(alone, [a[real] for a in got])


@pytest.mark.parametrize("family,n", [("su", 4), ("su", 7), ("sl_real", 4), ("sl_real", 7)])
def test_diagonal_rows_take_no_eigensolver(monkeypatch, family, n):
    # n <= 3 is covered through the CLI, by
    # test_default_axis_eval_makes_no_lapack_call.
    spec = build_algebra(family, n)
    rng = np.random.default_rng(n)
    coords = np.zeros((500, spec.dim))
    coords[:, :spec.rank] = np.round(rng.uniform(-2.0, 2.0, (500, spec.rank)), 2)
    coords[0] = 0.0
    want = spectra_reference.spectra(spec, coords, np.ones(500, bool))

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    _assert_same(_spectra(spec, coords, np.ones(500, bool)), want)
