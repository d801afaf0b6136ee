"""Accuracy of ``oracle._j0``, the Bessel J0 of the hyperboloid oracle.

Every value is compared with 50-digit mpmath.  Up to 8 the bound is an
absolute 1e-15.  Beyond 8 it is eps (1 + x) sqrt(2 / (pi x)): the envelope
of J0 times the size of one rounding of x, which is what a phase formed
from a rounded x - pi/4 costs.  scipy's ``j0`` (Cephes) goes through the
same test as the reference for the bounds.  The coefficients come from
``tests/fit_j0.py``.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from orbit_localize.oracle import _j0

EPS = np.finfo(float).eps


def _grids():
    with mp.workdps(50):
        zeros = [float(mp.besseljzero(0, k)) for k in range(1, 21)]
    return {
        "[0, 8]": np.linspace(0.0, 8.0, 4001),
        "(8, 1e3]": np.linspace(8.0, 1e3, 2501)[1:],
        # The hyperbolic-angle quadrature of `verify` on sl(2,R) meets
        # arguments up to 206.6; these go on to 10^6.
        "log to 1e6": np.logspace(math.log10(8.0), 6.0, 301)[1:],
        "zeros": np.array(zeros),
    }


@pytest.fixture(scope="module")
def references():
    refs = {}
    with mp.workdps(50):
        for name, x in _grids().items():
            refs[name] = x, np.array([float(mp.besselj(0, mp.mpf(v))) for v in x])
    return refs


def _bound(x):
    far = np.maximum(x, 8.0)
    return np.where(x <= 8.0, 1e-15, EPS * (1.0 + far) * np.sqrt(2.0 / (np.pi * far)))


@pytest.mark.parametrize("j0", [_j0, scipy_j0], ids=["_j0", "scipy"])
@pytest.mark.parametrize("grid", ["[0, 8]", "(8, 1e3]", "log to 1e6", "zeros"])
def test_j0_within_bound_of_mpmath(references, j0, grid):
    x, ref = references[grid]
    err = np.abs(j0(x) - ref)
    worst = int(np.argmax(err / _bound(x)))
    assert err[worst] <= _bound(x)[worst], (x[worst], err[worst])


def test_j0_is_even_and_keeps_nan_and_shape():
    x = np.concatenate([np.linspace(0.0, 20.0, 2001), np.logspace(1, 6, 101)])
    assert np.array_equal(_j0(-x), _j0(x))
    assert np.isnan(_j0(np.array([np.nan, 1.0, 9.0, np.nan]))[[0, 3]]).all()
    assert np.isnan(_j0(np.nan))
    assert _j0(0.0) == 1.0 and _j0(0.0).shape == ()
    assert _j0(np.ones((2, 3))).shape == (2, 3)
    assert _j0(np.array([])).shape == (0,)
