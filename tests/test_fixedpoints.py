"""Fixed-point enumeration, sign splits, support flags, multiplicities."""

import numpy as np
import pytest

from orbit_localize.algebra import AlgebraError, build_algebra, element_from_matrix
from orbit_localize.fixedpoints import (
    assign_multiplicities,
    closed_orbit_support,
    enumerate_fixed_points,
    is_regular_covector,
    split_positive_system,
)
from orbit_localize.localize import make_orbit, standard_cartan

RNG = np.random.default_rng(7)


def su2_cartan():
    return standard_cartan(build_algebra("su", 2))


def sl3_cartan():
    return standard_cartan(build_algebra("sl_real", 3))


def regular_covector(cartan):
    # Values of a generic regular covector on the Cartan basis.
    return np.arange(1.0, cartan.rank + 1.0) * 1.37 + 0.21


def test_fixed_point_counts():
    assert len(enumerate_fixed_points(su2_cartan(), regular_covector(su2_cartan()))) == 2
    assert len(enumerate_fixed_points(sl3_cartan(), regular_covector(sl3_cartan()))) == 6


def test_singular_covector_rejected():
    cart = sl3_cartan()
    bad = np.zeros(2)  # vanishes on every coroot
    with pytest.raises(AlgebraError):
        enumerate_fixed_points(cart, bad)
    assert not is_regular_covector(cart, bad)


def test_base_point_carries_negative_system():
    cart = sl3_cartan()
    fps = enumerate_fixed_points(cart, regular_covector(cart))
    base = next(fp for fp in fps if fp.weyl.label == "e")
    index = {tuple(np.round(v, 6)): r for r, v in enumerate(cart.roots)}
    negatives = {
        index[tuple(np.round(-cart.roots[r], 6))] for r in cart.positive
    }
    assert set(base.borel_roots) == negatives


def test_borel_lists_tile_and_are_closed():
    cart = sl3_cartan()
    roots = cart.roots
    keys = {tuple(np.round(r, 6)): i for i, r in enumerate(roots)}
    for fp in enumerate_fixed_points(cart, regular_covector(cart)):
        listed = set(fp.borel_roots)
        assert len(listed) == len(cart.positive)
        negated = {keys[tuple(np.round(-roots[r], 6))] for r in listed}
        assert listed | negated == set(range(len(roots)))
        assert not listed & negated
        for r1 in listed:
            for r2 in listed:
                key = tuple(np.round(roots[r1] + roots[r2], 6))
                if key in keys:
                    assert keys[key] in listed


def test_transported_weights_are_weyl_images():
    cart = sl3_cartan()
    lam = regular_covector(cart).astype(complex)
    for fp in enumerate_fixed_points(cart, lam):
        assert np.allclose(fp.weight, fp.weyl.apply(lam), atol=1e-12)


# --- sign splits ------------------------------------------------------------

def test_split_single_root_positive_value():
    spec = build_algebra("sl_real", 2)
    cart = standard_cartan(spec)
    # diag(1,-1) has coordinates (1,) against the Cartan basis; alpha -> 2.
    lower, upper = split_positive_system(cart, np.array([1.0 + 0.0j]))
    assert lower == ()
    assert upper == tuple(cart.positive)


def test_split_swaps_under_negation():
    cart = sl3_cartan()
    for _ in range(20):
        t = (RNG.uniform(0.3, 1.5, 2) * RNG.choice([-1.0, 1.0], 2)).astype(complex)
        lo, up = split_positive_system(cart, t)
        lo2, up2 = split_positive_system(cart, -t)
        if len(lo) + len(up) == len(cart.positive):  # no imaginary-value roots
            assert set(lo) == set(up2)
            assert set(up) == set(lo2)


def test_split_conditions_brute_force_sl3():
    cart = sl3_cartan()
    t = np.array([1.0, 2.0], dtype=complex)  # values of diag(1,2,-3)... scaled chamber
    spec = build_algebra("sl_real", 3)
    x = element_from_matrix(spec, np.diag([1.0, 2.0, -3.0]))
    from orbit_localize.algebra import cartan_coordinates
    t = cartan_coordinates(cart, x)
    lower, upper = split_positive_system(cart, t)
    # condition a): every positive root has nonzero real value and is sorted
    for r in cart.positive:
        val = complex(np.dot(cart.roots[r], t))
        assert abs(val.real) > 1e-9
        assert (r in lower) == (val.real < 0)
        assert (r in upper) == (val.real > 0)
    # condition b): closure under addition, checked over all pairs
    keys = {tuple(np.round(cart.roots[r], 6)): r for r in range(len(cart.roots))}
    for subset in (lower, upper):
        for r1 in subset:
            for r2 in subset:
                key = tuple(np.round(cart.roots[r1] + cart.roots[r2], 6))
                if key in keys and keys[key] in cart.positive:
                    assert keys[key] in subset


# --- closed-orbit support ---------------------------------------------------

def test_compact_support_is_everything():
    spec = build_algebra("su", 3)
    orbit = make_orbit(spec, [0.9, 0.4])
    assert all(fp.in_closed_orbit for fp in orbit.fixed_points)
    assert set(orbit.assignment.values.values()) == {1}


def test_split_sl2_support_is_everything():
    # sl(2..5,R): every Borel over the split Cartan is defined over R, so
    # every fixed point carries s0 * det(w).
    for n in range(2, 6):
        spec = build_algebra("sl_real", n)
        delta = np.arange(n, 0, -1.0) ** 2
        orbit = make_orbit(spec, np.cumsum(delta - delta.mean())[:-1], s0=-1)
        assert len(orbit.fixed_points) == len(orbit.cartan.weyl)
        assert all(fp.in_closed_orbit for fp in orbit.fixed_points)
        assert all(fp.multiplicity == -fp.weyl.determinant
                   for fp in orbit.fixed_points)


def test_unsupported_real_form_rejected():
    cart = su2_cartan()
    fps = enumerate_fixed_points(cart, regular_covector(cart))
    with pytest.raises(AlgebraError):
        closed_orbit_support(cart, fps, "sp_real")


# --- multiplicities ---------------------------------------------------------

def test_compact_multiplicities_all_one():
    spec = build_algebra("su", 2)
    orbit = make_orbit(spec, [1.0])
    assert orbit.assignment.values == {"e": 1, "s1": 1}


def test_split_multiplicities_alternate():
    spec = build_algebra("sl_real", 2)
    orbit = make_orbit(spec, [1.0], s0=1)
    assert orbit.assignment.values == {"e": 1, "s1": -1}


def test_sign_flip_negates():
    spec = build_algebra("sl_real", 3)
    plus = make_orbit(spec, [0.9, 0.4], s0=1)
    minus = make_orbit(spec, [0.9, 0.4], s0=-1)
    for label, value in plus.assignment.values.items():
        assert minus.assignment.values[label] == -value


def test_user_supplied_passthrough_and_validation():
    cart = su2_cartan()
    fps = enumerate_fixed_points(cart, regular_covector(cart))
    fps = closed_orbit_support(cart, fps, "su")
    assignment, fps2 = assign_multiplicities(
        fps, "user_supplied", user_values={"e": 2, "s1": -1}
    )
    assert assignment.values == {"e": 2, "s1": -1}
    with pytest.raises(AlgebraError):
        assign_multiplicities(fps, "user_supplied", user_values={"bogus": 1})
    with pytest.raises(AlgebraError):
        assign_multiplicities(fps, "user_supplied", user_values={"e": 1.5})
    with pytest.raises(AlgebraError):
        assign_multiplicities(fps, "diagonal")
