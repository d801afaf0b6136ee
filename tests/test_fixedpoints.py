"""Fixed-point enumeration, sign splits, support flags, multiplicities."""

import numpy as np
import pytest

from orbit_localize.algebra import (
    AlgebraError,
    build_algebra,
    cartan_coordinates,
    element_from_matrix,
)
from orbit_localize.fixedpoints import (
    assign_multiplicities,
    closed_orbit_support,
    enumerate_fixed_points,
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
    for bad in (np.zeros(2),          # vanishes on every coroot
                np.array([1.0, -1.0])):  # vanishes on the coroot of e_1 - e_3
        with pytest.raises(AlgebraError) as info:
            enumerate_fixed_points(cart, bad)
        assert str(info.value) == (
            "orbit parameter is singular (vanishing coroot pairing)")


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
# The split is reference code here: the positive roots by the sign of the
# real part of their value, each part closed under (i, j) + (j, k) = (i, k).

def test_split_single_root_positive_value():
    spec = build_algebra("sl_real", 2)
    cart = standard_cartan(spec)
    # diag(1,-1) has coordinates (1,) against the Cartan basis; alpha -> 2.
    t = cartan_coordinates(cart, element_from_matrix(spec, np.diag([1.0, -1.0])))
    assert t == pytest.approx([1.0], abs=1e-14)
    assert [cart.roots[r] @ t for r in cart.positive] == pytest.approx([2.0], abs=1e-14)


def test_split_conditions_brute_force_sl3():
    cart = sl3_cartan()
    spec = build_algebra("sl_real", 3)
    x = element_from_matrix(spec, np.diag([1.0, 2.0, -3.0]))
    t = cartan_coordinates(cart, x)
    values = {cart.root_pairs[r]: complex(cart.roots[r] @ t) for r in cart.positive}
    # condition a): every positive root has nonzero real value: alpha(x) = x_i - x_j
    assert values == pytest.approx({(0, 1): -1.0, (0, 2): 4.0, (1, 2): 5.0}, abs=1e-12)
    lower = {p for p, v in values.items() if v.real < 0}
    upper = {p for p, v in values.items() if v.real > 0}
    assert lower | upper == set(values)
    # condition b): closure under addition, checked over all pairs
    for subset in (lower, upper):
        for i, j in subset:
            for j2, k in subset:
                if j == j2:
                    assert (i, k) in subset


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
