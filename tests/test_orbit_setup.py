"""Cold orbit setup: byte identity of make_orbit and what setup leaves unbuilt.

``make_orbit`` does the parameter arithmetic on n Python floats.  The
reference below is the array formulation it replaced, kept verbatim, so
the two can be compared bit for bit, errors included.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbit_localize import localize
from orbit_localize.algebra import AlgebraError, _upper_pairs, build_algebra
from orbit_localize.fixedpoints import enumerate_fixed_points
from orbit_localize.localize import _scale, make_orbit

SRC = str(Path(__file__).resolve().parents[1] / "src")


def reference_orbit_arrays(spec, weight, mode):
    """(weight, zeta, weight_values) of the array formulation, or its error."""
    weight = tuple(float(w) for w in weight)
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = np.zeros(spec.n)
        zeta[:-1] += weight
        zeta[1:] -= weight
        if mode != "user_supplied":
            zeta = np.sort(zeta)[::-1]
            weight = tuple(np.cumsum(zeta)[:-1].tolist())
        span = abs(_scale(spec)) * (zeta.max() - zeta.min())
    if not np.isfinite([*weight, span]).all():
        raise AlgebraError("orbit parameter is non-finite or too large to represent")
    i, j = np.triu_indices(spec.n, 1)
    gaps = np.abs(zeta[i] - zeta[j])
    if not gaps.min() > 1e-8 * gaps.max():
        raise AlgebraError("orbit parameter is singular (vanishing coroot pairing)")
    return weight, zeta, _scale(spec) * (zeta[:-1] - zeta[1:])


def outcome(call):
    try:
        return call()
    except AlgebraError as exc:
        return type(exc), str(exc)


def assert_orbit_matches_reference(family, n, weight, mode):
    spec = build_algebra(family, n)
    want = outcome(lambda: reference_orbit_arrays(spec, weight, mode))
    got = outcome(lambda: make_orbit(spec, weight, mode=mode, user_multiplicities={}))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    ref_weight, ref_zeta, ref_values = want
    assert np.array(got.weight).tobytes() == np.array(ref_weight).tobytes()
    assert all(type(c) is float for c in got.weight)
    for array, ref in ((got.zeta, ref_zeta), (got.weight_values, ref_values)):
        assert array.dtype == ref.dtype and array.tobytes() == ref.tobytes()
    assert not got.zeta.flags.writeable


MAGNITUDES = st.tuples(st.floats(1e-300, 1e300), st.booleans()).map(
    lambda pair: -pair[0] if pair[1] else pair[0])
COORDINATES = st.one_of(
    MAGNITUDES,
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1.7e308]),
    st.integers(-3, 3).map(float),   # ties: singular parameters
)
AUTOMATIC = {"su": "compact", "sl_real": "maximally_split"}


@st.composite
def orbit_cases(draw):
    # n = 9 in user_supplied mode builds a 362,880-row table per family;
    # test_user_supplied_n9_matches_the_array_formulation covers it once.
    family = draw(st.sampled_from(["su", "sl_real"]))
    mode = draw(st.sampled_from([AUTOMATIC[family], "user_supplied"]))
    n = draw(st.integers(2, 8 if mode == "user_supplied" else 9))
    weight = draw(st.lists(COORDINATES, min_size=n - 1, max_size=n - 1))
    return family, n, weight, mode


@settings(max_examples=400, deadline=None)
@given(orbit_cases())
@example(("su", 3, [0.0, -0.0], "compact"))
@example(("sl_real", 3, [-0.0, 1.0], "user_supplied"))
@example(("sl_real", 2, [-0.0], "maximally_split"))
@example(("su", 3, [1e308, -1e308], "user_supplied"))
@example(("sl_real", 4, [1e300, -1e300, 1e300], "maximally_split"))
@example(("su", 9, [1.0, math.nan] * 4, "compact"))
@example(("su", 9, [1.7e308, 1.7e308, -1.7e308] + [0.0] * 5, "compact"))
def test_make_orbit_bytes_match_the_array_formulation(case):
    assert_orbit_matches_reference(*case)


@pytest.mark.parametrize("family", ["su", "sl_real"])
def test_user_supplied_n9_matches_the_array_formulation(family):
    cached = (family, 9) in localize._STANDARD_CARTANS
    try:
        # Regular outside the dominant chamber at three scales, then a
        # singular, an overflowing and a non-finite weight.
        mixed = [0.3, -0.6, -0.0, 0.1, -0.5, 0.4, 0.1, 0.1]
        for weight in ([c * 1e-300 for c in mixed], mixed, [c * 1e300 for c in mixed],
                       [1.0] * 8, [1e308, -1e308] * 4, [math.inf] + [0.0] * 7):
            assert_orbit_matches_reference(family, 9, weight, "user_supplied")
    finally:
        if not cached:   # the S_9 table takes some 75 MB
            localize._STANDARD_CARTANS.pop((family, 9), None)


@pytest.mark.parametrize("covector", [[1.0, math.nan], [math.nan, 1.0], [math.inf, 1.0]])
def test_fixed_points_refuse_a_non_finite_covector(covector):
    # A NaN gap among finite ones is refused, as the array test refused it,
    # and with Python floats an inf - inf gap warns of nothing.
    cart = localize.standard_cartan(build_algebra("su", 3))
    with pytest.raises(AlgebraError, match="orbit parameter is singular"):
        enumerate_fixed_points(cart, np.array(covector))


@pytest.mark.parametrize("n", range(13))
def test_upper_pairs_are_the_upper_triangle_indices(n):
    got, want = _upper_pairs(n), np.triu_indices(n, 1)
    assert len(got) == 2
    for array, ref in zip(got, want):
        assert array.dtype == np.intp and np.array_equal(array, ref)
        assert not array.flags.writeable


SL4_AND_SU7 = [
    {"algebra": {"family": "sl_real", "n": 4}, "weight": [0.9, 1.3, 0.7], "s0": -1,
     "grid": {"axes": [{"start": -1.0, "stop": 1.2, "steps": 5},
                       {"start": -0.7, "stop": 0.9, "steps": 4}]}},
    {"algebra": {"family": "su", "n": 7}, "weight": [0.9, 1.5, 1.8, 1.9, 1.5, 0.9],
     "grid": {"axes": [{"start": 0.5, "stop": 1.5, "steps": 3,
                        "direction": np.random.default_rng(2).standard_normal(48)
                        .round(6).tolist()}]}},
]


def test_csv_eval_forms_no_roots_or_labels(tmp_path):
    # In a fresh interpreter a CSV eval leaves the roots, the positive
    # system, the basis labels, the Killing matrix and the projector
    # unbuilt; read afterwards they are the arrays they always were.
    paths = []
    for k, cfg in enumerate(SL4_AND_SU7):
        paths.append(str(tmp_path / f"cfg{k}.json"))
        Path(paths[-1]).write_text(json.dumps(cfg))
    script = textwrap.dedent("""
        import json, os, sys
        from orbit_localize import cli, localize

        report = {}
        for path in sys.argv[1:]:
            assert cli.main(["eval", "--config", path, "--out", os.devnull]) == 0
        for (family, n), cart in localize._STANDARD_CARTANS.items():
            before = (sorted(vars(cart)), sorted(vars(cart.algebra)))
            report[f"{family}{n}"] = {
                "cartan": before[0], "algebra": before[1],
                "roots": cart.roots.tolist(),
                "roots_writeable": bool(cart.roots.flags.writeable),
                "positive": list(cart.positive),
                "pairs": [list(p) for p in cart.root_pairs],
                "labels": list(cart.algebra.labels),
            }
        print(json.dumps(report))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script, *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert sorted(report) == ["sl_real4", "su7"]
    for key, got in report.items():
        n = int(key[-1])
        assert not {"roots", "positive"} & set(got["cartan"])
        assert not {"labels", "killing", "_proj"} & set(got["algebra"])
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        assert got["pairs"] == [list(p) for p in pairs]
        # alpha_(i,j)(h_k) = [i = k] - [i = k+1] - [j = k] + [j = k+1]
        assert got["roots"] == [[float((i == k) - (i == k + 1) - (j == k) + (j == k + 1))
                                 for k in range(n - 1)] for i, j in pairs]
        assert not got["roots_writeable"]
        assert got["positive"] == [r for r, (i, j) in enumerate(pairs) if i < j]
        # test_build_matches_the_loop_built_reference_bytes pins these.
        family = "su" if key.startswith("su") else "sl_real"
        assert got["labels"] == list(build_algebra(family, n).labels)
