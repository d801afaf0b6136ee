"""Command-line fuzzing: mutated small configs never end in a traceback.

Each example takes an su(3) or sl(2,R) config, replaces up to three of its
fields (or whole blocks) with values of any JSON type, and runs one
subcommand on it in-process.  Every run must return an exit code of the
command line (0, 2, 3 or 4) or leave through argparse's SystemExit(2).
An ``eval`` that exits 0 or 3 must write each CSV float as its repr, and
JSON that is json.dumps(..., sort_keys=True, indent=1) of itself.  Sizes
stay small: grids of at most 3 steps a side, at most 2000 samples, and the
integers that mutations draw are either small or far beyond any size that
could be allocated.  Grid ends reach +-1e3, where the transform's values
fall below 1e-4 and take repr's exponent notation.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from orbit_localize.cli import main

BASES = {
    "su3": {
        "algebra": {"family": "su", "n": 3},
        "weight": [0.9, 0.4],
        "grid": {"axes": [{"start": 0.3, "stop": 0.9, "steps": 3},
                          {"start": -0.4, "stop": 0.4, "steps": 2}]},
        "oracle": {"seed": 9, "samples": 2000},
        "output": {"format": "csv"},
    },
    "sl2": {
        "algebra": {"family": "sl_real", "n": 2},
        "weight": [1.0],
        "s0": -1,
        "grid": {"axes": [{"start": 0.3, "stop": 1.2, "steps": 3}]},
        "oracle": {"seed": 4, "samples": 2000,
                   "eps_schedule": [0.2, 0.1, 0.05],
                   "scale_schedule_log2": 20},
        "output": {"format": "csv"},
    },
}

# Field paths a mutation may replace; a missing parent is created.  The
# damping schedule takes EPS alone: the sl(2,R) quadrature mesh grows as
# 1/sqrt(eps), so a small eps under the node cap takes up to a second per
# damping value (a tiny one is refused; see the examples).
SITES = [
    ("algebra",), ("algebra", "family"), ("algebra", "n"),
    ("weight",), ("weight", 0), ("mode",), ("s0",), ("multiplicities",),
    ("grid",), ("grid", "axes"), ("grid", "axes", 0),
    ("grid", "axes", 0, "steps"), ("grid", "axes", 0, "start"),
    ("grid", "axes", 0, "stop"), ("grid", "axes", 0, "direction"),
    ("oracle",), ("oracle", "seed"), ("oracle", "samples"),
    ("oracle", "reference"), ("oracle", "scale_schedule_log2"),
    ("output",), ("output", "format"), ("output", "path"),
]

# Integers are small, or beyond every size and key range (large steps or
# sample counts below that would only fill memory or run for hours).
HUGE = [2 ** 63, 2 ** 128 - 24, 2 ** 128 - 23, 10 ** 400, 1e308, -1e308]
WORDS = ["su", "sl_real", "so", "compact", "maximally_split", "user_supplied",
         "csv", "json", "e", "s1", ""]
SMALL_FLOATS = st.floats(-2.0, 2.0)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), SMALL_FLOATS,
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5, *HUGE]),
    st.sampled_from(WORDS),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SMALL_FLOATS, max_size=9),
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(WORDS), SCALARS, max_size=2),
)
# Grid ends far enough out for values in repr's exponent notation.
ENDS = st.tuples(st.sampled_from([("grid", "axes", k, end) for k in (0, 1)
                                  for end in ("start", "stop")]),
                 st.floats(-1e3, 1e3))
EPS = st.one_of(st.lists(st.floats(0.02, 1.0), max_size=4),
                st.sampled_from([[0.1, 0.2], [0.1, -0.05], "0.1", 0.1]))
COMMANDS = st.sampled_from(["eval", "verify", "calibrate", "oracle", "cycle-limit"])
FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--suite"), st.sampled_from(
        ["algebra", "fixedpoints", "localize", "geometry", "oracle", "all", "x"])),
    st.tuples(st.just("--format"), st.sampled_from(["csv", "json"])),
    st.tuples(st.just("--seed"), st.sampled_from(
        ["0", "-1", "7", str(2 ** 128 - 24), str(2 ** 128 - 23), "x"])),
), max_size=2)


def _set(cfg, path, value):
    target = cfg
    for key in path[:-1]:
        if isinstance(target, dict):
            target = target.setdefault(key, {})
        elif isinstance(target, list) and isinstance(key, int) and key < len(target):
            target = target[key]
        else:
            return
    if isinstance(target, dict):
        target[path[-1]] = value
    elif isinstance(target, list) and isinstance(path[-1], int) and path[-1] < len(target):
        target[path[-1]] = value


def _run(tmp_path, base, mutations, command, flags):
    cfg = json.loads(json.dumps(BASES[base]))
    for path, value in mutations:
        _set(cfg, path, value)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out.txt")]
    for flag in flags:
        argv += flag
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 2, 3, 4)
    if command == "eval" and code in (0, 3):
        _check_eval_text((tmp_path / "out.txt").read_text())


def _check_eval_text(text):
    if text.startswith("{"):
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
        return
    header, *rows = text.splitlines()
    names = header.split(",")
    floats = [k for k, name in enumerate(names) if name in ("re_f", "im_f")
              or name.startswith("x")]
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(names)
        for k in floats:
            assert fields[k] == repr(float(fields[k]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    base=st.sampled_from(sorted(BASES)),
    mutations=st.lists(st.one_of(
        st.tuples(st.sampled_from(SITES), VALUES),
        ENDS,
        st.tuples(st.just(("oracle", "eps_schedule")), EPS),
    ), max_size=3),
    command=COMMANDS,
    flags=FLAGS,
)
# A seed outside Philox's key range, from the config or the flag.
@example(base="su3", mutations=[(("oracle", "seed"), -1)], command="oracle", flags=[])
@example(base="sl2", mutations=[], command="verify",
         flags=[("--seed", str(2 ** 128 - 23)), ("--suite", "all")])
# A number field holding an integer beyond float range.
@example(base="su3", mutations=[(("weight", 0), 10 ** 400)], command="eval", flags=[])
# n beyond the range of math.lgamma.
@example(base="su3", mutations=[(("algebra", "n"), 1e308)], command="eval", flags=[])
# A hyperboloid mesh above the node cap: a far grid point, a tiny damping.
@example(base="sl2", mutations=[(("grid", "axes", 0),
                                 {"start": 1e30, "stop": 2e30, "steps": 2})],
         command="oracle", flags=[])
@example(base="sl2", mutations=[(("oracle", "eps_schedule"), [1e-300])],
         command="oracle", flags=[])
# An sl(2,R) weight whose square overflows, in the cycle-limit model.
@example(base="sl2", mutations=[(("weight", 0), 1e308)], command="cycle-limit",
         flags=[])
# A mode that is not a string (unhashable, so no rule lookup takes it).
@example(base="sl2", mutations=[(("mode",), [])], command="eval", flags=[])
def test_cli_never_raises(workdir, capsys, base, mutations, command, flags):
    _run(workdir, base, mutations, command, flags)
    capsys.readouterr()
