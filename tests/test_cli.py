"""Command-line behavior: schemas, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from orbit_localize import build_algebra, make_orbit
from orbit_localize.oracle import _liouville_const
from orbit_localize.cli import (_TEXT_BLOCK, _eval_csv, _grid_text, _json_floats, _reprs,
                               _term_texts, main)

SU2 = {
    "algebra": {"family": "su", "n": 2},
    "weight": [1.0],
    "grid": {"axes": [{"start": -1.5, "stop": 1.5, "steps": 7}]},
    "oracle": {"seed": 9, "samples": 20000},
    "output": {"format": "csv"},
}

SL2 = {
    "algebra": {"family": "sl_real", "n": 2},
    "weight": [1.0],
    "s0": -1,
    "grid": {"axes": [{"start": 0.3, "stop": 1.2, "steps": 4}]},
    "oracle": {"seed": 4, "samples": 20000,
               "eps_schedule": [0.2, 0.1, 0.05],
               "scale_schedule_log2": 20},
    "output": {"format": "csv"},
}


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def test_eval_csv_schema_and_wall_flag(tmp_path):
    cfg = write_config(tmp_path, SU2)
    out = tmp_path / "out.csv"
    code = main(["eval", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x0,re_f,im_f,degenerate,mode,s0,version"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 7
    wall = [r for r in rows if r[0] == "0.0"]
    assert wall and wall[0][3] == "1"   # t = 0 flagged degenerate
    for r in rows:
        if r[3] == "0":
            assert abs(float(r[2])) < 1e-12   # compact values here are real


def test_eval_two_axis_grid(tmp_path):
    su3 = {
        "algebra": {"family": "su", "n": 3},
        "weight": [0.9, 0.4],
        "grid": {"axes": [
            {"start": 0.3, "stop": 0.9, "steps": 3},
            {"start": -0.8, "stop": -0.2, "steps": 3},
        ]},
        "output": {"format": "csv"},
    }
    cfg = write_config(tmp_path, su3, "su3.json")
    out = tmp_path / "grid.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("x0,x1,re_f")
    assert len(lines) == 1 + 9


def test_eval_json_includes_config_and_terms(tmp_path):
    cfg_dict = dict(SU2, output={"format": "json"})
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out.json"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["algebra"]["family"] == "su"
    live = [r for r in doc["rows"] if not r["degenerate"]]
    assert live and all(len(r["terms"]) == 2 for r in live)


def test_eval_split_grid_real_values(tmp_path):
    cfg = write_config(tmp_path, SL2)
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    for ln in out.read_text().strip().splitlines()[1:]:
        parts = ln.split(",")
        assert parts[3] == "0"
        assert abs(float(parts[2])) <= 1e-12


def test_eval_elliptic_sector_all_zero(tmp_path):
    cfg_dict = dict(SL2)
    cfg_dict = json.loads(json.dumps(cfg_dict))
    cfg_dict["grid"] = {"axes": [{
        "start": 0.3, "stop": 2.0, "steps": 5,
        "direction": [0.0, 1.0, -1.0],       # rotation generator: elliptic
    }]}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    for ln in out.read_text().strip().splitlines()[1:]:
        parts = ln.split(",")
        assert float(parts[1]) == 0.0 and float(parts[2]) == 0.0


def test_eval_degenerate_only_grid_exit_3(tmp_path):
    cfg_dict = json.loads(json.dumps(SU2))
    cfg_dict["grid"] = {"axes": [{"start": 0.0, "stop": 0.0, "steps": 1}]}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3


def test_config_errors_named(tmp_path, capsys):
    missing = dict(SU2)
    del missing["weight"]
    cfg = write_config(tmp_path, missing)
    assert main(["eval", "--config", cfg]) == 2
    assert "weight" in capsys.readouterr().err

    assert main(["eval", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err

    nogrid = {k: v for k, v in SU2.items() if k != "grid"}
    cfg = write_config(tmp_path, nogrid, "nogrid.json")
    assert main(["eval", "--config", cfg]) == 2
    assert "grid" in capsys.readouterr().err

    singular = json.loads(json.dumps(SU2))
    singular["weight"] = [0.0]
    cfg = write_config(tmp_path, singular, "singular.json")
    assert main(["eval", "--config", cfg]) == 2
    assert "singular" in capsys.readouterr().err


def one_error_line(err: str, path) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("command,fmt", [
    ("eval", "csv"), ("eval", "json"), ("calibrate", None)])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_exit_2(tmp_path, capsys, command, fmt, where):
    cfg = write_config(tmp_path, SU2)
    out = tmp_path / "out"
    if where == "directory":
        out.mkdir()
    else:
        out = out / "result.txt"
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + (["--format", fmt] if fmt else [])) == 2
    assert one_error_line(capsys.readouterr().err, out)
    if where == "directory":
        assert not any(out.iterdir())
    else:
        assert not out.parent.exists()


def test_config_that_is_a_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert one_error_line(capsys.readouterr().err, tmp_path)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_pipe_exits_1_without_traceback(tmp_path, fmt):
    # 3,721 rows: more text than a pipe holds, so writes meet the closed end.
    cfg = write_config(tmp_path, dict(SU3_WALL, grid={"axes": [
        {"start": -2.0, "stop": 2.0, "steps": 61}] * 2}))
    # With PYTHONUNBUFFERED, stdout has no buffer, and Python's text layer
    # drops the unwritten rest of a short write without an error; the
    # default buffered stdout reports the closed pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbit_localize.cli", "eval", "--config", cfg,
         "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1


def test_unknown_suite_rejected(tmp_path):
    cfg = write_config(tmp_path, SU2)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--suite", "all", "--config", "CFG"],
    ["oracle", "--suite", "oracle", "--config", "CFG"],
    ["eval"],
    ["evaluate", "--config", "CFG"],
    ["--config", "CFG"],
], ids=["suite-with-eval", "suite-with-oracle", "no-config", "unknown-command",
        "no-command"])
def test_argument_errors_exit_2(tmp_path, capsys, argv):
    # One flat parser: --suite belongs to verify alone, and every argument
    # error leaves through argparse's SystemExit(2) with a usage line.
    cfg = write_config(tmp_path, SU2)
    with pytest.raises(SystemExit) as err:
        main([cfg if a == "CFG" else a for a in argv])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: orbit-localize")


def test_verify_suite_defaults_to_all(tmp_path, monkeypatch):
    from orbit_localize import cli
    from orbit_localize.suites import CheckResult

    asked = []

    def run_suite(name, settings):
        asked.append(name)
        return [CheckResult("stub", 0.0, 1.0, True)]

    monkeypatch.setattr(cli, "run_suite", run_suite)
    cfg = write_config(tmp_path, SU2)
    assert main(["verify", "--config", cfg]) == 0
    assert main(["verify", "--config", cfg, "--suite", "geometry"]) == 0
    assert asked == ["all", "geometry"]


@pytest.mark.parametrize("cfg", [
    {"algebra": {"family": "su", "n": 5}, "weight": [0.9, 1.5, 1.8, 1.5],
     "grid": {"axes": [
         {"start": 0.5, "stop": 1.5, "steps": 4,
          "direction": np.random.default_rng(5).standard_normal(24).tolist()},
         {"start": -0.5, "stop": 0.5, "steps": 3,
          "direction": np.random.default_rng(6).standard_normal(24).tolist()}]}},
    {"algebra": {"family": "sl_real", "n": 4}, "weight": [0.9, 1.3, 0.7],
     "grid": {"axes": [
         {"start": 0.5, "stop": 1.5, "steps": 4,
          "direction": np.random.default_rng(7).standard_normal(15).tolist()},
         {"start": -0.5, "stop": 0.5, "steps": 3,
          "direction": np.random.default_rng(8).standard_normal(15).tolist()}]}},
], ids=["su5", "sl4"])
def test_csv_eval_forms_no_killing_matrix_or_projector(tmp_path, monkeypatch, cfg):
    # A CSV eval reads neither: with the pseudo-inverse and einsum made to
    # raise it writes the bytes it writes without them patched.
    path = write_config(tmp_path, cfg)
    patched, plain = tmp_path / "patched.csv", tmp_path / "plain.csv"

    def refuse(*args, **kwargs):
        raise AssertionError("formed by a CSV eval")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "pinv", refuse)
        m.setattr(np, "einsum", refuse)
        assert main(["eval", "--config", path, "--out", str(patched)]) == 0
    assert main(["eval", "--config", path, "--out", str(plain)]) == 0
    assert patched.read_bytes() == plain.read_bytes()
    rows = plain.read_text().splitlines()[1:]
    assert len(rows) == 12 and any(r.split(",")[-4] == "0" for r in rows)


def test_verify_algebra_suite_passes(tmp_path):
    cfg = write_config(tmp_path, SU2)
    out = tmp_path / "report.json"
    code = main(["verify", "--config", cfg, "--suite", "algebra",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("cfg", [
    {"algebra": {"family": "su", "n": 3}, "weight": [0.9, 0.4], "oracle": {"seed": 1}},
    {"algebra": {"family": "sl_real", "n": 3}, "weight": [0.9, 1.3], "s0": -1,
     "oracle": {"seed": 1}},
], ids=["su3", "sl3"])
@pytest.mark.parametrize("suite", ["algebra", "localize", "geometry"])
def test_verify_suites_need_no_pseudo_inverse(tmp_path, monkeypatch, cfg, suite):
    # Coordinates are read off matrices by index: no suite takes an SVD.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.pinv called")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--suite", suite, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and all(c["passed"] for c in doc["checks"])


def corrupted_cartan(corrupt):
    """The su(4) Cartan with one row of its S_n table corrupted."""
    from orbit_localize import algebra

    cart = algebra.CartanDatum(build_algebra("su", 4))
    table = algebra._weyl_table(4)
    pos = table.pos.copy()
    if corrupt == "duplicated row":
        pos[5] = pos[9]
    else:
        pos[5, 0] = pos[5, 1]
    cart.__dict__["_table"] = table._replace(pos=pos)
    return cart


@pytest.mark.parametrize("corrupt", ["duplicated row", "non-permutation row"])
def test_weyl_closure_row_fails_on_a_corrupted_table(monkeypatch, corrupt):
    from orbit_localize import suites

    cart = corrupted_cartan(corrupt)
    monkeypatch.setattr(suites, "standard_cartan", lambda spec: cart)
    rows = {r.name: r for r in suites.run_suite(
        "algebra", suites.SuiteSettings(family="su", n=4, weight=(0.9, 0.4, 0.3)))}
    closure = rows["weyl closure under composition"]
    assert closure.residual == 1.0 and not closure.passed


@pytest.mark.parametrize("corrupt", ["duplicated row", "non-permutation row"])
def test_fixed_point_count_row_fails_on_a_corrupted_table(monkeypatch, corrupt):
    from orbit_localize import localize, suites

    monkeypatch.setitem(localize._STANDARD_CARTANS, ("su", 4),
                        corrupted_cartan(corrupt))
    rows = {r.name: r for r in suites.run_suite(
        "fixedpoints", suites.SuiteSettings(family="su", n=4, weight=(0.9, 0.4, 0.3)))}
    count = rows["fixed point count = weyl order"]
    assert count.residual == 1.0 and not count.passed


def test_verify_honours_config_seed_zero(tmp_path, capsys):
    cfg = json.loads(json.dumps(SU2))
    cfg["oracle"]["seed"] = 0
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--suite", "algebra"]) == 0
    from_config = capsys.readouterr().out
    cfg["oracle"]["seed"] = 5
    path = write_config(tmp_path, cfg, "seed5.json")
    assert main(["verify", "--config", path, "--suite", "algebra",
                 "--seed", "0"]) == 0
    assert capsys.readouterr().out == from_config


def test_calibrate_writes_sibling_never_in_place(tmp_path, capsys):
    cfg = write_config(tmp_path, SU2)
    before = Path(cfg).read_text()
    assert main(["calibrate", "--config", cfg]) == 0
    capsys.readouterr()
    assert Path(cfg).read_text() == before
    sibling = Path(cfg).with_suffix(".calibrated.json")
    doc = json.loads(sibling.read_text())
    assert "calibration" in doc
    # The compact constant is exact and reads no reference point.
    assert doc["calibration"]["provenance"] == {"stderr": 0.0}
    assert main(["calibrate", "--config", cfg, "--out", cfg]) == 2
    assert "overwrite" in capsys.readouterr().err


def test_calibrate_runs_without_oracle_block(tmp_path, capsys):
    no_oracle = {k: v for k, v in SU2.items() if k != "oracle"}
    cfg = write_config(tmp_path, no_oracle)
    assert main(["calibrate", "--config", cfg]) == 0
    doc = json.loads(Path(cfg).with_suffix(".calibrated.json").read_text())
    assert doc["calibration"]["liouville_const_re"] == 8.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cfg", [SU2, SL2], ids=["su2", "sl2"])
def test_calibrate_reads_no_seed_or_sample_count(tmp_path, capsys, cfg):
    # Both constants are deterministic, so neither --seed (in or out of the
    # Philox key range) nor the oracle block moves a byte of the result.
    # The written file echoes the input config, so the oracle block that
    # a variant adds is dropped from it before comparing.
    def run(variant, flags=()):
        path = write_config(tmp_path, variant)
        out = tmp_path / "calibrated.json"
        capsys.readouterr()
        assert main(["calibrate", "--config", path, "--out", str(out),
                     *flags]) == 0
        doc = json.loads(out.read_text())
        doc.pop("oracle", None)
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        return text, capsys.readouterr()

    bare = {k: v for k, v in cfg.items() if k != "oracle"}
    reference = run(bare)
    assert reference[0] == (tmp_path / "calibrated.json").read_text()
    for flags in (["--seed", "-1"], ["--seed", "7"]):
        assert run(cfg, flags) == reference
    for samples in (2, 10 ** 6):
        variant = json.loads(json.dumps(cfg))
        variant["oracle"]["samples"] = samples
        assert run(variant) == reference


@pytest.mark.parametrize("n, weight", [
    (4, [0.68, 0.52, 0.88]),
    (5, [1.29, 1.51, 0.43, 0.96]),
    (6, [1.2, 0.7, 1.5, 0.9, 1.3]),
])
def test_calibrate_default_reference_beyond_su3(tmp_path, capsys, n, weight):
    # For n >= 4 the default reference 0.7 + 0.31 k has repeated
    # eigenvalues; the closed form does not read it.
    cfg = {"algebra": {"family": "su", "n": n}, "weight": weight}
    path = write_config(tmp_path, cfg)
    assert main(["calibrate", "--config", path]) == 0
    doc = json.loads(Path(path).with_suffix(".calibrated.json").read_text())
    orbit = make_orbit(build_algebra("su", n), weight)
    assert doc["calibration"]["liouville_const_re"] == \
        _liouville_const(orbit).real


def test_oracle_and_cycle_limit_outputs(tmp_path):
    cfg = write_config(tmp_path, SL2, "sl2.json")
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("eps,")
    assert "extrapolated," in text and "formula," in text

    cyc = tmp_path / "cycle.csv"
    assert main(["cycle-limit", "--config", cfg, "--out", str(cyc)]) == 0
    lines = cyc.read_text().strip().splitlines()
    assert lines[0] == "s,base_defect,moment_defect"
    assert lines[1].startswith("1.0,")
    assert any(ln.startswith("at_floor,") for ln in lines)


def test_user_supplied_mode_through_cli(tmp_path):
    user = {
        "algebra": {"family": "sl_real", "n": 2},
        "weight": [1.0],
        "mode": "user_supplied",
        "multiplicities": {"e": -1, "s1": 1},
        "grid": {"axes": [{"start": 0.7, "stop": 0.7, "steps": 1}]},
        "output": {"format": "csv"},
    }
    cfg = write_config(tmp_path, user, "user.json")
    out = tmp_path / "user.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    # matches the calibrated automatic mode: cos(8 * 0.7) / 0.7
    assert float(row[1]) == pytest.approx(1.1079512550146426, rel=1e-12)
    assert main(["verify", "--config", cfg, "--suite", "fixedpoints"]) == 0


def test_oracle_suite_restricted_to_rank_one_split(tmp_path, capsys):
    sl3 = json.loads(json.dumps(SL2))
    sl3["algebra"] = {"family": "sl_real", "n": 3}
    sl3["weight"] = [0.9, 0.4]
    cfg = write_config(tmp_path, sl3, "sl3.json")
    assert main(["verify", "--config", cfg, "--suite", "oracle"]) == 2
    assert "sl(2,R)" in capsys.readouterr().err


@pytest.mark.parametrize("n,weight,message", [
    # No Gaussian sl(4,R) draw in 5,000 has a spectrum spread evenly
    # enough for the split gap-to-norm filter of the casimir check.
    (4, [0.9, 1.4, 0.6],
     "no casimir-testable point in 5000 draws: none passed the "
     "gap-to-norm ratio >= 0.416 filter"),
    # Nor does any Gaussian sl(7,R) draw in 400 have a real spectrum.
    (7, [1.0614, 1.6895, 2.0643, 2.0557, 1.6738, 1.0186],
     "no usable regular point in 400 draws: none passed the "
     "real spectrum filter"),
], ids=["casimir-sl4", "regular-sl7"])
def test_localize_suite_without_usable_point_refused(tmp_path, capsys, n,
                                                     weight, message):
    cfg = write_config(tmp_path, {
        "algebra": {"family": "sl_real", "n": n}, "weight": weight,
        "oracle": {"seed": 2 if n == 4 else 3}})
    out = tmp_path / "report.txt"
    assert main(["verify", "--config", cfg, "--suite", "localize",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_cycle_limit_requires_sl2(tmp_path, capsys):
    cfg = write_config(tmp_path, SU2)
    assert main(["cycle-limit", "--config", cfg]) == 2
    assert "sl(2,R)" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [[], [1.0, 2.0]], ids=["empty", "two"])
@pytest.mark.parametrize("command", ["cycle-limit", "eval", "oracle"])
def test_cycle_limit_refuses_a_weight_off_the_rank_as_eval_does(tmp_path, capsys,
                                                               command, weight):
    # sl(2,R) has rank 1: an empty weight has no coordinate to read, and a
    # second one would be dropped without a word.
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_config(tmp_path, dict(SL2, weight=weight)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: weight needs 1 coordinates, got {len(weight)}\n")
    assert not out.exists()


def test_seed_required_for_oracle_commands(tmp_path, capsys):
    no_seed = json.loads(json.dumps(SL2))
    del no_seed["oracle"]["seed"]
    cfg = write_config(tmp_path, no_seed)
    assert main(["oracle", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


PHILOX_END = 2 ** 128   # Philox keys lie in [0, 2^128); the suites add up to 23


@pytest.mark.parametrize("command", [
    ["oracle"], ["verify"], ["cycle-limit"],
    *(["verify", "--suite", name] for name in
      ("algebra", "fixedpoints", "localize", "geometry", "oracle", "all")),
])
@pytest.mark.parametrize("seed,override", [
    (-1, False), (PHILOX_END - 23, False), (-1, True), (PHILOX_END, True),
], ids=["config-negative", "config-past-suite-keys", "flag-negative",
        "flag-past-keys"])
def test_seeds_outside_the_philox_key_range_exit_2(tmp_path, capsys, command,
                                                   seed, override):
    cfg = json.loads(json.dumps(SL2))
    flag = []
    if override:
        flag = ["--seed", str(seed)]
    else:
        cfg["oracle"]["seed"] = seed
    out = tmp_path / "out.txt"
    assert main([*command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out), *flag]) == 2
    source = "--seed" if override else "oracle.seed"
    assert capsys.readouterr().err == (
        f"error: {source} must be in [0, 2^128 - 24], got {seed}\n")
    assert not out.exists()


def test_largest_seed_keys_every_suite_stream(tmp_path, capsys):
    # seed + 23 is the largest key the suites use (the compact oracle suite).
    cfg = json.loads(json.dumps(SU2))
    cfg["oracle"].update(seed=PHILOX_END - 24, samples=2000)
    assert main(["verify", "--suite", "oracle", "--config",
                 write_config(tmp_path, cfg)]) in (0, 4)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", [-1, PHILOX_END, 1e308])
def test_eval_accepts_any_seed(tmp_path, seed):
    # eval draws no random numbers, so its seed is never checked.
    plain = eval_output(tmp_path, SU2)
    cfg = json.loads(json.dumps(SU2))
    cfg["oracle"]["seed"] = seed
    assert eval_output(tmp_path, cfg) == plain
    out = tmp_path / "flag.csv"
    assert main(["eval", "--config", write_config(tmp_path, SU2),
                 "--seed", "-1", "--out", str(out)]) == 0
    assert out.read_text() == plain


SU3 = {
    "algebra": {"family": "su", "n": 3},
    "weight": [0.9, 0.4],
    "grid": {"axes": [{"start": 0.3, "stop": 0.9, "steps": 3}]},
    "oracle": {"seed": 9, "samples": 20000},
    "output": {"format": "csv"},
}
SL3 = dict(SU3, algebra={"family": "sl_real", "n": 3})
USER = dict(SL2, mode="user_supplied", multiplicities={"e": -1, "s1": 1})
USER_SU2 = dict(SU2, mode="user_supplied", multiplicities={"e": 1, "s1": 1})
NAN = float("nan")


@pytest.mark.parametrize("base,path,value", [
    (SU2, ("grid", "axes", 0, "start"), NAN),
    (SU3, ("grid", "axes", 0, "start"), NAN),
    (SL3, ("grid", "axes", 0, "stop"), NAN),
    (SU3, ("grid", "axes", 0, "direction"), [0.1] * 7 + [NAN]),
    (SU3, ("weight", 1), float("inf")),
    (SU3, ("algebra", "n"), 3.7),
    (SU3, ("algebra", "n"), "three"),
    (SU3, ("grid", "axes", 0, "steps"), "x"),
    (SU3, ("grid", "axes", 0, "steps"), 2.5),
    (SU3, ("s0",), 1.5),
    (SU3, ("oracle", "seed"), 2.5),
    (SU3, ("oracle", "samples"), "many"),
    (SU3, ("weight",), 5),
    (SU3, ("grid",), [1]),
    (USER, ("multiplicities",), {"e": "x"}),
    (USER, ("multiplicities",), [1]),
    (USER, ("multiplicities",), {"e": None}),
    (SU2, ("oracle", "samples"), 0),
    (SU2, ("oracle", "samples"), -5),
    (SU2, ("oracle", "samples"), 1),
    (SU3, ("output", "path"), 5),
    (SU3, ("oracle", "reference"), [None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    (SU3, ("oracle", "reference"), [NAN, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    (SU3, ("oracle", "reference"), "ab"),
    (SU3, ("weight",), "94"),
    (SL2, ("grid", "axes", 0, "direction"), "123"),
    (SL2, ("grid", "axes", 0, "direction"), ""),
    (SL2, ("grid", "axes", 0, "direction"), []),
    (SU3, ("weight",), [1e308, -1e308]),
    (SL3, ("weight",), [1e308, 1e308]),
    (USER_SU2, ("multiplicities",), {"e": 1e20, "s1": 1}),
    (SU3, ("weight", 0), 10 ** 400),
    (SL2, ("mode",), []),
    (SU3, ("mode",), {}),
], ids=[
    "su2-start-nan", "su3-start-nan", "sl3-stop-nan", "direction-nan",
    "weight-inf", "n-fractional", "n-text", "steps-text", "steps-fractional",
    "s0-fractional", "seed-fractional", "samples-text", "weight-scalar",
    "grid-list", "multiplicity-text", "multiplicities-list",
    "multiplicity-null", "samples-zero", "samples-negative", "samples-one",
    "path-number", "reference-null", "reference-nan", "reference-text",
    "weight-text", "direction-text", "direction-empty-text",
    "direction-empty", "weight-overflow-su", "weight-overflow-sl",
    "multiplicity-overflow", "weight-int-beyond-float", "mode-list",
    "mode-object",
])
def test_malformed_fields_exit_2(tmp_path, capsys, base, path, value):
    cfg = json.loads(json.dumps(base))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_multiplicity_overflow_refused_in_json(tmp_path, capsys):
    # Refused before any output, so no half-written JSON document is left.
    cfg = dict(USER_SU2, multiplicities={"e": 1e20, "s1": 1})
    out = tmp_path / "out.json"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: multiplicity for 'e' does not fit in int64\n")
    assert not out.exists()


@pytest.mark.parametrize("n,command", [
    (10, ["eval"]), (13, ["eval"]), (10, ["verify", "--suite", "algebra"]),
    (40, ["eval"]), (40, ["verify", "--suite", "algebra"]),
])
def test_refuses_weyl_tables_too_large_to_build(tmp_path, capsys,
                                                monkeypatch, n, command):
    # 10! rows: one orbit's exponent table alone would take 581 MB, and
    # 13! rows would not fit at all.  The algebra is built; the Cartan and
    # its table are refused before anything of theirs is allocated, and
    # the algebra suite refuses before its dim^4 structure checks.
    from orbit_localize import algebra

    def refuse(*args, **kwargs):
        raise AssertionError("the Cartan was laid out")

    monkeypatch.setattr(algebra, "_weyl_table", refuse)
    monkeypatch.setattr(algebra, "element_from_matrix", refuse)
    cfg = {"algebra": {"family": "su", "n": n}, "weight": [1.0] * (n - 1),
           "grid": {"axes": [{"start": 0.1, "stop": 0.2, "steps": 2}]}}
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        assert main([*command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        f"error: the S_n table of su({n}) would have {math.factorial(n):,} "
        "rows; it is built for n <= 9 only\n")
    assert not out.exists()
    assert peak < 8e6


@pytest.mark.parametrize("command,path,value,message", [
    ("eval", ("grid", "axes", 0, "steps"), 10 ** 15, "out of memory: Unable to allocate"),
    ("oracle", ("oracle", "samples"), 10 ** 15,
     "1,000,000,000,000,000 Haar samples in one pass; the cap is 4,294,967,296"),
    ("eval", ("grid", "axes", 0, "steps"), 10 ** 20,
     "grid.axes[0].steps = 100000000000000000000 is too large to allocate"),
    ("oracle", ("oracle", "samples"), 10 ** 20,
     "oracle.samples = 100000000000000000000 is too large to allocate"),
], ids=["eval", "oracle", "eval-beyond-intp", "oracle-beyond-intp"])
def test_sizes_too_large_to_allocate_exit_2(tmp_path, capsys, command, path,
                                            value, message):
    # 10^15 rows would take petabytes: numpy refuses to allocate them at
    # once.  10^15 Haar samples take no memory, as the estimates keep no
    # per-sample values, but years of draws: the sampler's cap refuses
    # them.  Sizes beyond the index range are refused while parsing.
    cfg = json.loads(json.dumps(SU3))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("path,value", [
    (("grid", "axes", 0), {"start": 1e30, "stop": 2e30, "steps": 2}),
    (("oracle", "eps_schedule"), [1e-300]),
], ids=["grid-point-1e30", "eps-1e-300"])
def test_oracle_quadrature_mesh_above_cap_exit_2(tmp_path, capsys, path, value):
    # The sl(2,R) hyperboloid mesh would take 9e33 or 1e155 Simpson nodes.
    cfg = json.loads(json.dumps(SL2))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path / "out.csv"
    assert main(["oracle", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the hyperboloid quadrature at eps = ")
    assert err.endswith("Simpson nodes; the cap is 4,194,304\n")
    assert not out.exists()


@pytest.mark.parametrize("weight", [1.4e154, 1e308])
def test_cycle_limit_weight_with_overflowing_square_exit_2(tmp_path, capsys,
                                                           weight):
    cfg = dict(SL2, weight=[weight])
    out = tmp_path / "out.csv"
    assert main(["cycle-limit", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cycle-limit needs a finite weight^2 (|weight| below about "
        f"1.34e154); got {weight:g}\n")
    assert not out.exists()


@pytest.mark.parametrize("weight", [5e-324, 1e-310])
def test_cycle_limit_subnormal_weight_exit_2(tmp_path, capsys, weight):
    # A subnormal carrier is quantized off the orbit: at 5e-324 every
    # base defect would read 0.354 on a correct model.
    cfg = dict(SL2, weight=[weight])
    out = tmp_path / "out.csv"
    assert main(["cycle-limit", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cycle-limit needs a zero or normal weight (|weight| at least "
        f"2.22507e-308); got {weight:g}\n")
    assert not out.exists()


@pytest.mark.parametrize("weight", [0.0, 1e-200, sys.float_info.min])
def test_cycle_limit_on_a_vanishing_or_tiny_orbit(tmp_path, weight):
    # The zero carrier has every line as an eigenline: the kernels take
    # (1, 0), as LAPACK does.  Carriers of size 1e-200 or the smallest
    # normal size are scaled before their eigenline is formed, so nothing
    # underflows or overflows.  The samples are imaginary carriers, so
    # every defect is exactly 0.0.
    cfg = dict(SL2, weight=[weight])
    out = tmp_path / "out.csv"
    assert main(["cycle-limit", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [f"{2.0 ** -k!r},0.0,0.0" for k in range(21)]
    assert out.read_text() == "\n".join(
        ["s,base_defect,moment_defect", *rows, "identity_at_one,1,",
         "at_floor,1,", "slope,nan,"]) + "\n"


def test_refuses_huge_n_without_forming_its_factorial(tmp_path, capsys):
    # (10^12)! has no printable size: the refusal gives its power of ten.
    n = 10 ** 12
    cfg = {"algebra": {"family": "sl_real", "n": n}, "weight": [1.0],
           "grid": {"axes": [{"start": 0.1, "stop": 0.2, "steps": 2}]}}
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    digits = math.lgamma(n + 1) / math.log(10)
    assert capsys.readouterr().err == (
        f"error: the S_n table of sl_real({n}) would have about 10^{digits:.0f} "
        "rows; it is built for n <= 9 only\n")
    assert not out.exists()


@pytest.mark.parametrize("n,rows", [
    (1e308, "about 10^(10^310.5)"), (10 ** 400, "about 10^(10^402.6)"),
    (10 ** 15, "about 10^(10^16.2)"),
], ids=["float-1e308", "int-1e400", "int-1e15"])
def test_refuses_n_beyond_float_range_without_overflow(tmp_path, capsys, n, rows):
    # lgamma overflows from n ~ 10^305, and a JSON integer may exceed any
    # float: the power of ten of the digit count is given instead.
    cfg = {"algebra": {"family": "su", "n": n}, "weight": [1.0],
           "grid": {"axes": [{"start": 0.1, "stop": 0.2, "steps": 2}]}}
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: the S_n table of su({int(n)}) would have {rows} rows; "
        "it is built for n <= 9 only\n")
    assert not out.exists()


def test_refuses_integer_literals_beyond_the_digit_limit(tmp_path, capsys):
    # json reads such a literal with int(), which refuses it with a
    # ValueError that is not a JSONDecodeError.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SU2).replace('"seed": 9', '"seed": ' + "9" * 5000))
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("value", [-1, 1075, 2 ** 63])
def test_cycle_limit_scale_count_bounded(tmp_path, capsys, value):
    # Past 1074 halvings the scale is 0.0; the count is refused while
    # parsing, before a schedule of that many scales is built.
    cfg = json.loads(json.dumps(SL2))
    cfg["oracle"]["scale_schedule_log2"] = value
    out = tmp_path / "out.csv"
    assert main(["cycle-limit", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: oracle.scale_schedule_log2 must be in [0, 1074], got {value}\n")
    assert not out.exists()


def test_eval_refuses_non_finite_grid_points(tmp_path, capsys):
    # Two axes along e0 at 1.7e308 sum to inf: refused before evaluation,
    # with no numpy warning on stderr.
    cfg = json.loads(json.dumps(SU3))
    axis = {"start": 1.7e308, "stop": 1.7e308, "steps": 1,
            "direction": [1.0] + [0.0] * 7}
    cfg["grid"] = {"axes": [axis, axis]}
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: grid point")
    assert not out.exists()


def test_oracle_refuses_too_few_samples(tmp_path, capsys):
    cfg = json.loads(json.dumps(SU2))
    cfg["oracle"]["samples"] = 0
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert "oracle.samples" in capsys.readouterr().err
    assert not out.exists()


def test_eval_determinism_bytes(tmp_path):
    cfg = write_config(tmp_path, SU2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", "--config", cfg, "--out", str(a)]) == 0
    assert main(["eval", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_calibrate_determinism_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, SU2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["calibrate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["calibrate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- eval output bytes ---------------------------------------------------

SU3_WALL = {
    "algebra": {"family": "su", "n": 3},
    "weight": [0.9, 0.4],
    "grid": {"axes": [{"start": -1.0, "stop": 1.0, "steps": 5},
                      {"start": -1.0, "stop": 1.0, "steps": 5}]},
    "output": {"format": "json"},
}
SL2_MIXED = {
    "algebra": {"family": "sl_real", "n": 2},
    "weight": [1.0],
    "s0": -1,
    "grid": {"axes": [{"start": -0.9, "stop": 0.9, "steps": 4},
                      {"start": -0.6, "stop": 0.6, "steps": 3,
                       "direction": [0.0, 1.0, -1.0]}]},
    "output": {"format": "json"},
}
SL3_USER = {
    "algebra": {"family": "sl_real", "n": 3},
    "weight": [0.9, 0.4],
    "mode": "user_supplied",
    "multiplicities": {"e": 1, "s1": -1},
    "grid": {"axes": [{"start": 0.3, "stop": 0.9, "steps": 3}]},
    "output": {"format": "json"},
}
SL3_ROTATED = {
    "algebra": {"family": "sl_real", "n": 3},
    "weight": [0.9, 0.4],
    "s0": -1,
    "grid": {"axes": [{"start": -1.2, "stop": 1.2, "steps": 7},
                      {"start": -0.8, "stop": 0.8, "steps": 5,
                       "direction": [0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0]}]},
    "output": {"format": "csv"},
}
ECHO = dict(SU2, output={"format": "json"}, note="r\u00e9sum\u00e9 \u2014 \u03a9",
            extra={"empty": {}, "none": [], "nested": {"b": [1, {"a": None}],
                                                        "a": {"z": {}}}})


def eval_output(tmp_path, cfg) -> str:
    out = tmp_path / "eval.out"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("cfg", [
    dict(SU2, output={"format": "json"}), SU3_WALL, SL2_MIXED, SL3_USER, ECHO,
], ids=["su2", "su3-wall", "sl2-outside", "user-zero-multiplicities",
        "config-echo"])
def test_eval_json_is_the_sorted_indent_1_encoding(tmp_path, cfg):
    text = eval_output(tmp_path, cfg)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    kinds = {(r["degenerate"], r["conjugacy"]) for r in doc["rows"]}
    if cfg is SU3_WALL:
        assert (True, "cartan") in kinds and (False, "cartan") in kinds
    if cfg is SL2_MIXED:
        assert (False, "outside") in kinds and (False, "cartan") in kinds
    if cfg is SL3_USER:
        assert {t["multiplicity"] for r in doc["rows"] for t in r["terms"]} == {-1, 0, 1}


@pytest.mark.parametrize("cfg,digest", [
    (SU3_WALL, "a86ded91a3c92312"),
    (SL3_ROTATED, "6eac3e3dd8de4364"),
    (dict(SU3_WALL, output={"format": "csv"}), "13cdabdcc920ec53"),
    (dict(SL3_ROTATED, output={"format": "json"}), "6ed3f4cca8fb5b75"),
    (SL2_MIXED, "3c7574743f2b6811"),
], ids=["su3-json", "sl3-csv", "su3-csv", "sl3-json", "sl2-outside-json"])
def test_eval_output_golden_digest(tmp_path, cfg, digest):
    # Hashes of outputs whose values come from the closed form (det M / V,
    # s0 perm M / V).  The first two replaced the hashes of the term-sum
    # values (70cc0e9f009794f6, 0feef3723a47ab69) after every changed float
    # was checked within 1e-14 sum |terms| of those (at most 2.2e-16); the
    # JSON terms and every other byte are unchanged.  The last three were
    # taken at commit 42830b2, where both writers still formatted every
    # axis value and denominator of every row, before they were changed to
    # format each distinct one once: they pin the other writer of each
    # family, and rows outside the real form in JSON.  su3-json and
    # su3-csv were taken again (from c36486bca6bb4997 and eea3e79b05a687a3)
    # when det M came to be taken elementwise at n <= 3: 24 floats moved,
    # the largest by 2.2e-15 (3.8346385591276255 -> 3.8346385591276277).
    # Like every golden digest they pin one numpy build.  The su3 grids
    # run along the Cartan, so they make no LAPACK call and keep their
    # bytes under every OPENBLAS_CORETYPE; the sl3 rows along the rotated
    # direction still take LAPACK's eigvals.  A CI step checks all four
    # su3 and sl3 configs under four core types and with AVX-512 off.
    text = eval_output(tmp_path, cfg)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


SL3_CARTAN = dict(SL3_ROTATED, grid={"axes": [{"start": -1.2, "stop": 1.2, "steps": 7},
                                             {"start": -0.8, "stop": 0.8, "steps": 5}]})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cfg", [SU2, SU3_WALL, SL2, SL3_CARTAN],
                         ids=["su2", "su3", "sl2", "sl3"])
def test_default_axis_eval_makes_no_lapack_call(tmp_path, monkeypatch, cfg, fmt):
    # Rows along the real Cartan basis are diagonal: their spectra are read
    # off the diagonal and, at n <= 3, det M is taken elementwise.
    cfg = dict(cfg, output={"format": fmt})
    expected = eval_output(tmp_path, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("eigvalsh", "eigvals", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert eval_output(tmp_path, cfg) == expected


def test_eval_json_terms_stay_blocked(tmp_path):
    # 40 su(6) rows carry 28,800 terms.  Formatted in one block, their
    # floats and strings take about 40 MB at once; in blocks, 7 MB.
    cfg = {
        "algebra": {"family": "su", "n": 6},
        "weight": [0.9, 1.5, 1.8, 1.5, 0.9],
        "grid": {"axes": [{
            "start": 0.5, "stop": 1.5, "steps": 40,
            "direction": np.random.default_rng(3).standard_normal(35).tolist(),
        }]},
        "output": {"format": "json"},
    }
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["eval", "--config", path, "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_eval_csv_streams_in_blocks():
    # 90,000 rows are 8 MB of CSV text.  Built as one string with its row
    # and float lists they take about 35 MB at once; in blocks of
    # _TEXT_BLOCK rows, about 2 MB.  The blocks join to the text of the
    # rows formatted one by one.
    orbit = make_orbit(build_algebra("su", 3), [0.9, 0.4])
    rng = np.random.default_rng(4)
    ranges = [np.linspace(-2.0, 2.0, 300), np.linspace(-1.9, 2.1, 300)]
    values = rng.standard_normal(90_000) + 1j * rng.standard_normal(90_000)
    degenerate = rng.random(90_000) < 0.1
    digest, blocks = hashlib.sha256(), 0
    tracemalloc.start()
    try:
        for chunk in _eval_csv(orbit, ranges, values, degenerate):
            digest.update(chunk.encode())
            blocks += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert blocks == 1 + math.ceil(90_000 / _TEXT_BLOCK)
    lines = ["x0,x1,re_f,im_f,degenerate,mode,s0,version"]
    points = product(*(r.tolist() for r in ranges))
    for (a, b), value, flag in zip(points, values.tolist(), degenerate.tolist()):
        f = ("nan", "nan") if flag else (repr(value.real), repr(value.imag))
        lines.append(f"{a!r},{b!r},{f[0]},{f[1]},{int(flag)},compact,1,1")
    assert digest.digest() == hashlib.sha256(("\n".join(lines) + "\n").encode()).digest()


# Where repr's and orjson's notations meet: positional text for
# 1e-4 <= |x| < 1e16, exponents outside.
EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
               1.5, 1e16, -1.0 / 3.0, math.nextafter(1e-4, -math.inf),
               math.nextafter(1e-4, math.inf), 1e-4, -1e-4,
               math.nextafter(1e16, 0.0), 9999999999999998.0, 2.0 ** 53, 1e15,
               100.0]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def json_texts(values) -> list:
    return [json.dumps(x) for x in np.ravel(values).tolist()]


@settings(max_examples=200, deadline=None)
@given(arrays(float, array_shapes(max_dims=3, max_side=4), elements=FLOATS))
@example(np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]))
@example(np.full((3, 2), -0.0))
def test_float_texts_are_repr_and_json_per_element(values):
    assert _reprs(values) == [repr(x) for x in values.ravel().tolist()]
    assert _json_floats(values) == json_texts(values)


def test_float_texts_of_short_arrays():
    # Every length from 0 to 20, the empty array included, with each edge
    # float in several positions.
    for size in range(21):
        values = np.resize(np.array(EDGE_FLOATS), size)
        floats = values.tolist()
        assert _reprs(values) == list(map(repr, floats))
        assert _json_floats(values) == list(map(json.dumps, floats))
        assert _reprs(values[::-1]) == list(map(repr, floats[::-1]))


def test_float_texts_on_random_bit_patterns():
    # Half the patterns take any exponent, so NaN, subnormals and both
    # exponent notations come up; half lie in [2^-14, 2^54), across both
    # ends of the range 1e-4 <= |x| < 1e16 where orjson's text is kept.
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    exponents = rng.integers(1023 - 14, 1023 + 54, 100_000, dtype=np.uint64)
    bits[1::2] = (bits[1::2] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponents << np.uint64(52))
    values = bits.view(float)
    floats = values.tolist()
    assert _reprs(values) == list(map(repr, floats))
    assert _json_floats(values) == list(map(json.dumps, floats))


@settings(max_examples=200, deadline=None)
@given(st.lists(arrays(float, st.integers(1, 4), elements=FLOATS),
                min_size=1, max_size=3))
@example([np.array([0.0, -0.0, 0.0]), np.full(2, 1.5)])   # equal values
@example([np.array([math.nan]), np.array([-0.0]), np.array([math.inf])])
def test_grid_text_formats_each_row_as_its_floats(ranges):
    # The rows _grid_points builds from these ranges, formatted per element.
    values = np.stack([g.ravel() for g in np.meshgrid(*ranges, indexing="ij")],
                      axis=1)
    for texts, one in ((_reprs, repr), (_json_floats, json.dumps)):
        expected = [", ".join(map(one, row)) for row in values.tolist()]
        assert list(_grid_text(ranges, texts, ", ")) == expected


def complex_of(re, im):
    # Exact parts, where re + 1j * im would turn inf * 0 into NaN.
    z = np.zeros(np.broadcast(re, im).shape, complex)
    z.real, z.imag = re, im
    return z


def check_term_texts(signs, v, expo, vals):
    with np.errstate(invalid="ignore"):
        den = signs[:, None] * v   # as localize._terms forms it
    keyed = np.stack([den.imag, expo.imag, vals.imag, den.real, expo.real,
                      vals.real], axis=-1).transpose(1, 0, 2)
    assert _term_texts(expo, den, vals, signs) == json_texts(keyed)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_term_texts_are_the_per_element_json_of_every_term(data):
    width = data.draw(st.integers(1, 6))
    rows = data.draw(st.integers(1, 4))
    signs = np.array([1.0] + data.draw(st.lists(
        st.sampled_from([1.0, -1.0]), min_size=width - 1, max_size=width - 1)))
    re, im = (data.draw(arrays(float, (rows,), elements=FLOATS)) for _ in "ri")
    expo, vals = (data.draw(arrays(complex, (width, rows), elements=st.complex_numbers()))
                  for _ in "ev")
    check_term_texts(signs, complex_of(re, im), expo, vals)


def test_term_texts_on_signed_zeros_and_non_finite_denominators():
    # S_3's signs in table order.  Multiplying 0.0 - 2j by -1 gives the real
    # part +0.0, where the negation -(0.0 - 2j) would give -0.0.
    signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    re = np.array([0.0, -0.0, 0.0, math.nan, math.inf, 5e-324, -0.0])
    im = np.array([-2.0, 2.0, 0.0, 1.0, -0.0, -math.inf, -0.0])
    v = complex_of(re, im)
    expo = complex_of(0.0, np.linspace(-3.0, 3.0, 42).reshape(6, 7))
    check_term_texts(signs, v, expo, np.exp(expo))
    assert (json.dumps((signs[1] * v[0]).real), json.dumps((-v[0]).real)) \
        == ("0.0", "-0.0")


# --- oracle, verify and calibrate output bytes -----------------------------

SU3_ORACLE = {
    "algebra": {"family": "su", "n": 3},
    "weight": [0.9, 0.4],
    "grid": {"axes": [{"start": 0.3, "stop": 0.9, "steps": 2},
                      {"start": -0.4, "stop": 0.4, "steps": 2}]},
    # Two Haar chunks of 2^15 draws each.
    "oracle": {"seed": 3, "samples": 40_000},
}
# The fixed verify configs of the oracle-verify benchmark workload.
SU3_VERIFY = {"algebra": {"family": "su", "n": 3}, "weight": [0.9, 0.4],
              "oracle": {"seed": 1}}
SL2_VERIFY = {"algebra": {"family": "sl_real", "n": 2}, "weight": [1.0],
              "s0": -1, "oracle": {"seed": 20240802}}


def report_digest(tmp_path, capsys, command, cfg) -> str:
    """Hash of what a command writes: its output file, then its stdout."""
    path = write_config(tmp_path, cfg)
    out = tmp_path / f"{command}.out"
    argv = [command, "--config", path, "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()
                          + capsys.readouterr().out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("command,cfg,digest", [
    ("oracle", SU3_ORACLE, "a738d52cd199ac6c"),
    ("oracle", SL2, "c44bc18510236c51"),
    ("verify", SU3_VERIFY, "d472c64ccc22bb81"),
    ("verify", SL2_VERIFY, "c2f8e28531469f5b"),
    ("calibrate", SU3_ORACLE, "e001cbc01f7a08ba"),
    ("calibrate", SL2, "7819a877c38472f1"),
], ids=["oracle-su3", "oracle-sl2", "verify-su3", "verify-sl2",
        "calibrate-su3", "calibrate-sl2"])
def test_oracle_verify_calibrate_golden_digest(tmp_path, capsys, command, cfg,
                                               digest):
    # Taken where cmd_oracle and the oracle suite each applied the 3 sigma
    # rule themselves and the suites valued points one at a time: they pin
    # every estimate, sigma, verdict and residual to the bit.  oracle-su3,
    # verify-su3 and verify-sl2 were taken again when the Haar pass came to
    # draw n - 1 Ginibre columns, the Casimir check a five-point stencil
    # and group elements a closed-form exponential.  oracle-su3 was taken
    # again (from b06c1a93e2b68a71) when the Haar values came to be formed
    # from tan(theta / 2): one mean moved in its last digit.  verify-su3
    # and verify-sl2 were taken again (from 02274434534a5013 and
    # 2a3939aff4177e78) when the CP^1 kernels came to solve their carriers
    # in closed form: seven geometry residuals moved.  They were taken
    # again (from 817da41a937c7cc5 and 92d8af9ca8e7af27) when coordinates
    # came to be read off matrices by index instead of through a pinv
    # projector.  Every name, threshold and verdict stayed; the residuals
    # that moved:
    #   su(3)   jacobi identity              7.651e-16 -> 0.0
    #           killing invariance           7.105e-15 -> 0.0
    #           cartan reduction round trip  1.790e-15 -> 1.778e-15
    #           reduced element commutes     1.132e-15 -> 0.0
    #           ad and weyl invariance       1.635e-15 -> 1.667e-15
    #   sl(2,R) killing invariance           2.665e-15 -> 0.0
    #           cartan reduction round trip  1.554e-15 -> 1.110e-15
    #           ad and weyl invariance       6.273e-14 -> 6.661e-15
    #           orbit measure (brackets)     1.0424550e-09 -> 1.0424541e-09
    # verify-su3 and verify-sl2 were taken again (from 107eba9a45d7a48b and
    # c4bf5e17479efa26) when the jacobi identity and killing invariance
    # thresholds came down from 1e-12 and 1e-10 to 0.0: only those two
    # threshold fields changed.  oracle-su3 and verify-su3 were taken again
    # (from 0e045a86358f1c80 and 9c43425ddfd1fba6) when det M came to be
    # taken elementwise at n <= 3.  Five oracle floats moved in their last
    # digit, the largest by 2.7e-15 (-4.06156501180547 -> -4.061565011805468);
    # three verify residuals moved, every name, threshold and verdict stayed:
    #   closed form equals the sum over the multiplicities  8.063e-16 -> 8.297e-16
    #   ad and weyl invariance of the transform             1.667e-15 -> 1.680e-15
    #   quadratic invariant eigenvalue identity             1.5483e-07 -> 1.5611e-07
    # verify-su3 and verify-sl2 were taken again (from 8fc3f84a7c3db499 and
    # 9008e7c6626f44cd) when reduce_to_cartan came to build its reduced
    # element from the partial sums of the evaluator's spectrum.  Only the
    # cartan reduction round trip moved, every name, threshold and verdict
    # stayed: su(3) 1.778e-15 -> 2.070e-15, sl(2,R) 1.110e-15 -> 1.776e-15.
    # verify-sl2 was taken again (from e4bfd09c184ecc06) when the
    # hyperboloid oracle's J0 came from numpy instead of scipy.special.  Two
    # oracle residuals moved, every name, threshold and verdict stayed:
    #   quadrature stable under mesh halving  0.0 -> 2.724e-16
    #   vanishing-damping limit (10%)  0.0027515597892503758 -> 0.0027515597892490452
    # oracle-sl2 and calibrate-sl2 kept their bytes.
    # Like every golden digest, these pin one host with one numpy and
    # OpenBLAS build: numpy's SIMD dispatch (NPY_DISABLE_CPU_FEATURES) and
    # OpenBLAS's kernel choice (OPENBLAS_CORETYPE) can move last bits.
    assert report_digest(tmp_path, capsys, command, cfg) == digest


@pytest.mark.parametrize("command,cfg", [
    (["oracle"], SU3_ORACLE), (["verify", "--suite", "oracle"], SU3_VERIFY),
], ids=["oracle", "verify-oracle"])
def test_compact_oracle_needs_no_dual_element(tmp_path, monkeypatch, command, cfg):
    # The Haar carrier's diagonal is read off the weight: the dual element
    # and its n x n matrix are never formed, and the bytes do not move.
    from orbit_localize.localize import OrbitSpec

    def refuse(self):
        raise AssertionError("OrbitSpec.dual_element read")

    path = write_config(tmp_path, cfg)
    plain, patched = tmp_path / "plain.out", tmp_path / "patched.out"
    assert main([*command, "--config", path, "--out", str(plain)]) == 0
    monkeypatch.setattr(OrbitSpec, "dual_element", property(refuse))
    assert main([*command, "--config", path, "--out", str(patched)]) == 0
    assert patched.read_bytes() == plain.read_bytes()


def test_compact_oracle_makes_one_haar_pass(tmp_path, monkeypatch):
    # The constant is the closed form, so the comparison is the only draw.
    from orbit_localize import oracle

    calls = []
    haar_pass = oracle._haar_pass

    def counted(*args, **kwargs):
        calls.append(args[1:3])   # (seed, count)
        return haar_pass(*args, **kwargs)

    monkeypatch.setattr(oracle, "_haar_pass", counted)
    path = write_config(tmp_path, SU3_ORACLE)
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == [(4, 40_000)]


def test_compact_oracle_suite_makes_one_estimate_pass(tmp_path, monkeypatch):
    # The dyadic reference and the 20 comparison points share the pass at
    # seed + 23; the other two calls are the 4,000-sample orbit and
    # determinism draws.
    from orbit_localize import oracle

    calls = []
    haar_pass = oracle._haar_pass

    def counted(*args, **kwargs):
        calls.append(args[1:3])   # (seed, count)
        return haar_pass(*args, **kwargs)

    monkeypatch.setattr(oracle, "_haar_pass", counted)
    path = write_config(tmp_path, SU3_VERIFY)
    assert main(["verify", "--config", path, "--suite", "oracle"]) == 0
    assert calls == [(1, 4000), (24, 200_000), (1, 4000)]


def test_compact_oracle_with_no_usable_row_draws_nothing_and_exits_3(
        tmp_path, monkeypatch):
    # Every row of the grid is degenerate: the header is written, as eval
    # writes its output, and no Haar sample is drawn.
    from orbit_localize import oracle

    calls = []
    monkeypatch.setattr(oracle, "_haar_pass", lambda *a, **k: calls.append(a))
    cfg = {"algebra": {"family": "su", "n": 3}, "weight": [0.9, 0.4],
           "grid": {"axes": [{"start": 0.0, "stop": 0.0, "steps": 1},
                             {"start": 0.0, "stop": 0.0, "steps": 1}]},
           "oracle": {"seed": 3, "samples": 1_000_000}}
    out = tmp_path / "o.csv"
    assert main(["oracle", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert out.read_text() == (
        "x_coords,re_formula,im_formula,re_mc,im_mc,stderr,agree_3sigma\n")
    assert calls == []


def test_split_oracle_with_no_split_row_writes_the_header_and_exits_3(
        tmp_path, monkeypatch):
    # X = 0 is no split row: the header is written, as on compact grids,
    # and no quadrature is run.
    from orbit_localize import cli

    calls = []
    monkeypatch.setattr(cli, "damped_oscillatory_integral",
                        lambda *a, **k: calls.append(a))
    cfg = dict(SL2, grid={"axes": [{"start": 0.0, "stop": 0.0, "steps": 1}]})
    out = tmp_path / "o.csv"
    assert main(["oracle", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert out.read_text() == "eps,re_estimate,im_estimate\n"
    assert calls == []


@pytest.mark.parametrize("samples", [2, 5])
def test_compact_oracle_suite_refuses_under_8_samples_before_any_draw(
        tmp_path, monkeypatch, capsys, samples):
    # The dyadic counts N/8, N/4 and N/2 need 8 samples: fewer is a config
    # error, not a FAIL row.
    from orbit_localize import oracle

    calls = []
    monkeypatch.setattr(oracle, "_haar_pass", lambda *a, **k: calls.append(a))
    cfg = dict(SU3_VERIFY, oracle={"seed": 1, "samples": samples})
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--suite", "oracle"]) == 2
    got = capsys.readouterr()
    assert "FAIL" not in got.out
    assert "oracle.samples >= 8" in got.err
    assert calls == []


def test_compact_calibrate_makes_no_haar_pass(tmp_path, monkeypatch, capsys):
    from orbit_localize import oracle

    calls = []
    monkeypatch.setattr(oracle, "_haar_pass", lambda *a, **k: calls.append(a))
    path = write_config(tmp_path, SU3_ORACLE)
    assert main(["calibrate", "--config", path,
                 "--out", str(tmp_path / "c.json")]) == 0
    assert calls == []


GATE_RNG = np.random.default_rng(2026)   # weights of the oracle suite gate


@pytest.mark.parametrize("n, weight, seed", [
    (3, [0.9, 0.4], 2),
    (3, [0.9, 0.4], 5),
    (3, [0.9, 0.4], 12),
    (3, [0.9, 0.8], 1),
    (4, [0.68, 0.52, 0.88], 1),
    (5, [1.29, 1.51, 0.43, 0.96], 1),
    *((n, GATE_RNG.uniform(0.4, 1.6, n - 1).tolist(), 1)
      for n in (2, 2, 6, 6)),
])
def test_compact_oracle_suite_gives_a_verdict(tmp_path, n, weight, seed):
    # The su(3) cases drew a calibration point whose Haar average was too
    # small to measure ("consistent with zero", exit 2) while the constant
    # was a Monte Carlo estimate; su(4) and su(5) refused the same way.
    # su(2) and su(6) run at two random weights each.
    cfg = {"algebra": {"family": "su", "n": n}, "weight": weight,
           "oracle": {"seed": seed}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--suite", "oracle",
                 "--out", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert "calibrated estimates match (<= 2 of 20 misses)" in names


def test_skipped_oracle_suite_reads_as_a_skip(tmp_path, capsys):
    # The noncompact oracle covers sl(2,R) only; on sl(3,R) its row is a
    # skip, in the report and in the JSON, and does not change the exit.
    cfg = {"algebra": {"family": "sl_real", "n": 3}, "weight": [0.9, 1.3],
           "s0": -1, "oracle": {"seed": 1}}
    out = tmp_path / "report.json"
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln[:4] for ln in lines if "oracle:" in ln] == ["SKIP"]
    assert all(ln[:4] == "PASS" for ln in lines if "oracle:" not in ln)
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if c.get("skipped")] == [
        "oracle: skipped (noncompact oracle covers sl(2,R) only)"]
    assert all("skipped" not in c for c in checks if "oracle:" not in c["name"])


@pytest.mark.parametrize("cfg", [
    {"algebra": {"family": "su", "n": 3}, "weight": [2.7, 1.2]},
    {"algebra": {"family": "su", "n": 5}, "weight": [1.29, 2.8, 3.23, 4.19]},
    {"algebra": {"family": "sl_real", "n": 3}, "weight": [2.7, 3.9], "s0": -1},
], ids=["su3", "su5", "sl3"])
def test_casimir_identity_passes_at_larger_weights(tmp_path, capsys, cfg):
    # A three-point stencil at step 1e-3 read 3.1e-4, 7.2e-4 and 2.1e-3
    # here, over the 1e-4 threshold; the five-point stencil reads < 1e-5.
    path = write_config(tmp_path, {**cfg, "oracle": {"seed": 1}})
    assert main(["verify", "--config", path, "--suite", "localize"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r[:4] for r in rows if "quadratic invariant" in r] == ["PASS"]


def test_split_localize_suite_makes_no_fourier_value_call(tmp_path, monkeypatch):
    # The suite values its points in batches, through fourier_grid.
    from orbit_localize import cli, localize, oracle, suites

    def refuse(*args, **kwargs):
        raise AssertionError("fourier_value called")

    for module in (localize, suites, oracle, cli):
        if hasattr(module, "fourier_value"):
            monkeypatch.setattr(module, "fourier_value", refuse)
    path = write_config(tmp_path, SL2_VERIFY)
    assert main(["verify", "--config", path, "--suite", "localize"]) == 0
