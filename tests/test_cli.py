"""Command-line behavior: schemas, exit codes, determinism."""

import hashlib
import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from orbit_localize.cli import main

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


def test_unknown_suite_rejected(tmp_path):
    cfg = write_config(tmp_path, SU2)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--suite", "nonsense"])
    assert err.value.code == 2


def test_verify_algebra_suite_passes(tmp_path):
    cfg = write_config(tmp_path, SU2)
    out = tmp_path / "report.json"
    code = main(["verify", "--config", cfg, "--suite", "algebra",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and all(c["passed"] for c in doc["checks"])


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
    prov = doc["calibration"]["provenance"]
    assert prov["seed"] == 9 and prov["samples"] == 20000
    assert main(["calibrate", "--config", cfg, "--out", cfg]) == 2
    assert "overwrite" in capsys.readouterr().err


def test_calibrate_requires_oracle_block(tmp_path, capsys):
    no_oracle = {k: v for k, v in SU2.items() if k != "oracle"}
    cfg = write_config(tmp_path, no_oracle)
    assert main(["calibrate", "--config", cfg]) == 2
    assert "oracle" in capsys.readouterr().err


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


def test_cycle_limit_requires_sl2(tmp_path, capsys):
    cfg = write_config(tmp_path, SU2)
    assert main(["cycle-limit", "--config", cfg]) == 2
    assert "sl(2,R)" in capsys.readouterr().err


def test_seed_required_for_oracle_commands(tmp_path, capsys):
    no_seed = json.loads(json.dumps(SL2))
    del no_seed["oracle"]["seed"]
    cfg = write_config(tmp_path, no_seed)
    assert main(["oracle", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


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
], ids=[
    "su2-start-nan", "su3-start-nan", "sl3-stop-nan", "direction-nan",
    "weight-inf", "n-fractional", "n-text", "steps-text", "steps-fractional",
    "s0-fractional", "seed-fractional", "samples-text", "weight-scalar",
    "grid-list", "multiplicity-text", "multiplicities-list",
    "multiplicity-null", "samples-zero", "samples-negative", "samples-one",
    "path-number", "reference-null", "reference-nan", "reference-text",
    "weight-text", "direction-text", "direction-empty-text",
    "direction-empty", "weight-overflow-su", "weight-overflow-sl",
    "multiplicity-overflow",
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
    (SU3_WALL, "c36486bca6bb4997"),
    (SL3_ROTATED, "6eac3e3dd8de4364"),
], ids=["su3-json", "sl3-csv"])
def test_eval_output_golden_digest(tmp_path, cfg, digest):
    # Hashes of outputs whose values come from the closed form (det M / V,
    # s0 perm M / V).  They replaced the hashes of the term-sum values
    # (70cc0e9f009794f6, 0feef3723a47ab69) after every changed float was
    # checked within 1e-14 sum |terms| of those (at most 2.2e-16); the
    # JSON terms and every other byte are unchanged.
    text = eval_output(tmp_path, cfg)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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
