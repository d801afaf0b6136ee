"""The closed-form numerator against the sum over W.

In the automatic modes the evaluator reports det M / V (su(n)) or
s0 perm M / V (sl(n,R)) with M = exp(outer(ev, s zeta)) at points of the
real form; the term sum stays for user_supplied mode, for points off the
real form and for term breakdowns.  These tests hold
the two to 1e-14 sum |terms|, pin user_supplied output bytes, check
that a CSV eval in an automatic mode runs with no S_n table at all, and
check that ``verify`` fails when one reader of ``fixedpoints.RULES``
leaves the table.
"""

import hashlib
import json
import math
from itertools import permutations

import numpy as np
import pytest

from orbit_localize import algebra, fixedpoints, localize, suites
from orbit_localize.algebra import _REGULAR, build_algebra, element_from_matrix
from orbit_localize.cli import main
from orbit_localize.fixedpoints import RULES
from orbit_localize.localize import (
    _closed_form,
    _evaluate,
    _permanent,
    _terms,
    make_orbit,
)


def _points(spec, rng, count):
    """Coordinates of su(n) points, or of sl(n,R) points with real spectra."""
    if spec.family == "su":
        return rng.standard_normal((count, spec.dim))
    rows = []
    for _ in range(count):
        g = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))[0]
        d = rng.standard_normal(spec.n)
        rows.append(element_from_matrix(spec, g @ np.diag(d - d.mean()) @ g.T).coords)
    return np.array(rows)


@pytest.mark.parametrize("family,n,s0", [
    *[("su", n, 1) for n in range(2, 8)],
    *[("sl_real", n, s0) for n in range(2, 10) for s0 in (1, -1)],
])
def test_closed_form_matches_the_term_sum(family, n, s0):
    # Up to MAX_TABLE_N = 9: Glynn's sums could round by up to about
    # n^n / n! in the worst case.  sl(9,R) takes a few rows only, since
    # its term sum holds 362,880 terms a row.
    rng = np.random.default_rng(100 * n + s0)
    spec = build_algebra(family, n)
    weight = np.cumsum(np.sort(rng.uniform(-1.0, 1.0, n))[::-1])[:-1]
    orbit = make_orbit(spec, weight, s0=s0)
    coords = _points(spec, rng, 3 if n == 9 else 24)
    codes, values, spectra, _ = _evaluate(orbit, coords, np.ones(len(coords), bool))
    ok = codes == _REGULAR
    assert ok.sum() >= len(coords) - len(coords) // 6
    terms = _terms(orbit, spectra[ok])[2]
    total = np.add.accumulate(terms, axis=0)[-1]
    scale = np.abs(terms).sum(axis=0)
    assert np.all(np.abs(values[ok] - total) <= 1e-14 * scale)
    assert np.array_equal(values[ok], _closed_form(orbit, spectra[ok]))


def test_rows_off_the_real_form_keep_the_term_sum():
    # One batch: rows of the real form take the closed form, rows with
    # complex coordinates (su(n) spectra with real parts) the label-ordered
    # term sum, bit for bit.
    rng = np.random.default_rng(12)
    for n in (3, 5):
        spec = build_algebra("su", n)
        orbit = make_orbit(spec, np.cumsum(np.linspace(1.0, -1.0, n))[:-1])
        coords = rng.standard_normal((20, spec.dim)).astype(complex)
        coords[10:] *= 1 + 0.5j
        real = np.arange(20) < 10
        codes, values, spectra, _ = _evaluate(orbit, coords, real)
        assert (codes == _REGULAR).all()
        assert np.array_equal(values[real], _closed_form(orbit, spectra[real]))
        terms = _terms(orbit, spectra[~real])[2]
        assert np.array_equal(values[~real], np.add.accumulate(terms, axis=0)[-1])


def test_permanent_by_definition():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        m = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        expected = [sum(math.prod(a[i, p[i]] for i in range(n))
                        for p in permutations(range(n))) for a in m]
        assert np.allclose(_permanent(m), expected, rtol=1e-13, atol=0)


def test_closed_form_rows_independent_of_batch():
    # One matrix alone, the first 16, and the rest: each row's bits stay.
    rng = np.random.default_rng(8)
    for family, n in (("su", 3), ("su", 5), ("su", 7),
                      ("sl_real", 3), ("sl_real", 4), ("sl_real", 6)):
        spec = build_algebra(family, n)
        orbit = make_orbit(spec, np.cumsum(np.linspace(1.0, -1.0, n))[:-1], s0=-1)
        coords = _points(spec, rng, 40)
        spectra = _evaluate(orbit, coords, np.ones(40, bool))[2]
        whole = _closed_form(orbit, spectra)
        parts = np.concatenate([_closed_form(orbit, spectra[:1]),
                                _closed_form(orbit, spectra[1:16]),
                                _closed_form(orbit, spectra[16:])])
        assert whole.tobytes() == parts.tobytes()


SU4_USER = {
    "algebra": {"family": "su", "n": 4},
    "weight": [0.3, 0.9, 0.4],
    "mode": "user_supplied",
    "multiplicities": {"e": 1, "s1": 2, "s2s3": -1, "s1s2s1": 3},
    "grid": {"axes": [{"start": -0.9, "stop": 1.1, "steps": 9,
                       "direction": [0.31, -0.52, 0.14, 0.27, -0.08, 0.45, -0.33,
                                     0.19, 0.06, -0.41, 0.22, 0.38, -0.17, 0.11,
                                     -0.29]}]},
}
# Walls (the Cartan axis crosses them) and split-class zeros among the rows.
SL3_USER = {
    "algebra": {"family": "sl_real", "n": 3},
    "weight": [0.4, 0.9],
    "mode": "user_supplied",
    "multiplicities": {"e": -1, "s1": 1, "s2": 1, "s1s2": -1, "s2s1": -1,
                       "s1s2s1": 1},
    "grid": {"axes": [{"start": -1.2, "stop": 1.2, "steps": 7},
                      {"start": -0.8, "stop": 0.8, "steps": 5,
                       "direction": [0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0]}]},
}


@pytest.mark.parametrize("cfg,fmt,digest", [
    (SU4_USER, "csv", "fde2992ae6a2cd97"),
    (SU4_USER, "json", "5e92f5f0b12b0e5f"),
    (SL3_USER, "csv", "15f7a63d2ec4addb"),
    (SL3_USER, "json", "183664fd66c9f9fb"),
], ids=["su4-csv", "su4-json", "sl3-csv", "sl3-json"])
def test_user_supplied_output_bytes_unchanged(tmp_path, cfg, fmt, digest):
    # Hashes of the outputs of the term-sum evaluator that preceded the
    # closed form; user_supplied mode still takes the term sum.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(cfg, output={"format": fmt})))
    out = tmp_path / "out"
    assert main(["eval", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("family,n", [("su", 7), ("sl_real", 6)])
def test_csv_eval_in_automatic_modes_builds_no_table(tmp_path, monkeypatch,
                                                     family, n):
    def refuse(*args, **kwargs):
        raise AssertionError("the S_n table was read")

    monkeypatch.setattr(algebra, "_weyl_table", refuse)
    monkeypatch.setattr(algebra, "WeylElement", refuse)
    rng = np.random.default_rng(n)
    weight = np.cumsum(np.linspace(0.9, -0.9, n))[:-1].tolist()
    axis = {"start": 0.2, "stop": 1.0, "steps": 5,
            "direction": rng.standard_normal(n * n - 1).tolist()}
    cfg = {"algebra": {"family": family, "n": n}, "weight": weight,
           "s0": -1, "grid": {"axes": [axis]}, "output": {"format": "csv"}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["eval", "--config", str(path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5


# --- verify ties the two readers of the rule --------------------------------

VERIFY_SU3 = {"algebra": {"family": "su", "n": 3}, "weight": [0.9, 0.4],
              "oracle": {"seed": 1, "samples": 10_000}}
VERIFY_SL2 = {"algebra": {"family": "sl_real", "n": 2}, "weight": [1.0],
              "s0": -1, "oracle": {"seed": 20240802}}
VERIFY_SL3 = {"algebra": {"family": "sl_real", "n": 3}, "weight": [0.9, 1.3],
              "s0": -1, "oracle": {"seed": 1}}
TIE = "closed form equals the sum over the multiplicities"


def verify(tmp_path, capsys, cfg, suite):
    """Exit code of ``verify --suite`` and the names of its failed rows."""
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(["verify", "--suite", suite, "--config", str(path)])
    failed = [line[4:].split("residual=")[0].strip()
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    return code, failed


def split_rule_read_as(rule, reader):
    """``reader`` seeing RULES["maximally_split"] as ``rule``, during its calls only."""
    def mutant(*args):
        kept = RULES["maximally_split"]
        RULES["maximally_split"] = rule
        try:
            return reader(*args)
        finally:
            RULES["maximally_split"] = kept
    return mutant


@pytest.mark.parametrize("reader,rule", [
    ("_multiplicities", ("sl_real", 0, True)),   # ignores the power
    ("_closed_form", ("sl_real", 0, True)),      # takes det for perm
    ("_closed_form", ("sl_real", 1, False)),     # drops s0
], ids=["multiplicities-ignore-power", "closed-form-det",
        "closed-form-unsigned"])
def test_verify_fails_a_reader_that_leaves_the_rule(tmp_path, capsys,
                                                    monkeypatch, reader, rule):
    # Without the tie these three kept every fixedpoints row passing, and
    # the first two kept ``verify --suite all`` at exit 0 on sl(3,R).
    for cfg in (VERIFY_SL2, VERIFY_SL3):
        assert verify(tmp_path, capsys, cfg, "fixedpoints") == (0, [])
    mutant = split_rule_read_as(rule, getattr(localize, reader))
    for module in (fixedpoints, localize, suites):
        if hasattr(module, reader):
            monkeypatch.setattr(module, reader, mutant)
    for cfg in (VERIFY_SL2, VERIFY_SL3):
        assert verify(tmp_path, capsys, cfg, "fixedpoints") == (4, [TIE])


def test_verify_all_prints_the_failed_rows_before_a_later_refusal(
        tmp_path, capsys, monkeypatch):
    # Under det for perm the sl(2,R) sign calibration is ambiguous, so the
    # oracle suite refuses after the fixedpoints suite has failed its tie.
    mutant = split_rule_read_as(("sl_real", 0, True), localize._closed_form)
    for module in (localize, suites):
        monkeypatch.setattr(module, "_closed_form", mutant)
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(VERIFY_SL2))
    capsys.readouterr()
    assert main(["verify", "--suite", "all", "--config", str(path)]) == 4
    out, err = capsys.readouterr()
    rows = out.splitlines()
    assert any(r.startswith(f"FAIL  fixedpoints: {TIE}") for r in rows)
    assert {r.split()[1] for r in rows} \
        == {"algebra:", "fixedpoints:", "localize:", "geometry:"}
    assert err == "error: sign calibration is ambiguous at this point\n"


def test_a_rule_both_readers_follow_is_left_to_the_oracle(tmp_path, capsys,
                                                         monkeypatch):
    # Compact multiplicities det(w) and the numerator perm M move together,
    # so the tie holds; the Monte Carlo comparison catches the change.
    assert verify(tmp_path, capsys, VERIFY_SU3, "oracle") == (0, [])
    monkeypatch.setitem(RULES, "compact", ("su", 1, False))
    assert verify(tmp_path, capsys, VERIFY_SU3, "fixedpoints") == (0, [])
    assert verify(tmp_path, capsys, VERIFY_SU3, "oracle") \
        == (4, ["calibrated estimates match (<= 2 of 20 misses)"])


@pytest.mark.parametrize("n", [2, 3])
def test_elementwise_det_within_bound_of_lapack(n):
    # det M at n <= 3 is a cofactor expansion on (N,) columns.  On the
    # compact M = exp(outer(ev, s zeta)) of random spectra and of spectra
    # near a wall (gaps 1e-12 .. 1e-2), where det M nearly cancels, it stays
    # within 4 eps sum |products| of LAPACK's LU determinant, the products
    # being the n! terms of the Leibniz sum.  The worst ratio seen here is
    # 1.5 at n = 2 and 2.1 at n = 3.
    rng = np.random.default_rng(30 + n)
    spec = build_algebra("su", n)
    eps = np.finfo(float).eps
    for _ in range(10):
        weight = np.cumsum(np.sort(rng.uniform(-2.0, 2.0, n))[::-1])[:-1]
        orbit = make_orbit(spec, weight)
        lam = rng.uniform(-5.0, 5.0, (2000, n))
        lam[1000:, 1] = lam[1000:, 0] + rng.uniform(-1.0, 1.0, 1000) * np.geomspace(1e-12, 1e-2, 1000)
        ev = 1j * (lam - lam.mean(axis=1, keepdims=True))
        m = np.exp(ev[:, :, None] * (localize._scale(spec) * orbit.zeta))
        products = sum(np.abs(math.prod(m[:, i, p[i]] for i in range(n)))
                       for p in permutations(range(n)))
        got = localize._det(m)
        assert np.all(np.abs(got - np.linalg.det(m)) <= 4 * eps * products)
        # A matrix alone gives its bits in the stack.
        assert got[1234] == localize._det(m[1234:1235])[0]
