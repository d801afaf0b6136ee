"""The closed-form numerator against the sum over W.

In the automatic modes the evaluator reports det M / V (su(n)) or
s0 perm M / V (sl(n,R)) with M = exp(outer(ev, s zeta)) at points of the
real form; the term sum stays for user_supplied mode, for points off the
real form and for term breakdowns.  These tests hold
the two to 1e-14 sum |terms|, pin user_supplied output bytes, and check
that a CSV eval in an automatic mode runs with no S_n table at all.
"""

import hashlib
import json
import math
from itertools import permutations

import numpy as np
import pytest

from orbit_localize import algebra
from orbit_localize.algebra import _REGULAR, build_algebra, element_from_matrix
from orbit_localize.cli import main
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
