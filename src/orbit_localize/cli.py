"""Configuration-driven command-line front end.

One JSON config file captures a whole run: algebra, orbit parameter,
multiplicity mode, evaluation grid, oracle settings, output format.  All
randomness is seeded through the config (or --seed), and outputs contain no
timestamps or machine state, so identical configs produce byte-identical
result files.

Subcommands: eval, verify, calibrate, oracle, cycle-limit.
Exit codes: 0 success, 1 stdout closed by its reader (``| head``), 2
configuration error (malformed fields and unreadable or unwritable paths
included), 3 degenerate-only grid, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import islice, product
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
import orjson

from . import geometry_sl2 as geo
from .algebra import (_NONREAL, _REGULAR, AlgebraError, _refuse_large_table,
                      build_algebra, element)
from .localize import OrbitSpec, _evaluate, _terms, fourier_grid, make_orbit
from .oracle import (
    EPS_SCHEDULE,
    CalibrationError,
    _calibrated_comparison,
    _calibrated_estimates,
    calibrate,
    damped_oscillatory_integral,
    split_orbit_carrier,
)
from .suites import (MAX_SEED, SUITE_NAMES, CheckResult, SuiteRefusal,
                     SuiteSettings, run_suite)

__all__ = ["main", "RunConfig", "load_config"]

RESULT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GridAxis:
    start: float
    stop: float
    steps: int
    direction: Optional[tuple[float, ...]]  # coordinates over the algebra basis


@dataclass(frozen=True)
class RunConfig:
    family: str
    n: int
    weight: tuple[float, ...]
    mode: Optional[str]
    s0: int
    multiplicities: Optional[dict]
    axes: tuple[GridAxis, ...]
    seed: Optional[int]
    reference: Optional[tuple[float, ...]]  # calibration point, basis coords
    mc_samples: int
    eps_schedule: tuple[float, ...]
    scale_log2: int
    out_format: str
    out_path: Optional[str]
    raw: dict


def _require(cfg: dict, key: str, context: str) -> object:
    if key not in cfg:
        raise ConfigError(f"missing {context}.{key}" if context else f"missing {key} block")
    return cfg[key]


def _number(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    except OverflowError:   # an integer beyond float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _numbers(values, name: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be an array of numbers, got {values!r}")
    return tuple(_number(v, f"{name}[{i}]") for i, v in enumerate(values))


def _integer(value, name: str) -> int:
    if isinstance(value, int):
        return value
    out = _number(value, name)
    if not out.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(out)


def _allocatable(count: int, name: str) -> None:
    """Refuse a count beyond numpy's index range (``main`` reports MemoryError)."""
    if count > sys.maxsize:
        raise ConfigError(f"{name} = {count} is too large to allocate")


def _block(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:   # a directory, or a file we may not read
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}")
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal beyond int's digit limit.
        raise ConfigError(f"config is not valid JSON: {exc}")
    try:
        return _parse_config(raw)
    except (ConfigError, AlgebraError):
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}")


def _parse_config(raw: dict) -> RunConfig:
    algebra = _require(raw, "algebra", "")
    family = _require(algebra, "family", "algebra")
    n = _integer(_require(algebra, "n", "algebra"), "algebra.n")
    if family in ("su", "sl_real"):
        # Refused while parsing, before build_algebra spends n^4 memory
        # on a basis whose Weyl table would be refused anyway.
        _refuse_large_table(family, n)
    weight = _numbers(_require(raw, "weight", ""), "weight")
    mode = raw.get("mode")
    if mode is not None and not isinstance(mode, str):
        raise ConfigError(f"mode must be a string, got {mode!r}")
    s0 = _integer(raw.get("s0", 1), "s0")
    mults = raw.get("multiplicities")
    if mults is not None:
        if not isinstance(mults, dict):
            raise ConfigError("multiplicities must be an object")
        mults = {k: _integer(v, f"multiplicities.{k}") for k, v in mults.items()}

    axes = []
    for i, axis in enumerate(_block(raw, "grid").get("axes", [])):
        where = f"grid.axes[{i}]"
        if "steps" not in axis:
            raise ConfigError(f"missing {where}.steps")
        steps = _integer(axis["steps"], f"{where}.steps")
        if steps < 1:
            raise ConfigError(f"{where}.steps must be >= 1")
        _allocatable(steps, f"{where}.steps")
        direction = axis.get("direction")
        axes.append(
            GridAxis(
                start=_number(axis.get("start", 0.0), f"{where}.start"),
                stop=_number(axis.get("stop", 0.0), f"{where}.stop"),
                steps=steps,
                direction=(None if direction is None
                           else _numbers(direction, f"{where}.direction")),
            )
        )

    oracle = _block(raw, "oracle")
    seed = oracle.get("seed")
    seed = None if seed is None else _integer(seed, "oracle.seed")
    reference = oracle.get("reference")
    if reference is not None:
        reference = _numbers(reference, "oracle.reference")
    eps = _numbers(oracle.get("eps_schedule", list(EPS_SCHEDULE)),
                   "oracle.eps_schedule")
    samples = _integer(oracle.get("samples", SuiteSettings.mc_samples),
                       "oracle.samples")
    if samples < 2:
        raise ConfigError(f"oracle.samples must be >= 2, got {samples}")
    _allocatable(samples, "oracle.samples")
    scale_log2 = _integer(oracle.get("scale_schedule_log2", 20),
                          "oracle.scale_schedule_log2")
    if not 0 <= scale_log2 <= 1074:
        # 2^-1074 is the smallest positive double; the schedule is built
        # one scale at a time, so a larger count would only fill memory.
        raise ConfigError(
            f"oracle.scale_schedule_log2 must be in [0, 1074], got {scale_log2}")
    output = _block(raw, "output")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path must be a string, got {out_path!r}")
    return RunConfig(
        family=family,
        n=n,
        weight=weight,
        mode=mode,
        s0=s0,
        multiplicities=mults,
        axes=tuple(axes),
        seed=seed,
        reference=reference,
        mc_samples=samples,
        eps_schedule=eps,
        scale_log2=scale_log2,
        out_format=out_format,
        out_path=out_path,
        raw=raw,
    )


def _build_orbit(cfg: RunConfig) -> OrbitSpec:
    spec = build_algebra(cfg.family, cfg.n)
    return make_orbit(
        spec, cfg.weight, mode=cfg.mode, s0=cfg.s0,
        user_multiplicities=cfg.multiplicities,
    )


def _grid_points(cfg: RunConfig, orbit: OrbitSpec
                 ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Cartesian grid: the axis ranges, each point's axis values and its
    basis coordinates.

    Default axis directions are the real Cartan basis, the first rank
    coordinate rows.  Points run in
    ``itertools.product`` order of the ranges (last axis fastest), and
    coordinates are summed in axis order, zeros + c0*d0 + c1*d1 + ...
    Grids whose points overflow to non-finite coordinates are refused.
    """
    spec = orbit.algebra
    axes = cfg.axes
    if not axes:
        raise ConfigError("missing grid block (no axes)")
    directions = []
    for i, axis in enumerate(axes):
        if axis.direction is None:
            if i >= spec.rank:
                raise ConfigError(
                    f"grid.axes[{i}] needs an explicit direction beyond the rank"
                )
            directions.append(np.eye(spec.dim)[i])
        else:
            if len(axis.direction) != spec.dim:
                raise ConfigError(
                    f"grid.axes[{i}].direction needs {spec.dim} coordinates"
                )
            directions.append(np.asarray(axis.direction, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        ranges = [np.linspace(a.start, a.stop, a.steps) for a in axes]
        values = np.stack(
            [g.ravel() for g in np.meshgrid(*ranges, indexing="ij")], axis=1
        )
        coords = np.zeros((len(values), spec.dim))
        for k, d in enumerate(directions):
            coords = coords + values[:, k:k + 1] * d
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        first = values[np.argmin(finite)].tolist()
        raise ConfigError(
            f"grid point {first} has non-finite coordinates "
            f"({int(np.sum(~finite))} of {len(values)} points)"
        )
    return ranges, values, coords


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: Optional[str], text: str) -> None:
    _write_chunks(path, (text,))


def _write_chunks(path: Optional[str], chunks: Iterable[str]) -> None:
    """Write the chunks to stdout, or to ``path``.

    A path that cannot be opened or written is a ConfigError (exit 2); a
    failed open leaves no file.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: RunConfig, out: Optional[str], fmt: str) -> int:
    orbit = _build_orbit(cfg)
    ranges, _, coords = _grid_points(cfg, orbit)
    # One pass of the block kernel; rows are classified as fourier_grid
    # classifies them.
    codes, values, spectra, _ = _evaluate(orbit, coords,
                                          np.ones(len(coords), dtype=bool))
    degenerate = (codes != _REGULAR) & (codes != _NONREAL)
    if fmt == "csv":
        _write_chunks(out, _eval_csv(orbit, ranges, values, degenerate))
    else:
        _write_chunks(out, _eval_json(cfg, orbit, ranges, codes, values, spectra))
    if degenerate.all():
        return EXIT_DEGENERATE
    return EXIT_OK


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float of an array, in C order.

    orjson prints a float64 array in one call, each float as its shortest
    round-trip digits (Ryu), the digits repr picks too.  The two agree in
    notation only where both write positional text, 1e-4 <= |x| < 1e16 and
    +-0.0 (orjson writes 1e16 and 0.000099 where repr writes 1e+16 and
    9.9e-05), so every float outside that range, NaN and +-inf included
    (orjson's null), is re-formatted by repr.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] \
        .decode().split(",")
    size = np.abs(flat)
    # NaN fails every comparison, so it is re-formatted too.
    other = (~((size < 1e16) & ((size >= 1e-4) | (size == 0.0)))).nonzero()[0]
    for k, x in zip(other.tolist(), flat[other].tolist()):
        texts[k] = repr(x)
    return texts


# json's text of the non-finite floats, by their repr.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """json's text for each float of an array, in C order.

    json writes a finite float as its repr (-0.0 included), and NaN,
    Infinity and -Infinity for the others.
    """
    texts = _reprs(values)
    for k in (~np.isfinite(values)).ravel().nonzero()[0].tolist():
        texts[k] = _JSON_WORDS[texts[k]]
    return texts


def _grid_text(ranges: Sequence[np.ndarray],
               texts: Callable[[np.ndarray], list[str]], sep: str) -> Iterator[str]:
    """Each grid row's axis values as text joined by ``sep``, lazily, in row order.

    Grid rows are the ``itertools.product`` of the axis ranges
    (``_grid_points``), so ``texts`` formats each axis value once and the
    rows are joined from those texts as they are read.
    """
    return map(sep.join, product(*map(texts, ranges)))


# Terms per block of the JSON writer, and rows per block of the CSV
# writer: one round of float formatting each (for JSON one _terms call).
# The text of a term is some 20 times the size of its arrays, so this is
# smaller than localize._BLOCK; it bounds the writers' memory and changes
# no byte.
_TEXT_BLOCK = 1 << 12


def _eval_csv(orbit: OrbitSpec, ranges: Sequence[np.ndarray],
              values: np.ndarray, degenerate: np.ndarray) -> Iterator[str]:
    """The eval CSV in blocks of _TEXT_BLOCK rows, floats as repr.

    A header, then one line per grid row.  The axis columns come from
    ``_grid_text``, so each axis value is formatted once; the values are
    formatted per row.  Refused rows read nan with the degenerate flag 1.
    The flag and the mode, s0 and version columns after it are one of two
    fixed strings.
    """
    header = [f"x{i}" for i in range(len(ranges))]
    header += ["re_f", "im_f", "degenerate", "mode", "s0", "version"]
    yield ",".join(header) + "\n"
    suffix = f",{orbit.mode},{orbit.s0},{RESULT_VERSION}\n"
    points = _grid_text(ranges, _reprs, ",")
    for lo in range(0, len(values), _TEXT_BLOCK):
        rows = slice(lo, lo + _TEXT_BLOCK)
        re, im = _reprs(values.real[rows]), _reprs(values.imag[rows])
        tail = ["0" + suffix] * len(re)
        for k in np.flatnonzero(degenerate[rows]).tolist():
            re[k] = im[k] = "nan"
            tail[k] = "1" + suffix
        yield "".join(map(",".join, zip(islice(points, len(re)), re, im, tail)))


def _term_texts(expo: np.ndarray, den: np.ndarray, vals: np.ndarray,
                signs: np.ndarray) -> list[str]:
    """json's text of the term floats of ``_terms``, row by row.

    Each term gives six, in key order: im_denominator, im_exponent,
    im_value, re_denominator, re_exponent, re_value.  Exponents and values
    are formatted in one ``_json_floats`` call.  Row w of ``den`` is
    signs[w] * V from one product, so all rows of one sign are equal bit
    for bit: the texts of the identity's row and of the first odd
    element's row serve every term.  (-V itself is not used: it can differ
    from -1 * V in the sign of a zero part.)
    """
    width, rows = den.shape
    texts = [""] * (6 * width * rows)
    ev = _json_floats(np.stack([expo.imag, vals.imag, expo.real, vals.real],
                               axis=-1).transpose(1, 0, 2))
    for j, slot in enumerate((1, 2, 4, 5)):
        texts[slot::6] = ev[j::4]
    one = den[[0, int(np.argmin(signs))]]
    dt = _json_floats(np.stack([one.imag, one.real]))   # (part, sign, row)
    for w, odd in enumerate((signs < 0).tolist()):
        for part, slot in enumerate((0, 3)):
            at = (2 * part + odd) * rows
            texts[6 * w + slot::6 * width] = dt[at:at + rows]
    return texts


def _eval_json(cfg: RunConfig, orbit: OrbitSpec, ranges: Sequence[np.ndarray],
               codes: np.ndarray, values: np.ndarray, spectra: np.ndarray):
    """The eval document, in chunks, exactly as _json_dump would write it.

    json.dumps(doc, sort_keys=True, indent=1) puts each key on its own line
    in sorted order, one space deeper per level of nesting, so the rows and
    their terms fill fixed templates.  Floats take json's own encoding
    (``_json_floats``) and strings ``encode_basestring_ascii``; the config
    echo is json.dumps of the config, one level deeper.  Each axis value
    is formatted once (``_grid_text``).  Term values come from one _terms
    call per block of rows, bit for bit the values of ``EvalResult.terms``;
    of a row's denominators, which are V and -V, each is formatted once
    (``_term_texts``).
    """
    config = json.dumps(cfg.raw, sort_keys=True, indent=1).replace("\n", "\n ")
    yield ('{\n "config": ' + config + ',\n "mode": '
           + encode_basestring_ascii(orbit.mode) + ',\n "rows": [')

    labels = orbit.cartan._labels
    signs = orbit.cartan._table.signs
    width = 6 * len(labels)
    points = _grid_text(ranges, _json_floats, ",\n    ")

    def row(conjugacy: str, degenerate: str, f: str, terms: str) -> str:
        return ('\n  {\n   "conjugacy": "' + conjugacy + '",\n   "degenerate": '
                + degenerate + ',\n   "im_f": ' + f + ',\n   "re_f": ' + f
                + ',\n   "terms": [' + terms + '],\n   "x": [\n    %s'
                '\n   ]\n  }')

    terms = ",".join(
        '\n    {\n     "im_denominator": %s,\n     "im_exponent": %s,'
        '\n     "im_value": %s,\n     "label": '
        + encode_basestring_ascii(label)
        + ',\n     "multiplicity": ' + str(mult)
        + ',\n     "re_denominator": %s,\n     "re_exponent": %s,'
        '\n     "re_value": %s\n    }'
        for label, mult in zip(labels, orbit._multiplicities.tolist())
    ) + "\n   "
    valued = row("cartan", "false", "%s", terms)
    outside = row("outside", "false", "%s", "")
    refused = row("cartan", "true", "null", "")

    step = max(1, _TEXT_BLOCK // len(labels))
    for lo in range(0, len(codes), step):
        block = codes[lo:lo + step]
        ok = block == _REGULAR
        re = _json_floats(values.real[lo:lo + step])
        im = _json_floats(values.imag[lo:lo + step])
        if ok.any():
            ts = _term_texts(*_terms(orbit, spectra[lo:lo + step][ok]), signs)
        chunk, at = [], 0
        rows = zip(block.tolist(), islice(points, len(block)))
        for k, (code, point) in enumerate(rows):
            if code == _REGULAR:
                chunk.append(valued % (im[k], re[k], *ts[at:at + width], point))
                at += width
            elif code == _NONREAL:
                chunk.append(outside % (im[k], re[k], point))
            else:
                chunk.append(refused % point)
        yield ("," if lo else "") + ",".join(chunk)
    yield f'\n ],\n "s0": {orbit.s0},\n "version": {RESULT_VERSION}\n}}\n'


def _oracle_seed(cfg: RunConfig, override: Optional[int],
                 default: Optional[int] = None) -> int:
    """The oracle seed: --seed, else oracle.seed, else ``default``.

    Seeds outside [0, MAX_SEED] are refused: they key Philox streams, at
    offsets of up to 23 in the suites, and Philox keys lie in [0, 2^128).
    """
    seed = override if override is not None else cfg.seed
    if seed is None:
        if default is None:
            raise ConfigError("missing oracle.seed")
        return default
    if not 0 <= seed <= MAX_SEED:
        source = "--seed" if override is not None else "oracle.seed"
        raise ConfigError(f"{source} must be in [0, 2^128 - 24], got {seed}")
    return seed


def _print_checks(checks: Sequence[CheckResult]) -> None:
    width = max((len(c.name) for c in checks), default=0)
    lines = []
    for c in checks:
        status = "SKIP" if c.skipped else "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<{width}}  residual={c.residual:.3e}"
            f"  threshold={c.threshold:.3e}\n"
        )
    sys.stdout.write("".join(lines))


def cmd_verify(cfg: RunConfig, suite: str, out: Optional[str],
               seed_override: Optional[int]) -> int:
    if suite not in SUITE_NAMES + ("all",):
        raise ConfigError(f"unknown suite {suite!r}")
    seed = _oracle_seed(cfg, seed_override,
                        None if suite in ("oracle", "all")
                        else SuiteSettings.seed)
    settings = SuiteSettings(
        family=cfg.family,
        n=cfg.n,
        weight=cfg.weight,
        mode=cfg.mode,
        s0=cfg.s0,
        seed=seed,
        mc_samples=cfg.mc_samples,
        eps_schedule=cfg.eps_schedule,
        user_multiplicities=cfg.multiplicities,
    )
    try:
        checks = run_suite(suite, settings)
    except SuiteRefusal as exc:
        # The rows measured before the refusal are printed, and a FAIL
        # among them outranks the refusal; no report file is written.
        _print_checks(exc.checks)
        sys.stdout.flush()
        sys.stderr.write(f"error: {exc}\n")
        return (EXIT_CONFIG if all(c.passed for c in exc.checks)
                else EXIT_VERIFY)
    _print_checks(checks)
    if out:
        _write_text(out, _json_dump({
            "suite": suite,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "passed": c.passed,
                    **({"skipped": True} if c.skipped else {}),
                }
                for c in checks
            ],
            "passed": all(c.passed for c in checks),
            "config": cfg.raw,
        }))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def cmd_calibrate(cfg: RunConfig, config_path: str, out: Optional[str]) -> int:
    orbit = _build_orbit(cfg)
    if cfg.reference is not None:
        x0 = element(orbit.algebra, cfg.reference)
    else:
        x0 = _default_reference(orbit)
    result = calibrate(orbit, x0)

    target = Path(out) if out else Path(config_path).with_suffix(".calibrated.json")
    if target.resolve() == Path(config_path).resolve():
        raise ConfigError("calibration output would overwrite the input config")
    # The provenance names what the result depends on beyond the orbit.
    provenance = {"stderr": result.stderr}
    if result.reference is not None:
        provenance["reference"] = list(result.reference)
    updated = dict(cfg.raw)
    updated["s0"] = result.sign
    updated["calibration"] = {
        "liouville_const_re": result.liouville_const.real,
        "liouville_const_im": result.liouville_const.imag,
        "s0": result.sign,
        "provenance": provenance,
    }
    _write_text(str(target), _json_dump(updated))
    sys.stdout.write(
        f"calibration written to {target.name}: "
        f"const=({result.liouville_const.real!r}, {result.liouville_const.imag!r}) "
        f"s0={result.sign}\n"
    )
    return EXIT_OK


def _default_reference(orbit: OrbitSpec):
    # The real Cartan basis is the first rank coordinate rows.
    spec = orbit.algebra
    vec = np.zeros(spec.dim)
    vec[:spec.rank] = 0.7 + 0.31 * np.arange(spec.rank)
    return element(spec, vec)


def cmd_oracle(cfg: RunConfig, out: Optional[str],
               seed_override: Optional[int]) -> int:
    seed = _oracle_seed(cfg, seed_override)
    orbit = _build_orbit(cfg)
    _, grid, coords = _grid_points(cfg, orbit)
    # Degenerate rows (walls, non-regular and indeterminate points) have
    # no formula value and are skipped; with none left nothing is drawn.
    rows = fourier_grid(orbit, coords)
    usable = [k for k, res in enumerate(rows) if not res.degenerate]

    if orbit.algebra.family == "su":
        values = [rows[k].value for k in usable]
        means, sigmas, verdicts = _calibrated_comparison(
            _calibrated_estimates(orbit, coords[usable], seed + 1,
                                  cfg.mc_samples), values)
        lines = ["x_coords,re_formula,im_formula,re_mc,im_mc,stderr,agree_3sigma"]
        for k, fv, mc, sigma, agree in zip(usable, values, means, sigmas,
                                           verdicts):
            lines.append(",".join([
                ";".join(_fmt(c) for c in grid[k].tolist()),
                _fmt(fv.real), _fmt(fv.imag), _fmt(mc.real), _fmt(mc.imag),
                _fmt(sigma), "1" if agree else "0",
            ]))
        _write_text(out, "\n".join(lines) + "\n")
        return EXIT_OK if usable else EXIT_DEGENERATE

    split = [k for k in usable if rows[k].conjugacy == "cartan"]
    lines = ["eps,re_estimate,im_estimate"]
    if not split:
        _write_text(out, lines[0] + "\n")
        return EXIT_DEGENERATE
    x, res = element(orbit.algebra, coords[split[0]]), rows[split[0]]
    seq = damped_oscillatory_integral(orbit, x, cfg.eps_schedule)
    for eps, v in zip(seq.eps_schedule, seq.estimates):
        lines.append(",".join([_fmt(eps), _fmt(v.real), _fmt(v.imag)]))
    lines.append(f"extrapolated,{_fmt(seq.extrapolated.real)},{_fmt(seq.extrapolated.imag)}")
    lines.append(f"formula,{_fmt(res.value.real)},{_fmt(res.value.imag)}")
    _write_text(out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cycle_limit(cfg: RunConfig, out: Optional[str],
                    seed_override: Optional[int]) -> int:
    if (cfg.family, cfg.n) != ("sl_real", 2):
        raise ConfigError("cycle-limit requires the sl(2,R) model")
    if len(cfg.weight) != 1:   # make_orbit's message; no orbit, so 0 still runs
        raise ConfigError(f"weight needs 1 coordinates, got {len(cfg.weight)}")
    seed = _oracle_seed(cfg, seed_override)
    radius = abs(cfg.weight[0])
    if not math.isfinite(radius * radius):
        # The model compares det(carrier) with the invariant -radius^2.
        raise ConfigError(
            f"cycle-limit needs a finite weight^2 (|weight| below about "
            f"1.34e154); got {radius:g}"
        )
    if 0.0 < radius < sys.float_info.min:
        # A subnormal carrier keeps too few bits: its samples fall off the
        # orbit, so its defects would measure the rounding, not the model.
        raise ConfigError(
            f"cycle-limit needs a zero or normal weight (|weight| at least "
            f"{sys.float_info.min:g}); got {radius:g}"
        )
    lam = 8j * radius
    rng = np.random.Generator(np.random.Philox(key=seed))
    count = min(cfg.mc_samples, 500)
    # Row k holds the (s, phi) angles that sample k draws.
    angles = rng.uniform((-3.0, 0.0), (3.0, 2.0 * np.pi), (count, 2))
    samples = 1j * split_orbit_carrier(radius, angles[:, 0], angles[:, 1])
    schedule = tuple(2.0 ** (-k) for k in range(cfg.scale_log2 + 1))
    report = geo.cycle_scaling_limit(lam, schedule, samples)
    lines = ["s,base_defect,moment_defect"]
    for s, b, m in zip(report.s_schedule, report.base_defects,
                       report.moment_defects):
        lines.append(",".join([_fmt(s), _fmt(b), _fmt(m)]))
    lines.append(f"identity_at_one,{int(report.identity_at_one)},")
    lines.append(f"at_floor,{int(report.at_floor)},")
    lines.append(f"slope,{_fmt(report.slope) if np.isfinite(report.slope) else 'nan'},")
    _write_text(out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orbit-localize",
        description="Fixed-point evaluation and verification of orbit Fourier transforms",
    )
    p.add_argument("command",
                   choices=("eval", "verify", "calibrate", "oracle", "cycle-limit"))
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", default=None, choices=("csv", "json"))
    p.add_argument("--seed", default=None, type=int, help="seed override")
    p.add_argument("--suite", default=None, choices=SUITE_NAMES + ("all",),
                   help="verify only (default: all)")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.suite is not None and args.command != "verify":
        parser.error(f"--suite is only valid with verify, not {args.command}")
    try:
        cfg = load_config(args.config)
        fmt = args.format or cfg.out_format
        out = args.out or cfg.out_path
        if args.command == "eval":
            code = cmd_eval(cfg, out, fmt)
        elif args.command == "verify":
            code = cmd_verify(cfg, args.suite or "all", out, args.seed)
        elif args.command == "calibrate":
            code = cmd_calibrate(cfg, args.config, out)
        elif args.command == "oracle":
            code = cmd_oracle(cfg, out, args.seed)
        else:
            code = cmd_cycle_limit(cfg, out, args.seed)
        sys.stdout.flush()
        return code
    except (ConfigError, CalibrationError, AlgebraError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:
        # A grid or sample count too large to allocate.
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_CONFIG
    except BrokenPipeError:
        # The reader of stdout has gone (``| head``).  As the Python docs
        # advise, point stdout at devnull so that the interpreter's last
        # flush fails silently too, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
