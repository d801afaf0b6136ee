"""Configuration-driven command-line front end.

One JSON config file captures a whole run: algebra, orbit parameter,
multiplicity mode, evaluation grid, oracle settings, output format.  All
randomness is seeded through the config (or --seed), and outputs contain no
timestamps or machine state, so identical configs produce byte-identical
result files.

Subcommands: eval, verify, calibrate, oracle, cycle-limit.
Exit codes: 0 success, 2 configuration error (malformed fields included),
3 degenerate-only grid, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import geometry_sl2 as geo
from .algebra import _NONREAL, _REGULAR, AlgebraError, build_algebra, element
from .localize import OrbitSpec, _evaluate, _terms, fourier_grid, make_orbit
from .oracle import (
    CalibrationError,
    calibrate,
    damped_oscillatory_integral,
    haar_orbit_sample,
    mc_fourier_integral,
    split_orbit_carrier,
)
from .suites import SUITE_NAMES, SuiteSettings, run_suite

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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    try:
        return _parse_config(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}")


def _parse_config(raw: dict) -> RunConfig:
    algebra = _require(raw, "algebra", "")
    family = _require(algebra, "family", "algebra")
    n = _integer(_require(algebra, "n", "algebra"), "algebra.n")
    weight = _numbers(_require(raw, "weight", ""), "weight")
    mode = raw.get("mode")
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
    eps = _numbers(oracle.get("eps_schedule", [0.2, 0.1, 0.05, 0.025]),
                   "oracle.eps_schedule")
    samples = _integer(oracle.get("samples", 200_000), "oracle.samples")
    if samples < 2:
        raise ConfigError(f"oracle.samples must be >= 2, got {samples}")
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
        scale_log2=_integer(oracle.get("scale_schedule_log2", 20),
                            "oracle.scale_schedule_log2"),
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


def _grid_points(cfg: RunConfig, orbit: OrbitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian grid: the axis values and the basis coordinates of each point.

    Default axis directions are the real Cartan basis.  Points run in
    ``itertools.product`` order (last axis fastest), and coordinates are
    summed in axis order, zeros + c0*d0 + c1*d1 + ...  Grids whose points
    overflow to non-finite coordinates are refused.
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
            directions.append(orbit.cartan.real_basis[i].coords)
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
    return values, coords


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: Optional[str], text: str) -> None:
    _write_chunks(path, (text,))


def _write_chunks(path: Optional[str], chunks: Iterable[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: RunConfig, out: Optional[str], fmt: str) -> int:
    orbit = _build_orbit(cfg)
    grid, coords = _grid_points(cfg, orbit)
    # One pass of the block kernel; rows are classified as fourier_grid
    # classifies them.
    codes, values, spectra, _ = _evaluate(orbit, coords,
                                          np.ones(len(coords), dtype=bool))
    degenerate = (codes != _REGULAR) & (codes != _NONREAL)
    if fmt == "csv":
        _write_text(out, _eval_csv(orbit, grid, values, degenerate))
    else:
        _write_chunks(out, _eval_json(cfg, orbit, grid, codes, values, spectra))
    if degenerate.all():
        return EXIT_DEGENERATE
    return EXIT_OK


def _eval_csv(orbit: OrbitSpec, grid: np.ndarray, values: np.ndarray,
              degenerate: np.ndarray) -> str:
    header = [f"x{i}" for i in range(grid.shape[1])]
    header += ["re_f", "im_f", "degenerate", "mode", "s0", "version"]
    suffix = f",{orbit.mode},{orbit.s0},{RESULT_VERSION}"
    columns = [map(repr, axis) for axis in grid.T.tolist()]
    re = list(map(repr, values.real.tolist()))
    im = list(map(repr, values.imag.tolist()))
    flag = ["0"] * len(re)
    for k in np.flatnonzero(degenerate).tolist():
        re[k] = im[k] = "nan"
        flag[k] = "1"
    lines = [",".join(header)]
    lines += [",".join(row) + suffix for row in zip(*columns, re, im, flag)]
    return "\n".join(lines) + "\n"


# Terms per block of the JSON writer: one _terms call and one round of
# float encoding each.  The text of a term is some 20 times the size of its
# arrays, so this is smaller than localize._BLOCK; it bounds the writer's
# memory and changes no byte.
_TEXT_BLOCK = 1 << 12


def _json_floats(values: np.ndarray) -> list[str]:
    """json's text for each float of an array, from one C-encoder call.

    NaN, Infinity and -0.0 come out as they do in any json.dumps output.
    """
    return json.dumps(values.ravel().tolist())[1:-1].split(", ")


def _eval_json(cfg: RunConfig, orbit: OrbitSpec, grid: np.ndarray,
               codes: np.ndarray, values: np.ndarray, spectra: np.ndarray):
    """The eval document, in chunks, exactly as _json_dump would write it.

    json.dumps(doc, sort_keys=True, indent=1) puts each key on its own line
    in sorted order, one space deeper per level of nesting, so the rows and
    their terms fill fixed templates.  Floats take json's own encoding
    (``_json_floats``) and strings ``encode_basestring_ascii``; the config
    echo is json.dumps of the config, one level deeper.  Term values come
    from one _terms call per block of rows, bit for bit the values of
    ``EvalResult.terms``.
    """
    config = json.dumps(cfg.raw, sort_keys=True, indent=1).replace("\n", "\n ")
    yield ('{\n "config": ' + config + ',\n "mode": '
           + encode_basestring_ascii(orbit.mode) + ',\n "rows": [')

    labels = orbit.cartan._labels
    width, n_axes = 6 * len(labels), grid.shape[1]
    x = ",\n    ".join(["%s"] * n_axes)

    def row(conjugacy: str, degenerate: str, f: str, terms: str) -> str:
        return ('\n  {\n   "conjugacy": "' + conjugacy + '",\n   "degenerate": '
                + degenerate + ',\n   "im_f": ' + f + ',\n   "re_f": ' + f
                + ',\n   "terms": [' + terms + '],\n   "x": [\n    ' + x
                + '\n   ]\n  }')

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
        xs = _json_floats(grid[lo:lo + step])
        re = _json_floats(values.real[lo:lo + step])
        im = _json_floats(values.imag[lo:lo + step])
        if ok.any():
            expo, den, vals = _terms(orbit, spectra[lo:lo + step][ok])
            # (rows, |W|, 6): each term's floats in key order.
            parts = np.stack([den.imag, expo.imag, vals.imag,
                              den.real, expo.real, vals.real], axis=-1)
            ts = _json_floats(parts.transpose(1, 0, 2))
        chunk, at = [], 0
        for k, code in enumerate(block.tolist()):
            point = xs[k * n_axes:(k + 1) * n_axes]
            if code == _REGULAR:
                chunk.append(valued % (im[k], re[k], *ts[at:at + width], *point))
                at += width
            elif code == _NONREAL:
                chunk.append(outside % (im[k], re[k], *point))
            else:
                chunk.append(refused % tuple(point))
        yield ("," if lo else "") + ",".join(chunk)
    yield f'\n ],\n "s0": {orbit.s0},\n "version": {RESULT_VERSION}\n}}\n'


def cmd_verify(cfg: RunConfig, suite: str, out: Optional[str],
               seed_override: Optional[int]) -> int:
    if suite not in SUITE_NAMES + ("all",):
        raise ConfigError(f"unknown suite {suite!r}")
    seed = seed_override if seed_override is not None else cfg.seed
    if suite in ("oracle", "all") and seed is None:
        raise ConfigError("missing oracle.seed (required for oracle runs)")
    settings = SuiteSettings(
        family=cfg.family,
        n=cfg.n,
        weight=cfg.weight,
        mode=cfg.mode,
        s0=cfg.s0,
        seed=20240801 if seed is None else seed,
        mc_samples=cfg.mc_samples,
        eps_schedule=cfg.eps_schedule,
        user_multiplicities=cfg.multiplicities,
    )
    checks = run_suite(suite, settings)
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<{width}}  residual={c.residual:.3e}"
            f"  threshold={c.threshold:.3e}"
        )
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if out:
        _write_text(out, _json_dump({
            "suite": suite,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in checks
            ],
            "passed": all(c.passed for c in checks),
            "config": cfg.raw,
        }))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def cmd_calibrate(cfg: RunConfig, config_path: str, out: Optional[str],
                  seed_override: Optional[int]) -> int:
    seed = seed_override if seed_override is not None else cfg.seed
    if "oracle" not in cfg.raw:
        raise ConfigError("missing oracle block")
    if seed is None:
        raise ConfigError("missing oracle.seed")
    orbit = _build_orbit(cfg)
    if cfg.reference is not None:
        x0 = element(orbit.algebra, cfg.reference)
    else:
        x0 = _default_reference(orbit)
    result = calibrate(orbit, x0, seed, cfg.mc_samples)

    target = Path(out) if out else Path(config_path).with_suffix(".calibrated.json")
    if target.resolve() == Path(config_path).resolve():
        raise ConfigError("calibration output would overwrite the input config")
    updated = dict(cfg.raw)
    updated["s0"] = result.sign
    updated["calibration"] = {
        "liouville_const_re": result.liouville_const.real,
        "liouville_const_im": result.liouville_const.imag,
        "s0": result.sign,
        "provenance": {
            "seed": result.seed,
            "samples": result.count,
            "stderr": result.stderr,
            "reference": [float(c) for c in x0.coords],
        },
    }
    target.write_text(_json_dump(updated))
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
    seed = seed_override if seed_override is not None else cfg.seed
    if seed is None:
        raise ConfigError("missing oracle.seed")
    orbit = _build_orbit(cfg)
    grid, coords = _grid_points(cfg, orbit)
    # Degenerate rows (walls, non-regular and indeterminate points) have
    # no formula value and are skipped.
    usable = [(values, element(orbit.algebra, c), res)
              for values, c, res in zip(grid.tolist(), coords,
                                        fourier_grid(orbit, coords))
              if not res.degenerate]

    if orbit.algebra.family == "su":
        cal = calibrate(orbit, _default_reference(orbit), seed, cfg.mc_samples)
        shared = haar_orbit_sample(orbit, seed + 1, cfg.mc_samples)
        lines = ["x_coords,re_formula,im_formula,re_mc,im_mc,stderr,agree_3sigma"]
        for values, x, res in usable:
            fv = res.value
            est = mc_fourier_integral(
                orbit, x, 0, 0, scale=cal.liouville_const, samples=shared
            )
            sigma = float(np.hypot(
                est.stderr,
                abs(est.mean) * cal.stderr / abs(cal.liouville_const),
            ))
            agree = abs(est.mean - fv) <= 3.0 * sigma
            lines.append(",".join([
                ";".join(_fmt(c) for c in values),
                _fmt(fv.real), _fmt(fv.imag),
                _fmt(est.mean.real), _fmt(est.mean.imag),
                _fmt(sigma), "1" if agree else "0",
            ]))
        _write_text(out, "\n".join(lines) + "\n")
        return EXIT_OK

    split = [(x, res) for _, x, res in usable if res.conjugacy == "cartan"]
    if not split:
        return EXIT_DEGENERATE
    x, res = split[0]
    seq = damped_oscillatory_integral(orbit, x, cfg.eps_schedule)
    lines = ["eps,re_estimate,im_estimate"]
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
    seed = seed_override if seed_override is not None else cfg.seed
    if seed is None:
        raise ConfigError("missing oracle.seed")
    radius = abs(cfg.weight[0])
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
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("eval", "verify", "calibrate", "oracle", "cycle-limit"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        sp.add_argument("--format", default=None, choices=("csv", "json"))
        sp.add_argument("--seed", default=None, type=int, help="seed override")
        if name == "verify":
            sp.add_argument("--suite", default="all",
                            choices=SUITE_NAMES + ("all",))
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        fmt = args.format or cfg.out_format
        out = args.out or cfg.out_path
        if args.command == "eval":
            return cmd_eval(cfg, out, fmt)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, out, args.seed)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.config, out, args.seed)
        if args.command == "oracle":
            return cmd_oracle(cfg, out, args.seed)
        if args.command == "cycle-limit":
            return cmd_cycle_limit(cfg, out, args.seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CalibrationError, AlgebraError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
