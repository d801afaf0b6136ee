"""Benchmark workloads: fixed command mixes whose inputs come from a seed.

Each workload is a list of CLI commands on generated JSON configs.  The
seed picks regular orbit weights, grid offsets, grid directions and the
seeds of the `oracle` commands; the sizes and the mix are fixed, so every
seed asks for the same amount of work.  The program receives only the
config files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

WORKLOADS = ("eval-lowrank", "eval-highrank", "oracle-verify")


@dataclass
class Command:
    """One CLI invocation and what the checker needs to know about it."""

    name: str
    kind: str                    # "eval", "oracle" or "verify"
    family: str
    n: int
    weight: list
    s0: int
    config: dict
    suite: Optional[str] = None  # verify only
    check_rows: int = 0          # size of the fixed reference subsample
    directions: list = field(default_factory=list)  # per grid axis, or None

    def argv(self, config_path: str, out_path: str) -> list[str]:
        args = [self.kind, "--config", config_path, "--out", out_path]
        if self.suite:
            args += ["--suite", self.suite]
        return args


def regular_weight(rng: np.random.Generator, n: int) -> list[float]:
    """Weight coordinates whose dual Cartan diagonal has distinct entries.

    The diagonal delta sums to zero and its sorted entries are at least
    0.15 apart; the coordinates over the real Cartan basis are its partial
    sums.
    """
    while True:
        delta = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
        delta = delta - delta.mean()
        if np.min(-np.diff(delta)) >= 0.15:
            return [round(float(c), 4) for c in np.cumsum(delta)[:-1]]


def _axes(rng: np.random.Generator, steps: int, dirs: Optional[list] = None,
          lo: float = -2.0, hi: float = 2.0, jitter: float = 0.1) -> list[dict]:
    axes = []
    for k in range(2 if dirs is None else len(dirs)):
        off = round(float(rng.uniform(-jitter, jitter)), 4)
        axis = {"start": lo + off, "stop": hi + off, "steps": steps}
        if dirs is not None:
            axis["direction"] = dirs[k]
        axes.append(axis)
    return axes


def _direction(rng: np.random.Generator, dim: int) -> list[float]:
    """A unit vector in general position: no grid row lands on a wall."""
    v = rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return [round(float(c), 6) for c in v]


def _eval(name, rng, family, n, steps, fmt="csv", explicit_dirs=False,
          check_rows=40, single_axis=False) -> Command:
    weight = regular_weight(rng, n)
    dim = n * n - 1
    dirs = None
    if explicit_dirs:
        dirs = [_direction(rng, dim) for _ in range(1 if single_axis else 2)]
    s0 = 1 if family == "su" else -1
    config = {
        "algebra": {"family": family, "n": n},
        "weight": weight,
        "s0": s0,
        "grid": {"axes": _axes(rng, steps, dirs)},
        "output": {"format": fmt},
    }
    return Command(name, "eval", family, n, weight, s0, config,
                   check_rows=check_rows,
                   directions=dirs if dirs else [None, None])


def build(workload: str, seed: int) -> list[Command]:
    """The command mix of a workload for one seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if workload == "eval-lowrank":
        return [
            _eval("su3-csv", rng, "su", 3, 41),
            _eval("sl3-csv", rng, "sl_real", 3, 31),
            _eval("su3-json", rng, "su", 3, 21, fmt="json"),
        ]
    if workload == "eval-highrank":
        return [
            _eval("su5-csv", rng, "su", 5, 11, explicit_dirs=True, check_rows=12),
            _eval("su6-csv", rng, "su", 6, 5, explicit_dirs=True, check_rows=3),
            _eval("sl4-csv", rng, "sl_real", 4, 17, check_rows=24),
            _eval("su7-csv", rng, "su", 7, 2, explicit_dirs=True, check_rows=1,
                  single_axis=True),
        ]
    if workload == "oracle-verify":
        return _oracle_verify(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _su3_oracle_weight(rng: np.random.Generator) -> list[float]:
    # On the segment from (0.45, 0.2) to (0.9, 0.4).  At the `oracle`
    # command's fixed reference point the raw Haar average stays over 100
    # standard errors from zero along it, so its calibration never refuses.
    t = float(rng.uniform(0.5, 1.0))
    return [round(0.9 * t, 4), round(0.4 * t, 4)]


# The verify suites draw their test points, and the su(3) oracle suite its
# calibration point, from the oracle seed.  Seeded from the workload seed,
# the su(3) oracle suite would refuse calibration on some seeds (see
# KNOWN_REFUSALS) and the sl(2,R) quadrature mesh would change its cost
# 2.5x.  Both verify runs therefore keep a fixed weight and oracle seed on
# which every check passes, and are the same in every run.
SU3_VERIFY = ([0.9, 0.4], 1)
SL2_VERIFY = ([1.0], 20240802)

# `verify --suite oracle` on su(3) refuses calibration (exit 2, "reference
# Haar average is consistent with zero") on these (weight, oracle seed)
# pairs: at (0.9, 0.4) seeds 2, 5 and 12 of 1..12, at (0.9, 0.8) every seed
# of 1..12.  The suite keeps a calibration point at which the Haar average
# is too small to measure instead of drawing another.  The traced
# oracle-verify run replays these cases outside the workload and reports
# how many still refuse.
KNOWN_REFUSALS = (([0.9, 0.4], 2), ([0.9, 0.4], 5), ([0.9, 0.4], 12),
                  ([0.9, 0.8], 1))


def _verify(name, family, n, weight, oracle_seed, suite="all") -> Command:
    config = {"algebra": {"family": family, "n": n}, "weight": weight,
              "oracle": {"seed": oracle_seed}}
    s0 = 1
    if family == "sl_real":
        s0 = config["s0"] = -1
    return Command(name, "verify", family, n, weight, s0, config, suite=suite)


def known_refusals() -> list[Command]:
    """`verify --suite oracle` on each known su(3) calibration refusal."""
    return [_verify(f"refusal-{k}", "su", 3, w, seed, suite="oracle")
            for k, (w, seed) in enumerate(KNOWN_REFUSALS)]


def _oracle_verify(rng: np.random.Generator) -> list[Command]:
    seeds = [int(s) for s in rng.integers(1, 1 << 30, 2)]
    su3_w = _su3_oracle_weight(rng)
    su3_oracle = Command(
        "su3-oracle", "oracle", "su", 3, su3_w, 1,
        {
            "algebra": {"family": "su", "n": 3},
            "weight": su3_w,
            "grid": {"axes": _axes(rng, 2, lo=0.3, hi=1.1, jitter=0.05)},
            "oracle": {"seed": seeds[0], "samples": 1_000_000},
        },
        check_rows=4, directions=[None, None],
    )
    r = round(1.0 + float(rng.uniform(-0.1, 0.1)), 4)
    sl2_oracle = Command(
        "sl2-oracle", "oracle", "sl_real", 2, [r], -1,
        {
            "algebra": {"family": "sl_real", "n": 2},
            "weight": [r],
            "s0": -1,
            "grid": {"axes": [{"start": round(0.3 + float(rng.uniform(0, 0.02)), 4),
                               "stop": 0.6, "steps": 2}]},
            "oracle": {"seed": seeds[1]},
        },
        check_rows=1, directions=[None],
    )
    return [su3_oracle, sl2_oracle,
            _verify("su3-verify", "su", 3, *SU3_VERIFY),
            _verify("sl2-verify", "sl_real", 2, *SL2_VERIFY)]


def grid_point(cmd: Command, xs: list[float], dim: int) -> list[float]:
    """Basis coordinates of a grid point, summed as the CLI sums them."""
    vec = np.zeros(dim)
    for k, (c, d) in enumerate(zip(xs, cmd.directions)):
        if d is None:
            d = np.eye(dim)[k]
        vec = vec + c * np.asarray(d, dtype=float)
    return [float(v) for v in vec]
