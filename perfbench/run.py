"""Benchmark of the orbit-localize command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  All load comes from one worker process, a fresh interpreter that
runs the workload's commands through ``orbit_localize.cli.main`` one at a
time, with ORBIT_LOCALIZE_THREADS removed so the default serial path is
measured.

--trace 0 measures cold setup in fresh interpreters, then repeats the
workload's command mix until S seconds have passed and reports the
end-to-end metrics.  --trace 1 alternates untraced passes of the mix with
passes that record spans around the package's functions, for at least one
pair and until S seconds have passed, and reports the per-layer metrics.

Outputs are checked against an independent mpmath reference on a fixed
subsample of rows, outside the timed region.  Every non-zero exit or
exception, malformed output, failed verify check, row beyond tolerance or
output that differs between repeats is a failed operation; nothing is
retried.  The last line of standard output is the JSON result; the full
record, with provenance, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import workloads
from workloads import Command

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0      # the whole run ends well within 180 s
CHECK_RESERVE_S = 25.0  # kept free after the timed passes for the checks
SETUP_REPEATS = 3
# Times are scaled to a host on which child.py's probe takes this long.
# Shared machines drift by 20-50% in speed over minutes; the probe, run in
# the measuring process between commands, tracks that drift.
REF_PROBE_S = 0.017
# A checked value may differ from the reference by this much times the
# conditioning scale of the fixed-point sum (sum of |term|, times the
# spread of the spectrum over its smallest gap): that is what evaluating
# the formula in double precision can deliver.  Accuracy itself is
# reported separately as the worst relative error.
ROW_TOL = 1e-11


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


@dataclass
class Proc:
    """A finished child process."""

    code: int
    wall_s: float
    maxrss_mb: float
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 50:
                self.notes.append(note)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.work = root / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.commands = workloads.build(workload, seed)
        self.tally = Tally()
        self.env = {k: v for k, v in os.environ.items()
                    if k != "ORBIT_LOCALIZE_THREADS"}

    # -- processes ---------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, args: list[str], stdout=subprocess.DEVNULL, env: dict = None) -> Proc:
        """Run child.py to completion; wall time and peak RSS from wait4."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py")] + args,
                                    stdout=stdout, stderr=err,
                                    env=env or self.env, cwd=self.work)
            old = signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(max(1, int(self.remaining())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                status = 124 << 8
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    err_path.read_text(errors="replace")[-400:])

    def config_path(self, cmd: Command) -> Path:
        return self.work / f"{cmd.name}.json"

    def out_path(self, cmd: Command, tag: str) -> Path:
        fmt = cmd.config.get("output", {}).get("format")
        suffix = "json" if cmd.kind == "verify" or fmt == "json" else "csv"
        return self.work / f"{cmd.name}.{tag}.{suffix}"

    def setup_once(self, cmd: Command) -> float:
        """Cold setup of one config in a fresh interpreter, host-scaled; 0 if it fails."""
        out = self.work / "setup.json"
        with open(out, "wb") as fh:
            proc = self.spawn(["setup", str(self.src), str(self.config_path(cmd))], stdout=fh)
        self.tally.op(proc.code == 0, f"setup {cmd.name}: exit {proc.code} {proc.stderr[-200:]}")
        if proc.code != 0:
            return 0.0
        got = json.loads(out.read_text())
        return got["setup_s"] * REF_PROBE_S / got["probe_s"]

    def run_worker(self, tag: str, seconds: float, env: dict = None,
                   trace: bool = False, commands: list = None) -> tuple[dict, Proc, dict]:
        """The mix (or COMMANDS) in one worker process.

        Returns per-command records, the finished process and the worker's
        result (probe times, trace summary).
        """
        commands = commands or self.commands
        jobs = [{"name": c.name,
                 "argv": c.argv(str(self.config_path(c)), "{out}"),
                 "out": str(self.out_path(c, tag + "{p}"))} for c in commands]
        jobs_path = self.work / f"{tag}.jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        results_path = self.work / f"{tag}.results.json"
        deadline = self.remaining() - CHECK_RESERVE_S
        proc = self.spawn(["worker", str(self.src), str(jobs_path), str(results_path),
                           str(seconds), str(deadline), str(int(trace))],
                          env=env)
        self.tally.op(proc.code == 0, f"worker: exit {proc.code} {proc.stderr[-300:]}")
        result = json.loads(results_path.read_text()) if results_path.exists() else {}
        records = {c.name: [] for c in commands}
        for rec in result.get("records", []):
            records[rec["name"]].append(rec)
        return records, proc, result

    # -- measurement -------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for cmd in self.commands + workloads.known_refusals():
            self.config_path(cmd).write_text(json.dumps(cmd.config, indent=1))
        # Untimed: byte-compiles the package once, as an install would.
        self.setup_once(self.commands[0])

    def measure_setup(self) -> float:
        """Median over repeats of the summed cold setup of every distinct config."""
        distinct = {json.dumps(c.config, sort_keys=True): c for c in self.commands}
        return statistics.median(
            sum(self.setup_once(cmd) for cmd in distinct.values())
            for _ in range(SETUP_REPEATS))

    # -- checks ------------------------------------------------------------

    def check_runs(self, records: dict, tag: str) -> dict:
        """Count command outcomes and check the first output of each command."""
        health = {"rows_checked": 0, "max_rel_err": 0.0, "refused_finite": 0,
                  "compact_rows": 0, "mc_points": 0, "mc_agree": 0,
                  "split_rel_err": 0.0, "rows": {}}
        for cmd in self.commands:
            recs = records[cmd.name]
            for rec in recs:
                ok = rec["code"] == 0 and bool(rec["digest"])
                self.tally.op(ok, f"{cmd.name}: exit {rec['code']} {rec['error'][-200:]}")
                if ok and rec["digest"] != recs[0]["digest"]:
                    self.tally.op(False, f"{cmd.name}: output differs between repeats")
            if not recs or recs[0]["code"] != 0 or not recs[0]["digest"]:
                continue
            text = self.out_path(cmd, tag + "0").read_text()
            try:
                health["rows"][cmd.name] = self.check_output(cmd, text, health)
            except (ValueError, KeyError, IndexError) as exc:
                self.tally.op(False, f"{cmd.name}: malformed output ({exc!r})")
        return health

    def check_output(self, cmd: Command, text: str, health: dict) -> int:
        """Check one output; returns the number of result rows written."""
        if cmd.kind == "verify":
            checks = json.loads(text)["checks"]
            for c in checks:
                self.tally.op(bool(c["passed"]), f"{cmd.name}: FAIL {c['name']}")
            return len(checks)
        if cmd.kind == "eval":
            rows = self._eval_rows(cmd, text)
            expected = math.prod(a["steps"] for a in cmd.config["grid"]["axes"])
            self.tally.op(len(rows) == expected,
                          f"{cmd.name}: {len(rows)} rows, expected {expected}")
            bad = [r for r in rows if not r[2] and not all(map(math.isfinite, r[1]))]
            self.tally.op(not bad, f"{cmd.name}: {len(bad)} non-finite values")
            if cmd.family == "su":
                health["compact_rows"] += len(rows)
                health["refused_finite"] += sum(1 for r in rows if r[2])
            pick = random.Random(f"{self.seed}:{cmd.name}").sample(
                range(len(rows)), min(cmd.check_rows, len(rows)))
            for i in sorted(pick):
                xs, (re_f, im_f), degenerate = rows[i]
                if not degenerate:
                    self._check_value(cmd, xs, complex(re_f, im_f), health)
            return len(rows)
        lines = [ln for ln in text.splitlines()[1:] if ln]
        if cmd.family == "su":
            for ln in lines:
                f = ln.split(",")
                xs = [float(v) for v in f[0].split(";")]
                self._check_value(cmd, xs, complex(float(f[1]), float(f[2])), health)
                health["mc_points"] += 1
                health["mc_agree"] += f[6] == "1"
            return len(lines)
        table = {ln.split(",")[0]: ln.split(",") for ln in lines}
        formula = complex(float(table["formula"][1]), float(table["formula"][2]))
        limit = complex(float(table["extrapolated"][1]), float(table["extrapolated"][2]))
        axis = cmd.config["grid"]["axes"][0]
        first_point = float(np.linspace(axis["start"], axis["stop"], axis["steps"])[0])
        self._check_value(cmd, [first_point], formula, health)
        health["split_rel_err"] = abs(limit - formula) / abs(formula)
        return len(lines)

    @staticmethod
    def _eval_rows(cmd: Command, text: str) -> list:
        """(grid coordinates, (re, im), degenerate) per row."""
        if cmd.config["output"]["format"] == "json":
            out = []
            for r in json.loads(text)["rows"]:
                val = (math.nan, math.nan) if r["degenerate"] else (r["re_f"], r["im_f"])
                out.append((r["x"], val, bool(r["degenerate"])))
            return out
        reader = csv.reader(io.StringIO(text))
        k = next(reader).index("re_f")
        return [([float(v) for v in row[:k]], (float(row[k]), float(row[k + 1])),
                 row[k + 2] == "1") for row in reader]

    def _check_value(self, cmd: Command, xs: list, value: complex, health: dict) -> None:
        coords = workloads.grid_point(cmd, xs, cmd.n * cmd.n - 1)
        ref = reference.fourier(cmd.family, cmd.n, cmd.weight, cmd.s0, coords)
        if not ref.checkable:
            return
        err = abs(value - ref.value)
        tol = ROW_TOL * ref.term_abs_sum * max(1.0, ref.gap_ratio) + 1e-12 * abs(ref.value)
        health["rows_checked"] += 1
        if ref.value != 0:
            health["max_rel_err"] = max(health["max_rel_err"], err / abs(ref.value))
        self.tally.op(err <= tol, f"{cmd.name}: row {xs} off by {err:.3e} (tol {tol:.3e})")

    # -- results -----------------------------------------------------------

    def rows_per_s(self, records: dict, health: dict) -> float:
        """Rows over the summed per-command median wall times of good runs."""
        rows = walls = 0.0
        for cmd in self.commands:
            good = [r["wall_s"] for r in records[cmd.name] if r["code"] == 0]
            if good and cmd.name in health["rows"]:
                rows += health["rows"][cmd.name]
                walls += statistics.median(good)
        return rows / walls if walls else 0.0

    def provenance(self) -> dict:
        import mpmath
        import scipy

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        init = (self.src / "orbit_localize" / "__init__.py").read_text()
        version = next((ln.split("=")[1].strip().strip('"') for ln in init.splitlines()
                        if ln.startswith("__version__")), None)
        commit = None
        if (self.root / ".git").exists():
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                    capture_output=True, text=True).stdout.strip() or None
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "package_version": version,
            "git_commit": commit,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": _blas_threads(),
                     "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                     "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "ORBIT_LOCALIZE_THREADS": os.environ.get("ORBIT_LOCALIZE_THREADS", "unset"),
            "worker_ORBIT_LOCALIZE_THREADS": "unset",
            "load": "one worker process, one command at a time",
            "configs": {c.name: c.config for c in self.commands},
        }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _host_scale(result: dict) -> float:
    """Factor that scales a worker's times to the reference host speed."""
    return REF_PROBE_S / statistics.fmean(result.get("probes") or [REF_PROBE_S])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(bench: Bench) -> dict:
    setup_s = bench.measure_setup()
    records, proc, result = bench.run_worker("p", bench.seconds)
    health = bench.check_runs(records, "p")
    raw = bench.rows_per_s(records, health)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "rows_per_s": _metric(raw / _host_scale(result), "1/s"),
        "peak_rss_mb": _metric(proc.maxrss_mb, "MB"),
    }
    health["unscaled_rows_per_s"] = raw
    health["host_probe_s"] = REF_PROBE_S / _host_scale(result)
    return {"metrics": metrics, "records": records, "health": health}


def traced(bench: Bench) -> dict:
    records, _, result = bench.run_worker("t", bench.seconds, trace=True)
    health = bench.check_runs(records, "t")
    summary = result.get("trace", {})
    bench.tally.op(bool(summary), "trace: no traced pass finished")
    for name in summary.get("missing", []):
        bench.tally.op(False, f"trace: {name} not found in the package")
    overhead, noise = _trace_overhead(records, result)
    health["trace_overhead_noise_s"] = noise
    health["trace_overhead_resolved"] = overhead > noise > 0
    health["bytes_written"] = sum(rs[0]["bytes"] for rs in records.values() if rs)
    health["known_refusals"] = (known_refusals(bench)
                                if bench.workload == "oracle-verify" else [])
    return {"metrics": layer_metrics(summary, health, overhead),
            "records": records, "health": health}


def known_refusals(bench: Bench) -> list[str]:
    """The known su(3) calibration refusals that still refuse.

    These cases are not part of the workload: they replay inputs on which
    the su(3) oracle suite is known to refuse, after the measured passes,
    so that the refusal shows, and a fix shows as a count of 0.  The
    refusal itself is the expected outcome; anything else that is not a
    clean exit is a failed operation.
    """
    cases = workloads.known_refusals()
    records, _, _ = bench.run_worker("r", 0, commands=cases)
    refused = []
    for cmd in cases:
        rec = records[cmd.name][0] if records[cmd.name] else {"code": None, "error": ""}
        if rec["code"] == 2 and "consistent with zero" in rec["error"]:
            refused.append(cmd.name)
        else:
            bench.tally.op(rec["code"] == 0,
                           f"{cmd.name}: exit {rec['code']} {rec['error'][-200:]}")
    return refused


def _trace_overhead(records: dict, result: dict) -> tuple[float, float]:
    """Traced minus untraced command time of one pass, and its noise floor.

    Per command, the median over traced passes less the median over the
    untraced passes that alternate with them in the same worker, summed and
    host-scaled.  The noise floor is the summed range of the untraced wall
    times; it is 0, and the overhead unresolved, with one untraced pass.
    """
    overhead = noise = 0.0
    for recs in records.values():
        plain = [r["wall_s"] for r in recs if r["code"] == 0 and not r["traced"]]
        spans = [r["wall_s"] for r in recs if r["code"] == 0 and r["traced"]]
        if plain and spans:
            overhead += statistics.median(spans) - statistics.median(plain)
            noise += max(plain) - min(plain)
    scale = _host_scale(result)
    return overhead * scale, noise * scale


def layer_metrics(summary: dict, health: dict, overhead: float) -> dict:
    by_name = summary.get("by_name", {})
    groups = summary.get("groups", {})
    counters = summary.get("counters", {})

    def calls(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return by_name.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("algebra.is_regular_semisimple", "algebra.reduce_to_cartan",
                 "algebra.cartan_coordinates", "algebra.element",
                 "algebra.build_algebra", "localize.make_orbit"):
        m[f"{name}.s"] = _metric(incl(name), "s")
        m[f"{name}.calls"] = _metric(calls(name), "count")
    m["algebra.reduce_to_cartan.none"] = _metric(
        counters.get("algebra.reduce_to_cartan.none", 0), "count")
    grid_s = incl("localize.fourier_grid")
    m["localize.fourier_grid.s"] = _metric(grid_s, "s")
    m["algebra.reduction_share_of_grid"] = _metric(
        ratio(groups.get("grid.reduction_s", 0.0), grid_s), "share")
    fv_grid = groups.get("grid.fourier_value_self_s", 0.0)
    m["localize.fourier_value.self_s"] = _metric(self_s("localize.fourier_value"), "s")
    m["localize.fourier_value_self_share_of_grid"] = _metric(ratio(fv_grid, grid_s), "share")
    terms = counters.get("localize.terms", 0)
    m["localize.terms"] = _metric(terms, "count")
    m["localize.terms_per_s"] = _metric(ratio(terms, self_s("localize.fourier_value")), "1/s")
    rows = {k: counters.get(f"localize.rows.{k}", 0) for k in ("ok", "degenerate", "outside")}
    for k, v in rows.items():
        m[f"localize.rows.{k}"] = _metric(v, "count")
    m["localize.useful_rows_frac"] = _metric(ratio(rows["ok"], sum(rows.values())), "share")
    m["fixedpoints.enumerate.s"] = _metric(groups.get("fixedpoints.enumerate.s", 0.0), "s")
    m["fixedpoints.count"] = _metric(counters.get("fixedpoints.count", 0), "count")
    m["oracle.haar_orbit_sample.s"] = _metric(incl("oracle.haar_orbit_sample"), "s")
    m["oracle.haar_orbit_sample.samples"] = _metric(
        counters.get("oracle.haar_orbit_sample.samples", 0), "count")
    m["oracle.haar_bytes_computed"] = _metric(counters.get("oracle.haar_bytes_computed", 0), "B")
    m["oracle.mc_fourier_integral.s"] = _metric(incl("oracle.mc_fourier_integral"), "s")
    m["oracle.mc_fourier_integral.sample_evals"] = _metric(
        counters.get("oracle.mc_fourier_integral.sample_evals", 0), "count")
    m["oracle.calibrate.s"] = _metric(incl("oracle.calibrate"), "s")
    m["oracle.damped_oscillatory_integral.s"] = _metric(
        incl("oracle.damped_oscillatory_integral"), "s")
    m["oracle.damped_oscillatory_integral.nodes"] = _metric(
        counters.get("oracle.damped_oscillatory_integral.nodes", 0), "count")
    for suite in ("algebra", "fixedpoints", "localize", "geometry", "oracle"):
        m[f"suites.{suite}.s"] = _metric(incl(f"suites.{suite}"), "s")
    m["geometry_sl2.s"] = _metric(groups.get("geometry_sl2.s", 0.0), "s")
    cli_s = incl("cli.main")
    m["cli.main.s"] = _metric(cli_s, "s")
    m["cli.self_s"] = _metric(self_s("cli.main"), "s")
    m["cli.bytes_written"] = _metric(health.get("bytes_written", 0), "B")
    m["oracle_suites_share_of_cli"] = _metric(
        ratio(groups.get("oracle_suites.s", 0.0), cli_s), "share")
    m["trace.overhead_s"] = _metric(overhead, "s")
    m["trace.spans"] = _metric(summary.get("spans", 0), "count")
    m["check.rows_checked"] = _metric(health["rows_checked"], "count")
    m["check.max_rel_err"] = _metric(health["max_rel_err"], "1")
    m["check.refused_finite_frac"] = _metric(
        ratio(health["refused_finite"], health["compact_rows"]), "share")
    m["check.mc_agree_frac"] = _metric(ratio(health["mc_agree"], health["mc_points"]), "share")
    m["check.split_oracle_rel_err"] = _metric(health["split_rel_err"], "1")
    m["check.known_refusals"] = _metric(len(health["known_refusals"]), "count")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orbit_localize" / "cli.py").is_file():
        sys.stderr.write("error: run from the root of an orbit-localize checkout "
                         "(src/orbit_localize/cli.py not found)\n")
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        bench.prepare()
        result = traced(bench) if args.trace else measure(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    record = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": result["metrics"],
    }
    health = {k: v for k, v in result["health"].items() if k != "rows"}
    detail = dict(record, provenance=bench.provenance(), failures=bench.tally.notes,
                  checks=health, commands=result["records"])
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    for note in bench.tally.notes:
        sys.stderr.write(f"failed: {note}\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
