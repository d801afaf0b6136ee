"""Benchmark processes: each starts from a fresh interpreter.

    python3 child.py setup SRC CONFIG
    python3 child.py worker SRC JOBS RESULTS SECONDS DEADLINE TRACE

``setup`` times a cold ``build_algebra`` plus ``make_orbit`` for the config
through the public API and prints the seconds as JSON.

``worker`` runs the JOBS list (JSON: name, argv, out) through
``orbit_localize.cli.main``, the function behind the ``orbit-localize``
entry point, one command at a time, in whole passes, until SECONDS have
passed, or until another pass would end after DEADLINE seconds.  Per
command it records wall time, exit code and a digest of the output file;
only the first pass's outputs are kept.  With TRACE 1 untraced and traced
passes alternate, and the span summary of the first traced pass is added
to the RESULTS file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import time
import traceback


def _setup(config_path: str) -> int:
    from orbit_localize import build_algebra, make_orbit

    probes = [_probe() for _ in range(3)]
    with open(config_path) as fh:
        cfg = json.load(fh)
    begin = time.perf_counter()
    spec = build_algebra(cfg["algebra"]["family"], int(cfg["algebra"]["n"]))
    orbit = make_orbit(spec, cfg["weight"], s0=int(cfg.get("s0", 1)))
    elapsed = time.perf_counter() - begin
    probes += [_probe() for _ in range(3)]
    print(json.dumps({"setup_s": elapsed, "probe_s": sum(probes) / len(probes),
                      "fixed_points": len(orbit.fixed_points)}))
    return 0


def _run_one(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code of one command, and its error output when it has one."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = int(cli.main(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        err.write(f"SystemExit({exc.code!r})")
    except Exception:  # every failure of a command is counted, not raised
        code = 1
        err.write(traceback.format_exc())
    return code, err.getvalue()[-400:]


PROBE_SHARE = 0.05
_PROBE_POINT = [0.3, -0.7, 0.2, 0.1, -0.4, 0.5, 0.8, -0.2]


def _probe() -> float:
    """Seconds for a fixed slice of Python object and numpy array work."""
    import numpy as np
    from reference import fourier

    t0 = time.perf_counter()
    fourier("su", 3, [0.9, 0.4], 1, _PROBE_POINT)
    np.exp(1j * np.linspace(0.0, 1.0, 200_000)).sum()
    return time.perf_counter() - t0


def _module_dicts() -> list[tuple[dict, dict]]:
    """The package's module-level dicts, each with its import-time contents."""
    return [(value, dict(value))
            for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith("orbit_localize")
            for key, value in vars(mod).items()
            if type(value) is dict and not key.startswith("__")]


def _worker(jobs_path: str, results_path: str, seconds: float, deadline: float,
            trace: bool) -> int:
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    import orbit_localize.cli as cli

    # Module-level caches (the standard Cartan datum with its Weyl closure)
    # go back to their import-time state after every command, so each
    # command pays what a fresh CLI invocation pays.
    caches = _module_dicts()
    tracer = summary = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    devnull = open(os.devnull, "w")
    stdout, sys.stdout = sys.stdout, devnull
    records = []
    probes = [_probe() for _ in range(5)]
    start = time.perf_counter()
    passes = 0
    # With TRACE, untraced and traced passes alternate, and a run ends on
    # whole pairs.
    step = 2 if trace else 1
    try:
        while True:
            traced = trace and passes % 2 == 1
            if traced:
                tracer.install()
            for job in jobs:
                out = job["out"].format(p=passes)
                argv = [a.replace("{out}", out) for a in job["argv"]]
                t0 = time.perf_counter()
                code, error = _run_one(cli, argv)
                wall = time.perf_counter() - t0
                digest, size = "", 0
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        data = fh.read()
                    digest, size = hashlib.sha256(data).hexdigest(), len(data)
                    if passes:
                        os.remove(out)
                for cache, initial in caches:
                    if len(cache) != len(initial):
                        cache.clear()
                        cache.update(initial)
                # Each CLI invocation starts from a clean heap; so does each command here.
                gc.collect()
                # Host-speed samples after each command, about 5% of its time.
                after = [_probe()]
                while sum(after) < PROBE_SHARE * wall:
                    after.append(_probe())
                probes += after
                records.append({"name": job["name"], "pass": passes, "wall_s": wall,
                                "code": code, "digest": digest, "bytes": size,
                                "error": error, "traced": traced})
            if traced:
                if summary is None:
                    summary = tracer.summary()
                    summary["missing"] = tracer.missing
                tracer.uninstall()
            passes += 1
            spent = time.perf_counter() - start
            if passes % step == 0 and (
                    spent >= seconds or spent * (passes + step) / passes > deadline):
                break
    finally:
        sys.stdout = stdout
        devnull.close()
        result = {"records": records, "passes": passes, "probes": probes}
        if summary is not None:
            result["trace"] = summary
        with open(results_path, "w") as fh:
            json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    sys.path.insert(0, os.path.abspath(src))
    if mode == "setup":
        return _setup(argv[2])
    if mode == "worker":
        return _worker(argv[2], argv[3], float(argv[4]), float(argv[5]),
                       argv[6] == "1")
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
