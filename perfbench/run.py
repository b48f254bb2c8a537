"""The sclc benchmark.

    python3 perfbench/run.py --workload {query,chains,sweep} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from src/.  The
set-up time is measured over fresh interpreters, then the workload runs in
a fresh interpreter of its own (perfbench/worker.py).  With --trace 1 the
workload runs twice, untraced and traced, half the time each, and the
per-layer figures come from the traced run.  Every time is host-normalised
against a reference loop (perfbench/hostspeed.py), and the run is pinned to
one CPU.

Earlier lines of standard output give details (tail percentile, sample
count, recursion limits, deep-input probes, exact-repeat counts); the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import pin_to_one_cpu, reference_s, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".runs"
WORKLOADS = ("query", "chains", "sweep")
SETUP_PROBES = 11
DEADLINE_S = 170.0

# Fresh interpreter to `import sclc` plus builtin_tables() done.  The
# child prints its monotonic clock when ready; perf_counter reads the
# system-wide CLOCK_MONOTONIC on Linux, so the two clocks compare.
PROBE = "import time, sclc; sclc.builtin_tables(); print(time.perf_counter())"


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(start: float) -> float:
    return max(DEADLINE_S - (time.perf_counter() - start), 1.0)


def setup_seconds(start: float, probes: int) -> list[float]:
    """Set-up times, host-normalised like the workload's operations."""
    out = []
    for _ in range(probes):
        ref_before = reference_s()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=_remaining(start))
        raw = float(done.stdout.strip().splitlines()[-1]) - t0
        out.append(raw * scale(ref_before, reference_s()))
    return out


def worker(args, trace: int, seconds: float, start: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out", str(STATE / f"spans-{args.workload}-{args.seed}.json")]
    done = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(start))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def code_digest() -> str:
    """Hash of the program and the benchmark: exact-repeat counts are
    compared only between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(args, counts: dict) -> list[str]:
    """Compare this run's exact-repeat counts with earlier runs of the same
    code, workload and seed, then add them to the record."""
    STATE.mkdir(exist_ok=True)
    mode = "smoke" if args.smoke else "full"
    path = STATE / f"counts-{code_digest()}-{args.workload}-{mode}-{args.seed}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    diffs = [f"{k}: {seen[k]} before, {v} now" for k, v in counts.items()
             if k in seen and seen[k] != v]
    if not diffs:
        path.write_text(json.dumps({**seen, **counts}, sort_keys=True))
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "sclc" / "__init__.py").is_file():
        print(f"run.py: no program at {ROOT / 'src' / 'sclc'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    STATE.mkdir(exist_ok=True)
    pin_to_one_cpu()

    if args.trace:
        plain = worker(args, 0, args.seconds / 2, start)
        traced = worker(args, 1, args.seconds / 2, start)
        runs = [plain, traced]
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = traced["e2e"]["wall_s"] - plain["e2e"]["wall_s"]
    else:
        # Half the set-up probes before the workload and half after it, so
        # that the median spans the run's changing load.
        setup = setup_seconds(start, SETUP_PROBES // 2)
        plain = worker(args, 0, args.seconds, start)
        setup += setup_seconds(start, SETUP_PROBES - SETUP_PROBES // 2)
        runs = [plain]
        metrics = dict(plain["e2e"])
        metrics["peak_rss_mb"] = plain["peak_rss_mb"]
        metrics["setup_s"] = statistics.median(setup)

    counts = {}
    for r in runs:
        counts.update(r["counts"])
        counts.update({f"layer.{k}": v for k, v in r["layer_counts"].items()})
    diffs = repeat_check(args, counts)
    if any(r["counts"] != plain["counts"] for r in runs):
        diffs.append("traced and untraced runs counted different verdicts")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = not diffs and not any(r["wrong"] for r in runs)
    probes = plain["probes"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": [r["passes"] for r in runs],
        "error_rate": failed / attempted,
        "latency_tail_percentile": plain["latency"]["tail_percentile"],
        "latency_samples": plain["latency"]["samples"],
        "slowest_ms": plain["latency"]["slowest_ms"],
        "recursion_limit": plain["recursion_limit"],
        "failures": [f for r in runs for f in r["failures"]],
        "repeat_mismatches": diffs,
        "counts": counts,
        "pass_walls": [r["pass_walls"] for r in runs],
        "raw_pass_walls": [r["raw_walls"] for r in runs],
    }
    if probes is not None:
        detail["deep_probes"] = probes
        detail["deep_probe_failures"] = sum(not p["ok"] for p in probes)
    if args.trace:
        detail["untraced_wall_s"] = plain["e2e"]["wall_s"]
        detail["traced_wall_s"] = traced["e2e"]["wall_s"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb") or ".rss_growth_mb." in name:
        return "MB"
    if name.endswith("_per_s"):
        return "chars/s" if name.startswith("syntax.") else "1/s"
    if name.endswith("_s") or ".sweep_s." in name:
        return "s"
    if name.endswith("mem_yield"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
