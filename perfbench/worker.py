"""Run one workload in this fresh interpreter; print its figures as JSON.

run.py starts this script with src/ on PYTHONPATH.  It runs passes of the
workload while another pass would still end within --seconds (sweep runs
exactly one), checks the first pass against the oracles and every later
pass against the first, and with --trace 1 records spans and reports
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentiles(samples: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return {"p50": statistics.median(s), "tail": s[-1], "tail_percentile": 100.0,
                "samples": n}
    return {"p50": statistics.median(s), "tail": s[n - 11],
            "tail_percentile": round(100 * (n - 10) / n, 2), "samples": n}


def histogram(counts: list[dict]) -> dict:
    total: Counter = Counter()
    for c in counts:
        total.update({k: int(v) for k, v in c.items()})
    return dict(sorted(total.items()))


def run_passes(workload, seconds: float, tracer) -> dict:
    """Run passes until the deadline.  Each output is checked right after
    its operation and then dropped, so every pass starts from the same heap:
    on the first pass against its oracle, later passes against the first
    pass's fingerprint.  Only the operations themselves are timed, and
    their times are host-normalised once the run is over."""
    from hostspeed import Sampler
    from oracles import fingerprint

    ops = workload.ops
    deadline = time.perf_counter() + seconds
    windows: list[list[tuple]] = []    # per pass, per op: (start, end)
    layer_counts: list[dict] = []
    rss_growth: dict[str, float] = {}
    prints: list = []
    failures: list[str] = []
    per_op: list[dict] = []
    failed = units = 0
    wrong = False
    checks: list[tuple] = []           # first pass, per op: (start, end) of its check
    probes = None
    with Sampler() as sampler:
        while True:
            first = not windows
            t_pass = time.perf_counter()
            pass_windows = []
            pass_counts = dict.fromkeys(LAYER_COUNTS, 0)
            table = None
            for i, op in enumerate(ops):
                if op.attrs.get("table") != table:
                    # ru_maxrss only grows: a table's growth is the peak it adds.
                    if table is not None:
                        rss_growth[table] += rss_mb()
                    table = op.attrs.get("table")
                    if table is not None:
                        rss_growth[table] = -rss_mb()
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = op.run()
                    else:
                        out = tracer.call(op.span, op.run, (), op.attrs, keep=True)
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    out = exc
                pass_windows.append((t0, time.perf_counter()))

                if tracer is not None:
                    after_traced_op(tracer, pass_counts)
                    tracer.active = False
                t_check = time.perf_counter()
                crashed = isinstance(out, BaseException)
                if crashed:
                    msg = f"raised {type(out).__name__}: {str(out)[:80]}"
                elif first:
                    msg = op.check(out)
                    wrong = wrong or msg is not None
                    per_op.append(op.count(out))
                    units += op.units(out)
                else:
                    msg = None
                mark = (type(out).__name__, str(out)) if crashed else fingerprint(out)
                if first:
                    prints.append(mark)
                    checks.append((t_check, time.perf_counter()))
                elif mark != prints[i]:
                    msg = "output differs from the first pass"
                    wrong = True
                if msg is not None:
                    failed += 1
                    where = "/".join(filter(None, (op.key, op.attrs.get("schema"))))
                    failures.append(f"{where}: {msg}")
                del out
                if tracer is not None:
                    tracer.active = True
            if table is not None:
                rss_growth[table] += rss_mb()
            windows.append(pass_windows)
            layer_counts.append(pass_counts)
            if first and workload.probes is not None:
                if tracer is not None:
                    tracer.active = False
                probes = workload.probes()
                if tracer is not None:
                    tracer.active = True
            if workload.max_passes and len(windows) >= workload.max_passes:
                break
            # Start another pass only if one as long as the last ends in time.
            now = time.perf_counter()
            if now + (now - t_pass) > deadline:
                break

    # Each operation's time without the reference runs that interrupted it,
    # raw and host-normalised.
    raw = [[t1 - t0 - sampler.busy_s(t0, t1) for t0, t1 in ws] for ws in windows]
    times = [[sampler.normalised(t0, t1) for t0, t1 in ws] for ws in windows]
    if tracer is not None:
        tracer.duration = sampler.normalised

    if any(c != layer_counts[0] for c in layer_counts):
        wrong = True
        failures.append("per-layer counts differ between passes")
    return {
        "passes": len(times),
        "attempted": len(times) * len(ops),
        "failed": failed,
        "wrong": wrong,
        "failures": failures[:20],
        "counts": histogram(per_op),
        "layer_counts": layer_counts[0] if tracer is not None else {},
        "probes": probes,
        "oracle_s": sum(sampler.normalised(t0, t1) for t0, t1 in checks),
        "rss_growth_mb": rss_growth,
        "raw_walls": [sum(rs) for rs in raw],
        **summarize(ops, times, units),
    }


def summarize(ops, times: list[list[float]], units: int) -> dict:
    """End-to-end figures from per-pass, per-operation times."""
    def pass_sum(keep):
        return statistics.median(sum(t for op, t in zip(ops, ts) if keep(op))
                                 for ts in times)

    walls = [sum(ts) for ts in times]
    key_lat: dict[str, list[float]] = {}
    for ts in times:
        lat: dict[str, float] = {}
        for op, t in zip(ops, ts):
            if op.tag != "parse":
                lat[op.key] = lat.get(op.key, 0.0) + t
        for k, v in lat.items():
            key_lat.setdefault(k, []).append(v)
    lat = {k: statistics.median(v) for k, v in key_lat.items()}
    pct = percentiles(list(lat.values()))
    slowest = sorted(lat.items(), key=lambda kv: -kv[1])[:15]
    return {
        "e2e": {
            "wall_s": statistics.median(walls),
            "free_s": pass_sum(lambda op: op.tag == "free"),
            "mem_s": pass_sum(lambda op: op.tag == "mem"),
            "ops_per_s": units * len(times) / sum(walls),
            "latency_p50_ms": pct["p50"] * 1e3,
            "latency_tail_ms": pct["tail"] * 1e3,
        },
        "latency": {"tail_percentile": pct["tail_percentile"], "samples": pct["samples"],
                    "slowest_ms": {k: v * 1e3 for k, v in slowest}},
        "pass_walls": walls,
    }


LAYER_COUNTS = ("core_nodes", "bf_nodes", "bf_nodes_in_mbf", "mbf_nodes", "munbf_nodes")


def after_traced_op(tracer, counts: dict) -> None:
    """Count the nodes of the outputs the wrapped calls kept, and replay the
    comparison of an eq call, with the tracer paused but for the replay."""
    from oracles import expanded_size

    tracer.active = False
    forms = []
    for name, parent, out in tracer.kept:
        parent_name = tracer.spans[parent][0] if parent >= 0 else ""
        if name == "translate.to_core":
            counts["core_nodes"] += expanded_size(out)
        elif name == "normalform.bf":
            n = expanded_size(out)
            counts["bf_nodes"] += n
            if parent_name == "normalform.mbf":
                counts["bf_nodes_in_mbf"] += n
        elif name == "normalform.mbf":
            counts["mbf_nodes"] += expanded_size(out.tree)
        elif name == "nandform.nand_nf":
            counts["munbf_nodes"] += expanded_size(out)
        elif name == "congruence.normal_form" and parent_name == "cli.main":
            if tracer.spans[parent][4].get("eq"):
                forms.append(out)
    tracer.kept.clear()
    tracer.active = True
    if len(forms) == 2:
        # eq compares its two normal forms inline, where no wrapper can
        # reach; replay that comparison on the same two trees.
        left, right = forms
        tracer.call("congruence.compare", lambda: left == right)


def per_layer(tracer, res: dict, tables_parse_s: float) -> dict:
    """Per-layer figures of a traced run: self times per pass, counts per
    pass, and rates."""
    from workloads import SWEEP_TABLES

    passes = res["passes"]
    self_t = tracer.self_times()

    def self_s(name, table=None):
        if table is not None:
            return self_t.get((name, table), 0.0) / passes
        return sum(v for (n, _), v in self_t.items() if n == name) / passes

    lc = res["layer_counts"]
    parse_s = self_s("syntax.parse")
    chars = tracer.attr_sum("syntax.parse", "chars") / passes
    sweep_s = {t: self_s("axioms.sweep", t) for t in SWEEP_TABLES}
    inst = res["counts"].get("instantiations", 0)
    out = {
        "syntax.parse_s": parse_s,
        "syntax.parse_chars_per_s": chars / parse_s if parse_s else 0.0,
        "syntax.print_s": self_s("syntax.print"),
        "syntax.setup_parse_s": tables_parse_s,
        "cli.main_s": tracer.total("cli.main") / passes,
        "cli.overhead_s": self_s("cli.main"),
        "translate.to_core_s": self_s("translate.to_core"),
        "translate.core_nodes": lc["core_nodes"],
        "normalform.bf_s": self_s("normalform.bf"),
        "normalform.bf_nodes": lc["bf_nodes"],
        "normalform.mf_s": self_s("normalform.mbf"),
        "normalform.mbf_nodes": lc["mbf_nodes"],
        "normalform.mem_yield": (lc["mbf_nodes"] / lc["bf_nodes_in_mbf"]
                                 if lc["bf_nodes_in_mbf"] else 0.0),
        "normalform.render_s": self_s("normalform.render"),
        "nandform.nand_nf_s": self_s("nandform.nand_nf"),
        "nandform.munbf_nodes": lc["munbf_nodes"],
        "nandform.check_s": self_s("nandform.check"),
        "nandform.render_s": self_s("nandform.render"),
        "congruence.compare_s": self_s("congruence.compare"),
        "congruence.oracle_s": res["oracle_s"],
        "axioms.fresh_s": self_s("axioms.fresh"),
        "axioms.instantiations": inst,
        "axioms.inst_per_s": inst / sum(sweep_s.values()) if inst else 0.0,
        "axioms.budget_capped": res["counts"].get("budget_capped", 0),
    }
    for t in SWEEP_TABLES:
        out[f"axioms.sweep_s.{t}"] = sweep_s[t]
    for t in SWEEP_TABLES:
        out[f"axioms.rss_growth_mb.{t}"] = res["rss_growth_mb"].get(t, 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import sclc
    from sclc import axioms

    if not Path(sclc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: sclc came from {sclc.__file__}, not from src/", file=sys.stderr)
        return 2

    import workloads
    from hostspeed import reference_s, scale
    from tracing import Tracer, install

    tracer = Tracer() if args.trace else None
    tables_parse_s = 0.0
    if tracer is not None:
        axioms.parse = tracer.wrap(axioms.parse, "syntax.parse")
        ref_before = reference_s()
        tables = sclc.builtin_tables()
        host = scale(ref_before, reference_s())
        axioms.parse = tracer.unwrapped(axioms.parse)
        tables_parse_s = tracer.self_times()[("syntax.parse", None)] * host
        tracer.spans.clear()
    else:
        tables = sclc.builtin_tables()
    recursion_start = sys.getrecursionlimit()

    wl = workloads.build(args.workload, args.seed, args.smoke, tables)
    if tracer is not None:
        install(tracer)
    res = run_passes(wl, args.seconds, tracer)
    res["recursion_limit"] = {"start": recursion_start, "end": sys.getrecursionlimit()}
    res["peak_rss_mb"] = rss_mb()
    if tracer is not None:
        res["per_layer"] = per_layer(tracer, res, tables_parse_s)
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                           "spans": tracer.spans}, f)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
