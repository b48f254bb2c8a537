"""The axiom catalogue: every valid builtin table's exhaustive check.

    python3 tools/catalogue.py [--k K] [--src DIR]

Runs the exhaustive sweep of every builtin table that is not refutable, at
depth K (default 2), in builtin order, in one process: a free table once,
a memorising table two-valued and then three-valued (once if its mode is
three-valued already).  Prints one line per schema, tab-separated: table,
mode, schema, verdict, count, budget flag and witness (variable=term pairs
in variable order, "-" if none).  Then four lines: the sha256 of the
schema lines, the process times of the free and of the memorising checks,
and the peak RSS.
The schema lines and the digest do not depend on the host; compare them
between two trees to see that a change keeps every result.

sclc is imported from DIR (default: the src/ of this checkout), so one copy
of this script runs any tree's code.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2, help="sweep depth (default 2)")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory to import sclc from")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from sclc.axioms import builtin_tables, check_table
    from sclc.syntax import print_term

    digest, process_s = hashlib.sha256(), {"free": 0.0, "mem": 0.0}
    for table in builtin_tables():
        if table.expect_refuted:
            continue
        mem = table.mode.congruence == "mem"
        for three in (False, True) if mem and not table.mode.three_valued else (False,):
            start = time.process_time()
            results = check_table(table, "exhaustive", k=args.k, three_valued=three)
            process_s[table.mode.congruence] += time.process_time() - start
            mode = table.mode.congruence + ("+U" if three or table.mode.three_valued else "")
            for schema, r in results:
                witness = ";".join(f"{v}={print_term(t)}" for v, t in
                                   sorted(r.witness.items())) if r.witness else "-"
                line = "\t".join((table.name, mode, schema.name, r.verdict.value,
                                  str(r.count), str(r.budget_exceeded), witness))
                print(line)
                digest.update(line.encode() + b"\n")
    print(f"digest {digest.hexdigest()}")
    for congruence, seconds in process_s.items():
        print(f"{congruence}_process_s {seconds:.3f}")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
