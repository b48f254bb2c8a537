"""tools/catalogue.py, run small: every valid table's sweep at k=1."""

import hashlib
import subprocess
import sys
from pathlib import Path

from sclc.axioms import Verdict, builtin_tables

TOOL = Path(__file__).resolve().parents[1] / "tools" / "catalogue.py"


def test_catalogue_at_k1():
    done = subprocess.run([sys.executable, str(TOOL), "--k", "1"], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr
    *lines, digest, free_s, mem_s, rss = done.stdout.splitlines()
    # One line per schema, in builtin order: a memorising table two- and
    # then three-valued unless its mode is three-valued already.
    want = []
    for table in builtin_tables():
        if table.expect_refuted:
            continue
        congruence, three = table.mode.congruence, table.mode.three_valued
        modes = ["mem", "mem+U"] if congruence == "mem" and not three else [
            congruence + ("+U" if three else "")]
        want += [(table.name, mode, s.name) for mode in modes for s in table.schemas]
    fields = [line.split("\t") for line in lines]
    assert [tuple(f[:3]) for f in fields] == want
    assert {(f[3], f[6]) for f in fields} == {(Verdict.PASSED_EXHAUSTIVE.value, "-")}
    assert all(int(f[4]) >= 1 and f[5] in ("False", "True") for f in fields)
    text = "".join(line + "\n" for line in lines)
    assert digest == f"digest {hashlib.sha256(text.encode()).hexdigest()}"
    for line, name in ((free_s, "free_process_s"), (mem_s, "mem_process_s")):
        assert line.startswith(name + " ") and float(line.split()[1]) > 0
    assert rss.startswith("peak_rss_mb ") and float(rss.split()[1]) > 0
