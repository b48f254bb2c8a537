"""Smoke tests of the benchmark: tiny inputs, every workload, both modes.

    python3 -m pytest perfbench

Each test runs the benchmark in a scratch copy of the checkout, so the
exact-repeat records it writes stay out of the working tree.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import REF_NOMINAL_S, Sampler  # noqa: E402
from oracles import expanded_size  # noqa: E402
from sclc.congruence import eval_tree  # noqa: E402
from worker import percentiles  # noqa: E402
from workloads import WORKLOADS, free_size, random_term  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checkout(dest: Path, with_program: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".runs", ".pytest_cache"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _run(cwd: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(checkout, workload, trace):
    done = _run(checkout, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_deep_probes_reported(checkout):
    done = _run(checkout, "chains", 0)
    detail = json.loads(done.stdout.splitlines()[-2])["detail"]
    assert [p["input"] for p in detail["deep_probes"]] == [
        "bang-10000", "paren-10000", "cond-10000", "bang-10001", "paren-10001", "cond-10001"]
    assert detail["recursion_limit"]["start"] > 0


def test_repeat_mismatch_is_flagged(tmp_path):
    co = _checkout(tmp_path)
    assert json.loads(_run(co, "sweep", 0).stdout.splitlines()[-1])["correct"] is True
    (record,) = (co / "perfbench" / ".runs").glob("counts-*-sweep-smoke-1.json")
    counts = json.loads(record.read_text())
    counts["instantiations"] += 1
    record.write_text(json.dumps(counts))
    done = _run(co, "sweep", 0)
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert json.loads(done.stdout.splitlines()[-2])["detail"]["repeat_mismatches"]


def test_refuses_without_program(tmp_path):
    co = _checkout(tmp_path, with_program=False)
    done = _run(co, "query", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_free_size_counts_the_basic_form():
    rng = random.Random(7)
    for kind in ("full", "scl", "nand"):
        for _ in range(200):
            t = random_term(rng, ("a", "b", "c"), 5, kind, undef=rng.random() < 0.3)
            assert free_size(t) == expanded_size(eval_tree(t))


def test_tail_has_ten_samples_beyond_it():
    pct = percentiles([float(i) for i in range(100)])
    assert pct["tail"] == 89.0 and pct["tail_percentile"] == 90.0
    assert pct["samples"] == 100 and pct["p50"] == 49.5


def test_normalised_time_drops_reference_runs_and_scales():
    # The reference loop ran at 0.0, 1.0 and 2.0 and took twice its nominal
    # time: the host ran at half speed.  [0.5, 1.5] lost one run to it.
    s = Sampler()
    s.starts, s.refs = [0.0, 1.0, 2.0], [2 * REF_NOMINAL_S] * 3
    assert s.busy_s(0.5, 1.5) == 2 * REF_NOMINAL_S
    assert s.normalised(0.5, 1.5) == pytest.approx((1.0 - 2 * REF_NOMINAL_S) / 2)
