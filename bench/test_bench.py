"""Self-checks of the benchmark harness: python -m pytest bench/test_bench.py

They run real CLI subprocesses, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import plain  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    workloads.Invocation("verify n1 vectorfield", ["verify", "--algebra", "n1", "--realization",
                                                   "vectorfield"], lambda c, o: None),
    workloads.Invocation("jacobi n1 jobs2", ["jacobi", "--algebra", "n1", "--jobs", "2"],
                         lambda c, o: None),
    workloads.Invocation("extract n1 dmodule", ["extract", "--algebra", "n1", "--realization",
                                                "dmodule"], lambda c, o: None),
]


@pytest.fixture(scope="module")
def scratch():
    (run.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    path = Path(run.tempfile.mkdtemp(dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def runner(scratch):
    with run.Runner(scratch) as runner:
        yield runner


def test_counts_repeat_exactly(runner):
    first = runner.run_pass(SMALL, "counts")
    second = runner.run_pass(SMALL, "counts")
    for a, b in zip(first, second):
        assert a.record is not None and b.record is not None
        for part in ("calls", "counts", "entries"):
            assert a.record[part] == b.record[part], (a.inv.name, part)
    jobs2 = first[1].record
    assert jobs2["counts"]["algebra.triples"] == 13 ** 3  # worker counts are merged
    assert jobs2["calls"]["scalars.scalar_mul"] > 0


def test_tracer_keeps_stdout_and_self_times_partition(runner):
    base = runner.run_pass(SMALL)
    for mode in ("spans", "counts"):
        for a, b in zip(base, runner.run_pass(SMALL, mode)):
            assert (a.code, a.stdout) == (b.code, b.stdout), (mode, a.inv.name)
            if mode == "spans":
                record = b.record
                busy = record["total"]["cli.main"]
                assert abs(sum(record["self"].values()) - busy) < 1e-9 * max(1.0, busy)
                assert all(value >= 0 for value in record["self"].values())
                assert record["import_s"] + busy <= b.wall
    assert all(r.maxrss_kib > 0 for r in base)


def test_known_defect_is_a_failure_not_a_wrong_answer(runner, scratch):
    work = workloads.build("reconstruct", 1, run.ROOT, scratch)
    inv = next(i for i in work.invocations if i.name == "extract g22 vectorfield")
    result = runner.run_pass([inv])[0]
    reason, wrong = run.judge(result, {})
    assert reason and reason.startswith("traceback") and not wrong


def test_a_crash_is_a_wrong_answer(runner, scratch):
    work = workloads.build("referee", 1, run.ROOT, scratch)
    inv = next(i for i in work.invocations if i.name == "verify n1 vectorfield")
    golden = json.loads(run.GOLDEN.read_text())
    good = runner.run_pass([inv])[0]
    assert run.tally([[good]], golden, [])[:3] == (1, 0, True)
    crashed = replace(good, code=1, stdout=good.stdout[:len(good.stdout) // 2],
                      stderr=b"Traceback (most recent call last):\nZeroDivisionError: x\n")
    assert run.tally([[crashed]], golden, [])[:3] == (1, 1, False)
    killed = replace(good, code=-9, stderr=b"")
    reason, wrong = run.judge(killed, golden)
    assert reason.startswith("exit code -9") and wrong


def test_oracles_catch_wrong_answers(runner, scratch):
    work = workloads.build("audit", 3, run.ROOT, scratch)
    mutant = next(i for i in work.invocations if i.name == "jacobi g121 mutant text")
    clean = next(i for i in work.invocations if i.name == "jacobi g121 standard")
    good = runner.run_pass([mutant])[0]
    assert mutant.check(good.code, good.stdout.decode()) is None
    assert mutant.check(0, "graded Jacobi on x: 8000 triples verified\n") is not None
    assert clean.check(good.code, good.stdout.decode()) is not None
    basis, constants = workloads.Reference(run.ROOT).tables[("g121", "standard")]
    assert plain.jacobi_failures(basis, constants) == set()


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_self_time_shape(name, runner, scratch):
    """The leading layer of each workload, as profiled when the benchmark landed."""
    work = workloads.build(name, 1, run.ROOT, scratch)
    spans = runner.run_pass(work.invocations, "spans")
    layer_self, unattributed, busy = run.self_times(spans, sum(r.wall for r in spans))
    assert unattributed >= 0 and abs(sum(layer_self.values()) - busy) < 1e-6 * busy
    assert max(layer_self, key=layer_self.get) in run.EXPECTED_LEAD[name]
