"""colorlie benchmark: time to a correct verdict on the CLI workloads.

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another
    python3 bench/run.py --record-golden           # rewrite bench/golden.json

Run it from the root of a source checkout; it uses ``src/`` from there.
Every CLI invocation is its own ``python -m colorlie.cli`` subprocess,
import included, run by one client in a closed loop.  Each verdict is
checked against an oracle (see workloads.py) and corpus stdout against
the golden hashes.

``--trace 0`` runs whole passes over the workload until the next pass
would end after ``--seconds``, then measures set-up, and reports the
end-to-end metrics; pass_s adds up each invocation's median time over
the passes.  pass_cpu_s, printed but not in the JSON result, does the
same with user plus system CPU time.  ``--trace 1`` runs each invocation
once untraced and, right after, once under ``tracer.py spans``; then one
pass under ``tracer.py counts`` and the microbenchmarks of micro.py; and
reports the per-layer metrics.  trace.overhead_frac is the median over
invocations of traced over untraced wall time, minus 1.  The last line
of stdout is the JSON result; the lines before it give every metric
with its unit and sample count, failed_frac, the verdict-time
percentiles, and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from micro import run as micro_run
from workloads import WHY, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
WORKLOADS = ("reconstruct", "referee", "audit", "catalog")
SETUP_REPEATS = 5
TIMEOUT_S = 150

#: layers whose spans the traced run records, and the set-up layers among them
LAYERS = ("cli", "corpus", "io", "algebra", "linsolve", "matop", "weyl", "vecfield")
SETUP_LAYERS = ("cli", "corpus", "io")

#: the layer expected to lead self time on each workload at this commit
EXPECTED_LEAD = {"reconstruct": ("linsolve",), "referee": ("vecfield",),
                 "audit": ("algebra",), "catalog": SETUP_LAYERS}

SETUP_CODE = """
import sys
import colorlie.cli
from colorlie import corpus
from colorlie.io import parse_definition
for entry_id in sys.argv[1].split():
    corpus.load(entry_id)
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        parse_definition(handle.read())
"""


@dataclass
class Result:
    inv: object
    wall: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int
    cpu: float
    record: dict = None


class Runner:
    """Starts the subprocesses of one run through launcher.py."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self._env = {key: value for key, value in os.environ.items()
                     if not key.startswith(("PYTHON", "COLORLIE"))}
        # No PYTHONPYCACHEPREFIX: under one, the first run in a checkout would
        # also recompile the standard library modules a command needs.
        self._env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(WORK / "tmp"))
        self._proc = subprocess.Popen([sys.executable, "-I", "-S", str(BENCH / "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=TIMEOUT_S)

    def spawn(self, argv: list) -> tuple:
        """(wall s, exit code, stdout, stderr, peak RSS KiB, CPU s) of one subprocess."""
        out, err = self.scratch / "stdout", self.scratch / "stderr"
        request = {"argv": argv, "cwd": str(ROOT), "env": self._env, "stdout": str(out),
                   "stderr": str(err), "timeout": TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(line)
        return (reply["wall"], reply["code"], out.read_bytes(), err.read_bytes(),
                reply["maxrss_kib"], reply["cpu"])

    def run_pass(self, invocations, tracer_mode: str = None) -> list:
        """One pass over the invocations, in order; each is a fresh interpreter."""
        results = []
        for k, inv in enumerate(invocations):
            if tracer_mode is None:
                argv = [sys.executable, "-m", "colorlie.cli", *inv.args]
            else:
                out = self.scratch / f"{tracer_mode}-{k}.json"
                out.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH / "tracer.py"), tracer_mode, str(out), "--",
                        *inv.args]
            result = Result(inv, *self.spawn(argv))
            if tracer_mode is not None and out.exists():
                result.record = json.loads(out.read_text())
            results.append(result)
        return results


def judge(result: Result, golden: dict):
    """(failure reasons or None, whether the invocation gave a wrong answer).

    A traceback on stderr is a failure; it is a wrong answer only if the
    verdict also disagrees with the golden stdout or the oracle.  An exit
    code outside 0/1/2, a timeout kill included, is always a wrong answer.
    """
    inv = result.inv
    reasons, wrong = [], False
    if result.code not in (0, 1, 2):
        reasons.append(f"exit code {result.code}")
        wrong = True
    if b"Traceback" in result.stderr:
        last = result.stderr.decode(errors="replace").strip().splitlines()[-1]
        reasons.append(f"traceback on stderr: {last}")
    if inv.golden:
        want = golden.get(inv.name)
        got = {"exit": result.code, "sha256": hashlib.sha256(result.stdout).hexdigest()}
        if want != got:
            reasons.append("stdout or exit code differs from golden")
            wrong = True
    try:
        reason = inv.check(result.code, result.stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason:
        reasons.append(f"verdict: {reason}")
        wrong = True
    return "; ".join(reasons) or None, wrong


def tally(passes: list, golden: dict, problems: list):
    """attempted, failed, correct, and one line per distinct failure."""
    attempted = failed = 0
    correct = not problems
    notes: dict = {}
    for results in passes:
        for result in results:
            attempted += 1
            reason, wrong = judge(result, golden)
            if reason:
                failed += 1
                correct = correct and not wrong
                key = f"{result.inv.name}: {reason}"
                notes[key] = notes.get(key, 0) + 1
    lines = [f"FAILED x{n}  {text}" for text, n in sorted(notes.items())]
    return attempted, failed, correct, lines + [f"PROBLEM  {p}" for p in problems]


def p90(values: list) -> float:
    """90th percentile, interpolated between the samples around it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, workload, seconds: int) -> tuple:
    runner.spawn([sys.executable, "-c", "import colorlie.cli"])  # compile src/ to bytecode
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(workload.invocations))
        walls.append(sum(r.wall for r in passes[-1]))
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    argv = [sys.executable, "-c", SETUP_CODE, " ".join(workload.corpus_ids),
            *map(str, workload.files)]
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, code, _, stderr, _, _ = runner.spawn(argv)
        if code != 0:
            raise RuntimeError(f"set-up failed: {stderr.decode(errors='replace')}")
        setup.append(wall)
    verdicts = [r.wall for results in passes for r in results]
    peak = max(r.maxrss_kib for results in passes for r in results)
    # One pass at each invocation's median over the passes: the host slows
    # down in bursts of seconds, which this discards and a median of whole
    # passes would not.
    def median_pass(time_of) -> float:
        per_invocation = zip(*([time_of(r) for r in results] for results in passes))
        return sum(statistics.median(t) for t in per_invocation)

    metrics = {
        "pass_s": (median_pass(lambda r: r.wall), "s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak / 1024, "MiB", len(verdicts)),
    }
    notes = [f"pass_cpu_s = {median_pass(lambda r: r.cpu):.6g} s (n={len(walls)}; user+sys, "
             "pool workers included; not gated)",
             f"verdict_s.p50 = {statistics.median(verdicts):.6g} s (n={len(verdicts)})",
             f"verdict_s.p90 = {p90(verdicts):.6g} s (n={len(verdicts)})"]
    return passes, metrics, notes


def _sum(results, part: str, name: str) -> float:
    return sum(r.record[part].get(name, 0) for r in results if r.record)


def self_times(spans: list, traced_s: float) -> tuple:
    """Self time per layer, the rest of the traced pass, and the traced busy time.

    In each traced process the import and the ``cli.main`` span cover all
    its recorded time, and the self times of the spans partition it; the
    rest (interpreter start and exit) is unattributed.
    """
    layer_self = {layer: 0.0 for layer in LAYERS}
    busy = 0.0
    for r in spans:
        if r.record:
            for name, value in r.record["self"].items():
                layer_self[name.split(".")[0]] += value
            layer_self["cli"] += r.record["import_s"]
            busy += r.record["import_s"] + r.record["total"].get("cli.main", 0)
    return layer_self, traced_s - busy, busy


def per_layer(runner: Runner, workload, problems: list) -> tuple:
    runner.spawn([sys.executable, "-c", "import colorlie.cli"])
    plain_pass, spans = [], []
    for inv in workload.invocations:  # back to back, so both runs meet the same host speed
        plain_pass += runner.run_pass([inv])
        spans += runner.run_pass([inv], "spans")
    counts = runner.run_pass(workload.invocations, "counts")
    traced_s = sum(r.wall for r in spans)
    overhead = statistics.median(t.wall / p.wall for p, t in zip(plain_pass, spans)) - 1

    for base, *others in zip(plain_pass, spans, counts):
        for other in others:
            if (other.code, other.stdout) != (base.code, base.stdout):
                problems.append(f"{base.inv.name}: traced stdout or exit code differs")
            if other.record is None:
                problems.append(f"{base.inv.name}: the tracer wrote no record")

    layer_self, unattributed, busy = self_times(spans, traced_s)
    if abs(sum(layer_self.values()) - busy) > 1e-6 * max(1.0, busy) or unattributed < 0:
        problems.append("per-layer self times and unattributed_s do not add up to the traced pass")

    def c(name):
        return _sum(counts, "calls", name)

    def n(name):
        return _sum(counts, "counts", name)

    def s(name):
        return _sum(spans, "total", name)

    by_name = {r.inv.name: r.wall for r in plain_pass}
    speedups = [by_name[r.inv.twin] / r.wall for r in plain_pass if r.inv.twin]
    products = n("linsolve.products")
    metrics = {
        "linsolve.factor_s": (s("linsolve.factor"), "s"),
        "linsolve.solve_s": (s("linsolve.solve"), "s"),
        "linsolve.solves": (c("linsolve.solve"), "count"),
        "linsolve.pivots": (n("linsolve.pivots"), "count"),
        "linsolve.pivot_inverse_nnz": (n("linsolve.pivot_inverse_nnz"), "count"),
        "linsolve.useful_products_frac": (n("linsolve.useful_products") / products
                                          if products else 0.0, "ratio"),
        "matop.bracket_s": (s("matop.graded_bracket"), "s"),
        "matop.brackets": (c("matop.graded_bracket"), "count"),
        "weyl.compose_s": (s("weyl.compose"), "s"),
        "weyl.compose_calls": (c("weyl.compose"), "count"),
        "weyl.terms_out": (n("weyl.terms_out"), "count"),
        "vecfield.bracket_s": (s("vecfield.graded_bracket"), "s"),
        "vecfield.compose_s": (s("vecfield.compose"), "s"),
        "vecfield.brackets": (c("vecfield.graded_bracket"), "count"),
        "vecfield.terms_out": (n("vecfield.terms_out"), "count"),
        "grassmann.mono_mul_calls": (c("grassmann.mono_mul"), "count"),
        "algebra.jacobi_s": (s("algebra.check_jacobi"), "s"),
        "algebra.triples": (n("algebra.triples"), "count"),
        "algebra.jacobi_failures": (n("algebra.jacobi_failures"), "count"),
        "algebra.verify_self_s": (_sum(spans, "self", "algebra.verify_realization"), "s"),
        "algebra.pairs": (n("algebra.pairs"), "count"),
        "algebra.discrepancies": (n("algebra.discrepancies"), "count"),
        "algebra.extract_self_s": (_sum(spans, "self", "algebra.extract_structure_constants"), "s"),
        "algebra.change_basis_s": (s("algebra.change_basis"), "s"),
        "corpus.load_s": (s("corpus.load"), "s"),
        "corpus.entries": (sum(len(r.record["entries"]) for r in counts if r.record), "count"),
        "io.parse_s": (s("io.parse_definition"), "s"),
        "io.parse_bytes": (n("io.parse_bytes"), "count"),
        "cli.import_s": (sum(r.record["import_s"] for r in spans if r.record), "s"),
        "io.emit_s": (s("io.emit_definition") + s("io.emit_table") + s("io.emit_report"), "s"),
        "io.emit_bytes": (n("io.emit_bytes"), "count"),
        "cli.jobs2_speedup": (statistics.mean(speedups) if speedups else 0.0, "x"),
        "scalars.scalar_mul": (c("scalars.scalar_mul"), "count"),
        "scalars.scalar_add": (c("scalars.scalar_add"), "count"),
        "scalars.gauss_mul": (c("scalars.gauss_mul"), "count"),
        "scalars.gauss_add": (c("scalars.gauss_add"), "count"),
        "trace.overhead_frac": (overhead, "ratio", len(spans)),
        "trace.pass_s": (traced_s, "s"),
        "trace.unattributed_s": (unattributed, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    units = {"io.parse_us_per_kb": "us/KiB"}
    for name, value in micro_run(ROOT).items():
        metrics[name] = (value, units.get(name, "us"))

    shares = {layer: v / traced_s for layer, v in layer_self.items()}
    lead = max(shares, key=shares.get)
    notes = ["self-time shares of the traced pass: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]))
        + f", unattributed {unattributed / traced_s:.1%}",
        f"leading layer: {lead} (expected {' or '.join(EXPECTED_LEAD[workload.name])})"]
    return [plain_pass, spans, counts], metrics, notes


def _tree_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, golden: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload.name, "seed": seed, "why": WHY[workload.name],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": commit or "not a git checkout", "src_sha256": _tree_sha256(),
        "inputs_sha256": workload.input_hashes(),
        "golden_sha256": {inv.name: golden.get(inv.name, {}).get("sha256")
                          for inv in workload.invocations if inv.golden},
        "invocations": [inv.name for inv in workload.invocations],
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    golden = json.loads(GOLDEN.read_text())
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload = build(name, seed, ROOT, scratch)
        problems = list(workload.problems)
        print("provenance " + json.dumps(provenance(workload, seed, golden), sort_keys=True))
        with Runner(scratch) as runner:
            if trace:
                passes, metrics, notes = per_layer(runner, workload, problems)
            else:
                passes, metrics, notes = end_to_end(runner, workload, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, correct, lines = tally(passes, golden, problems)
    for key, (value, unit, *count) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}" + (f" (n={count[0]})" if count else ""))
    print(f"{name} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    for line in notes + lines:
        print(f"{name} {line}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit, *_) in metrics.items()}}


def record_golden() -> None:
    golden = {}
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        with Runner(scratch) as runner:
            for name in WORKLOADS:
                for inv in build(name, 0, ROOT, scratch).invocations:
                    if inv.golden:
                        result = runner.run_pass([inv])[0]
                        golden[inv.name] = {"exit": result.code,
                                            "sha256": hashlib.sha256(result.stdout).hexdigest()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden stdout hashes in {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "colorlie" / "cli.py").is_file():
        print(f"error: no colorlie sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    if args.record_golden:
        record_golden()
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{key}": value for name, r in results.items()
                              for key, value in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
