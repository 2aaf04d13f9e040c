"""Benchmark of the unital-otto command line.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/unital_otto``.  With
``--trace 0`` one client runs the workload's CLI invocations as fresh
subprocesses, one after another (a closed loop: the next starts when the
previous has exited), so at most this harness and one child run at a
time.  It repeats the workload's pass in rounds, and between
invocations times ``reference.py``, whose work never changes; the time
metrics are in units of that reference run.  Every output is checked
against the reference model in ``oracle.py``.  With ``--trace 1`` a child process runs one pass
in-process, untraced and then with spans around every public layer
function, and the per-layer metrics come from those spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, and the run record.  The
exit code is 1 when an output check failed, 2 when the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import trace_child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
REFERENCE_EVERY_S = 1.0  # CLI wall time between two reference runs
# reference.py's wall time on the machine the README figures come from,
# when that machine ran fast; setup_s is scaled to a host this fast
REFERENCE_NOMINAL_S = 0.3
CHILD_TIMEOUT_S = 120.0
REPORTED_ERRORS = ("config error:", "physics error:")


@dataclass
class Outcome:
    """One CLI invocation as the client saw it."""

    wall_s: float
    setup_s: float | None
    peak_rss_mb: float | None
    code: int
    ok: bool  # exited 0 and matched the reference
    correct: bool  # no wrong answer: matched, or a documented error exit


def child_env() -> dict[str, str]:
    """Fixed environment: src first on PYTHONPATH, no OTTO_TOL, fixed hash seed, one BLAS thread."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "OTTO_TOL" and not (k.startswith("PYTHON") and k != "PYTHONPATH")
    }
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def launch(argv, env, out_path: Path, err_path: Path):
    """Run child.py once; returns (wall_s, setup_s, exit code, peak RSS MB).

    Set-up time and peak RSS are None when the child did not get that
    far.  A child still running after CHILD_TIMEOUT_S is killed and
    reported with exit code -9.
    """
    read_fd, write_fd = os.pipe()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(write_fd), *argv],
                stdout=out, stderr=err, pass_fds=(write_fd,), env=env, cwd=ROOT,
            )
            os.close(write_fd)
            write_fd = -1
            exit_fd = os.pidfd_open(proc.pid)
            try:
                if not select.select([exit_fd], [], [], CHILD_TIMEOUT_S)[0]:
                    proc.kill()
            finally:
                os.close(exit_fd)
            _, status = os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = os.read(read_fd, 256).split()
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    setup = float(report[0]) - t0 if report else None
    peak_mb = int(report[1]) / 1024.0 if len(report) > 1 else None
    return wall, setup, proc.returncode, peak_mb


def judge(inv: workloads.Invocation, code: int, stdout: str, stderr: str):
    """(ok, correct, detail) of one invocation's exit code and output."""
    if code == 0:
        bad = oracle.CHECKERS[inv.command](stdout, inv.spec)
        return (not bad, not bad, str(bad) if bad else "")
    lines = stderr.strip().splitlines()
    if code in (2, 3) and len(lines) == 1 and lines[0].startswith(REPORTED_ERRORS):
        return (False, True, lines[0])
    return (False, False, f"exit {code}: {stderr.strip()[-500:]}")


def run_one(inv, env, workdir: Path, keep: list[str]) -> Outcome:
    out_path, err_path = workdir / "last.out", workdir / "last.err"
    wall, setup, code, rss = launch(inv.argv, env, out_path, err_path)
    ok, correct, detail = judge(
        inv, code, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")
    )
    if not correct:
        shutil.copy(out_path, workdir / f"incorrect-{len(keep)}.out")
        keep.append(" ".join(inv.argv) + " -> " + detail)
    return Outcome(wall, setup, rss, code, ok, correct)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum
    (percentile 100) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def reference_wall(env) -> float:
    """Wall time of one run of reference.py, launched and waited for like a CLI child."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        env=env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("reference run failed: " + proc.stderr.decode()[-2000:])
    return wall


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Repeat the workload's pass in rounds for ``seconds``, timing the host alongside.

    On a shared host the same invocation takes up to 1.7x longer in some
    minutes than in others, so wall times in seconds differ from run to
    run by more than any useful bound.  After every REFERENCE_EVERY_S of
    CLI time the harness also times reference.py, fixed work that does
    not use the program, and the time metrics divide by its mean: they
    are CLI wall times in units of that reference run.  Means, not
    medians: the times cluster at two speeds, and a median jumps between
    the clusters where a mean moves with the share of each.  ``setup_s``
    is the median set-up time in the same units, times
    REFERENCE_NOMINAL_S, so that it stays in seconds.  ``attempted``
    and ``failed`` count the pass's inputs, not their repetitions, so
    they do not depend on how many rounds fit.
    """
    env = child_env()
    for inv in workloads.warmup(name):
        launch(inv.argv, env, workdir / "last.out", workdir / "last.err")
    reference_wall(env)
    setups = []
    for _ in range(SETUP_PROBES):
        _, setup, code, _ = launch(["--setup-only"], env, workdir / "last.out", workdir / "last.err")
        if code != 0 or setup is None:
            raise RuntimeError("set-up probe failed: " + (workdir / "last.err").read_text())
        setups.append(setup)

    inputs = workloads.make_pass(name, seed)
    walls_of: list[list[float]] = [[] for _ in inputs]
    ok = [True] * len(inputs)
    incorrect: list[str] = []
    outcomes: list[Outcome] = []
    references: list[float] = []
    since_reference = 0.0
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    rounds = 0
    while rounds == 0 or time.perf_counter() + last_round <= deadline:
        t0 = time.perf_counter()
        for i, inv in enumerate(inputs):
            outcome = run_one(inv, env, workdir, incorrect)
            outcomes.append(outcome)
            walls_of[i].append(outcome.wall_s)
            ok[i] = ok[i] and outcome.ok
            since_reference += outcome.wall_s
            if since_reference >= REFERENCE_EVERY_S:
                references.append(reference_wall(env))
                since_reference = 0.0
        last_round = time.perf_counter() - t0
        rounds += 1
    if not references:
        references.append(reference_wall(env))

    reference = statistics.fmean(references)
    typical = [statistics.fmean(w) for w in walls_of]  # each input's mean repetition
    walls = [o.wall_s for o in outcomes]
    tail_value, tail_pct = tail(walls)
    attempted = len(inputs)
    failed = ok.count(False)
    setups += [o.setup_s for o in outcomes if o.setup_s is not None]
    metrics = {
        "setup_s": (statistics.median(setups) / reference * REFERENCE_NOMINAL_S, "s"),
        "wall_ref_p50": (statistics.median(typical) / reference, "ref"),
        "items_per_ref": (sum(inv.items for inv in inputs) / (sum(typical) / reference), "1/ref"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(o.peak_rss_mb or 0.0 for o in outcomes), "MB"),
    }
    notes = {
        "rounds": rounds,
        "invocations": len(outcomes),
        "failed_ratio": failed / attempted,
        "reference_s_mean": reference,
        "reference_runs": len(references),
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": tail_value,
        "wall_s_tail_percentile": round(tail_pct, 2),
        "items_per_s": sum(inv.items for inv in inputs) / sum(typical),
        "setup_s_measured": statistics.median(setups),
        "setup_samples": len(setups),
        "exit_codes": {str(c): sum(o.code == c for o in outcomes) for c in sorted({o.code for o in outcomes})},
        "incorrect": incorrect[:5],
    }
    return {
        "wall_s": walls,
        "reference_s": references,
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


# ------------------------------------------------------------- tracing

# Per-function metrics; counts are of the first traced pass.
FUNCTION_METRICS = {
    "trajectory.enumerate_paths": ("calls", "self_us_per_call", "calls_per_item"),
    "trajectory.cs_distribution": ("calls", "self_us_per_call"),
    "cumulants.cumulants_from_distribution": ("calls", "self_us_per_call"),
    "cumulants.closed_form_first_second": ("calls", "self_us_per_call", "calls_per_item"),
    "cumulants.cs_first_cumulants": ("calls", "self_us_per_call"),
    "cumulants.cf_derivative_check": ("calls", "failed", "self_us_per_call"),
    "analysis.verify_bounds": ("calls", "self_us_per_call"),
    "analysis.efficiency": ("calls",),
    "analysis.classify_regime": ("calls",),
    "landauzener.unmonitored_cycle": ("calls_per_row", "self_us_per_call"),
}
MODULES = ("cli", *trace_child.LAYERS)
UNITS = {
    "calls": "count",
    "failed": "count",
    "self_us_per_call": "us",
    "calls_per_item": "count",
    "calls_per_row": "count",
}


class SpanTable:
    """Spans written by trace_child.py, with self time per span.

    A span's self time is its duration minus the time covered by its
    direct children; calls nest strictly on one thread, so the children
    never overlap.
    """

    def __init__(self, path: Path, runs_per_pass: int):
        data = np.load(path)
        self.names = [str(n) for n in data["names"]]
        self.errors = [str(e) for e in data["errors"]]
        self.name = data["name"]
        self.parent = data["parent"]
        self.error = data["error"]
        self.ret_len = data["ret_len"]
        self.duration = data["end"] - data["start"]
        nested = self.parent >= 0
        covered = np.bincount(
            self.parent[nested], weights=self.duration[nested], minlength=self.duration.size
        )
        self.self_s = self.duration - covered
        self.pass_of = data["run"] // runs_per_pass
        self.passes = int(self.pass_of.max()) + 1 if self.pass_of.size else 1
        self.first = self.pass_of == 0
        called_by_main = np.zeros(self.duration.size, dtype=bool)
        called_by_main[nested] = self.name[self.parent[nested]] == self._id("cli.main")
        self.called_by_main = called_by_main

    def _id(self, label: str) -> int:
        return self.names.index(label) if label in self.names else -1

    def of(self, *labels: str) -> np.ndarray:
        return np.isin(self.name, [self._id(label) for label in labels])

    def self_s_per_pass(self, mask) -> list[float]:
        return [float(self.self_s[mask & (self.pass_of == p)].sum()) for p in range(self.passes)]

    def median_self_per_call(self, mask) -> float:
        per_pass = [
            t / n
            for p, t in enumerate(self.self_s_per_pass(mask))
            if (n := int(np.sum(mask & (self.pass_of == p))))
        ]
        return statistics.median(per_pass) if per_pass else 0.0

    def count(self, mask) -> int:
        return int(np.sum(mask & self.first))

    def failures(self, mask, kind: str) -> int:
        if kind not in self.errors:
            return 0
        return self.count(mask & (self.error == self.errors.index(kind)))


def printed_reports(command: str, text: str) -> int:
    """Bound reports that reach the output: the tallies of a verify-bounds table."""
    if command != "verify-bounds":
        return 0
    return sum(int(x) for row in text.splitlines()[2:] for x in row.split(",")[1:])


def per_layer_metrics(spans: SpanTable, invocations, outputs: list[str], pairs) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians over passes."""
    items = sum(inv.items for inv in invocations)
    lz_rows = sum(
        oracle.data_rows(text) for inv, text in zip(invocations, outputs) if inv.command == "lz-compare"
    )
    draws = sum(inv.items for inv in invocations if inv.command == "sample")
    metrics: dict[str, tuple[float, str]] = {}
    for label, wanted in FUNCTION_METRICS.items():
        mask = spans.of(label)
        calls = spans.count(mask)
        values = {
            "calls": calls,
            "failed": spans.failures(mask, "DerivativeStepError"),
            "self_us_per_call": spans.median_self_per_call(mask) * 1e6,
            "calls_per_item": calls / items,
            "calls_per_row": calls / lz_rows if lz_rows else 0.0,
        }
        for key in wanted:
            metrics[f"{label}.{key}"] = (values[key], UNITS[key])
    sample_s = statistics.median(spans.self_s_per_pass(spans.of("trajectory.sample")))
    metrics["trajectory.sample.ns_per_draw"] = (sample_s / draws * 1e9 if draws else 0.0, "ns")
    for module in MODULES:
        labels = [n for n in spans.names if n.split(".")[0] == module]
        metrics[f"{module}.self_s"] = (statistics.median(spans.self_s_per_pass(spans.of(*labels))), "s")

    # bound reports and efficiencies cli asked for, against those it printed;
    # with nothing asked for, nothing was wasted
    top = spans.called_by_main
    computed = int(spans.ret_len[spans.of("analysis.verify_bounds") & top & spans.first].sum())
    computed += spans.count(spans.of("analysis.efficiency") & top)
    printed = sum(printed_reports(inv.command, text) for inv, text in zip(invocations, outputs))
    metrics["analysis.useful_ratio"] = (printed / computed if computed else 1.0, "ratio")
    metrics["cli.output_bytes"] = (sum(len(text.encode()) for text in outputs), "bytes")
    metrics["cli.rows"] = (sum(oracle.data_rows(text) for text in outputs), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["traced_s"] / p["untraced_s"] for p in pairs), "ratio",
    )
    return metrics


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    invocations = workloads.make_pass(name, seed)
    job = workdir / "job.json"
    job.write_text(
        json.dumps({"argvs": [list(inv.argv) for inv in invocations], "seconds": seconds, "out": str(workdir)})
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace_child.py"), str(job)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError("traced run failed:\n" + proc.stderr[-2000:])
    record = json.loads((workdir / "trace.json").read_text())
    outcomes, outputs, incorrect = [], [], []
    for i, (inv, run) in enumerate(zip(invocations, record["first_pass"])):
        stdout = (workdir / f"trace-{i}.out").read_text(encoding="utf-8")
        stderr = (workdir / f"trace-{i}.err").read_text(encoding="utf-8")
        ok, correct, detail = judge(inv, run["code"], stdout, stderr)
        outcomes.append((ok, correct))
        outputs.append(stdout)
        if not correct:
            incorrect.append(" ".join(inv.argv) + " -> " + detail)
    spans = SpanTable(workdir / "spans.npz", record["runs_per_pass"])
    return {
        "correct": all(c for _, c in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not ok for ok, _ in outcomes),
        "metrics": per_layer_metrics(spans, invocations, outputs, record["pairs"]),
        "notes": {"pairs": len(record["pairs"]), "spans": int(spans.name.size), "incorrect": incorrect[:5]},
    }


# ---------------------------------------------------------- run record


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "clock": time.get_clock_info("perf_counter").implementation,
        "client": "closed loop, 1 client, one CLI child at a time",
        "tolerances": {"rtol": oracle.RTOL, "atol": oracle.ATOL, "z_limit": oracle.Z_LIMIT},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = (run_traced if trace else run_untraced)(name, seed, seconds, workdir)
    result["record"] = run_record(name, seed, seconds, trace)
    (workdir / "result.json").write_text(json.dumps(result, indent=2, default=str))
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric:<52} {value:>16.6g} {unit}")
    for key, value in {**result["notes"], **result["record"]}.items():
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unital_otto" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'unital_otto' / 'cli.py'} is missing", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    for name, result in results.items():
        report(name, result)
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in results.items()
            for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
