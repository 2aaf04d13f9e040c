"""Run one pass of CLI invocations in-process, untraced and traced.

Usage: python trace_child.py JOB.json

JOB holds ``argvs`` (one pass), ``seconds`` and ``out`` (a directory).
The child alternates an untraced and a traced run of the pass while the
next pair is predicted to end within ``seconds``, always completing at
least one pair.  Tracing wraps every binding of each layer's public
functions -- ``analysis`` and ``landauzener`` import several of them by
name, so patching only the defining module would miss those calls --
and records one span per call: name, start, end, parent span and run id
(the traced invocation's index).  Spans stay in memory and are written
to ``spans.npz`` at the end, with ``trace.json`` describing the runs and
the captured output of the first traced pass.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("qstate", "trajectory", "cumulants", "analysis", "landauzener")


class Tracer:
    """Span recorder; ``install`` swaps wrappers in, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.errors: list[str] = [""]
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.error: list[int] = []
        self.ret_len: list[int] = []
        self.stack = [-1]
        self.run_id = -1
        self._wrappers: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name, start, end, parent, run = self.name, self.start, self.end, self.parent, self.run
        error, ret_len, stack, errors = self.error, self.ret_len, self.stack, self.errors
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0.0)
            error.append(0)
            ret_len.append(-1)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                kind = type(exc).__name__
                if kind not in errors:
                    errors.append(kind)
                error[i] = errors.index(kind)
                raise
            end[i] = clock()
            stack.pop()
            if isinstance(result, list):
                ret_len[i] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, cli) -> None:
        """Wrap cli.main and every public layer function wherever it is bound."""
        if not self._wrappers:
            targets = {cli.main: "cli.main"}
            for layer in LAYERS:
                module = sys.modules[f"unital_otto.{layer}"]
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        targets[fn] = f"{layer}.{attr}"
            self._wrappers = {fn: self.wrap(label, fn) for fn, label in targets.items()}
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "unital_otto"]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def save(self, path: Path) -> None:
        np.savez(
            path,
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            run=np.array(self.run, dtype=np.int32),
            error=np.array(self.error, dtype=np.int32),
            ret_len=np.array(self.ret_len, dtype=np.int64),
            names=np.array(self.names),
            errors=np.array(self.errors),
        )


def run_pass(cli, argvs, tracer: Tracer | None, first_run_id: int):
    """Call cli.main for each argv; returns (seconds, [(code, stdout, stderr)])."""
    results = []
    total = 0.0
    for offset, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run_id = first_run_id + offset
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(list(argv))
            total += time.perf_counter() - t0
        results.append((code, out.getvalue(), err.getvalue()))
    return total, results


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    argvs = job["argvs"]
    cli = importlib.import_module("unital_otto.cli")
    for layer in LAYERS:
        importlib.import_module(f"unital_otto.{layer}")

    tracer = Tracer()
    deadline = time.perf_counter() + job["seconds"]
    pairs = []
    outputs = None
    while True:
        t0 = time.perf_counter()
        untraced, _ = run_pass(cli, argvs, None, 0)
        tracer.install(cli)
        try:
            traced, results = run_pass(cli, argvs, tracer, len(pairs) * len(argvs))
        finally:
            tracer.uninstall()
        pairs.append({"untraced_s": untraced, "traced_s": traced})
        if outputs is None:
            outputs = results
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    tracer.save(out / "spans.npz")
    runs = []
    for i, (code, stdout, stderr) in enumerate(outputs):
        (out / f"trace-{i}.out").write_text(stdout)
        (out / f"trace-{i}.err").write_text(stderr)
        runs.append({"code": code})
    (out / "trace.json").write_text(
        json.dumps({"pairs": pairs, "runs_per_pass": len(argvs), "first_pass": runs})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
