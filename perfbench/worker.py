"""One benchmark run of one workload, in the process ``run.py`` starts.

Imports metacal from the checkout's ``src``, generates the workload's
inputs, then repeats passes over the workload's CLI stages until the run's
time budget is spent.  The first pass warms up and has every output
checked; every later pass must reproduce its artifacts byte for byte.
With ``--trace 1`` untraced and traced passes alternate, so the run
reports both the per-layer metrics and the tracing overhead, and checks
that tracing left every artifact byte-identical.  Times are scaled to a
nominal machine speed (``speed``).  With ``--setup-only`` it stops after
generating the inputs and reports the set-up time.

The last line on stdout is one JSON object for ``run.py`` to merge.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import plans
import speed
import tracer as tracing
import workloads


@dataclass
class Call:
    stage: str
    seconds: float
    outputs: list[str]
    check: Callable[[], list[str]]
    failures: list[str] = field(default_factory=list)


class Pass:
    """One pass over a workload's stages, in its own directory."""

    def __init__(self, main: Callable[[list[str]], int], directory: str,
                 checker: checks.Checker, tracer: tracing.Tracer | None) -> None:
        self._main = main
        self.directory = directory
        self.checker = checker
        self.tracer = tracer
        self.calls: list[Call] = []
        os.makedirs(directory)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def run(self, stage: str, argv: list[str], outputs: list[str],
            check: Callable[[], list[str]]) -> None:
        sink = io.StringIO()
        span = self.tracer.begin(f"stage.{stage}") if self.tracer else -1
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self._main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        if self.tracer:
            self.tracer.end(span)
        call = Call(stage, seconds, outputs, check)
        if code != 0:
            call.failures.append(f"{stage} exited {code}: {sink.getvalue().strip()[-500:]}")
        self.calls.append(call)

    def finish(self, check: bool) -> dict[str, str]:
        """Digest every artifact, keyed by file name; with ``check``, also
        run every output check."""
        digests = {}
        for call in self.calls:
            if call.failures:
                continue
            if check:
                call.failures.extend(call.check())
            for path in call.outputs:
                digests[os.path.basename(path)] = checks.sha256(path)
        return digests



def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def stage_seconds(passes: list[list[Call]]) -> dict[str, float]:
    """Each stage's time in a typical pass: the sum over the stage's calls
    of each call's median across passes.  Passes make the same calls in the
    same order, so call k of every pass is the same work."""
    totals: dict[str, float] = {}
    for slot in zip(*passes):
        stage = slot[0].stage
        totals[stage] = totals.get(stage, 0.0) + _median([c.seconds for c in slot])
    return totals


def measure(args: argparse.Namespace, inputs: workloads.Inputs, base: str) -> dict[str, Any]:
    import metacal.cli
    import metacal.io
    import metacal.objectives

    plan = plans.PLANS[args.workload]
    results: list[dict[str, Any]] = []
    failures: list[str] = []
    first_digests: dict[str, str] | None = None
    attempted = failed = 0
    references: list[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        pass_start = time.perf_counter()
        references.append(speed.reference_seconds())
        # Pass 0 warms up (lazy imports, allocator, file cache) and is the
        # checked pass; it is not timed.  Traced runs alternate untraced and
        # traced passes after it.
        traced = bool(args.trace) and len(results) > 0 and len(results) % 2 == 0
        tracer = tracing.Tracer() if traced else None
        checker = checks.Checker(metacal.io, metacal.objectives.kendall_tau, args.seed)
        p = Pass(metacal.cli.main, os.path.join(base, f"pass{len(results)}"), checker, tracer)
        if tracer:
            tracer.install()
        try:
            plan(p, inputs, args.seed, workloads.FULL)
        finally:
            if tracer:
                tracer.uninstall()
        # Later passes must reproduce pass 0 byte for byte, so checking pass
        # 0's outputs checks theirs too.
        digests = p.finish(check=first_digests is None)
        if first_digests is None:
            first_digests = digests
        for call in p.calls:
            changed = [o for o in call.outputs
                       if digests.get(os.path.basename(o)) != first_digests.get(os.path.basename(o))]
            if changed and not call.failures:
                call.failures.append(
                    f"{call.stage}: {', '.join(map(os.path.basename, changed))} differ from pass 0"
                    + (" (traced)" if traced else ""))
            attempted += 1
            failed += bool(call.failures)
            failures.extend(call.failures)
        results.append({
            "traced": traced,
            "calls": p.calls,
            "pipeline_s": sum(c.seconds for c in p.calls),
            "quality": statistics.fmean(checker.quality) if checker.quality else None,
            "layers": tracing.layer_metrics(tracer.spans) if tracer else None,
            "tracer": tracer,
        })
        shutil.rmtree(p.directory)
        now = time.perf_counter()
        kinds = {r["traced"] for r in results[1:]}
        if kinds >= ({False, True} if args.trace else {False}) and (
            (now - start) + (now - pass_start) > args.seconds
        ):
            break

    quality = results[0]["quality"]
    if quality is None:
        failures.append("no held-out quality: every evaluate call or its check failed")
    timed = results[1:]
    untraced = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"]]
    if args.trace:
        metrics = {
            name: (_median([r["layers"][name] for r in traced_runs]), unit)
            for name, unit in tracing.PER_LAYER
        }
        metrics["trace.overhead_s"] = (
            sum(stage_seconds([r["calls"] for r in traced_runs]).values())
            - sum(stage_seconds([r["calls"] for r in untraced]).values()), "s")
        trace_dir = os.path.join(args.root, ".bench_build", "perfbench")
        os.makedirs(trace_dir, exist_ok=True)
        traced_runs[0]["tracer"].dump(
            os.path.join(trace_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        stages = stage_seconds([r["calls"] for r in timed])
        metrics = {"pipeline_s": (sum(stages.values()), "s")}
        for stage in plans.STAGES:
            metrics[f"{stage}_s"] = (stages[stage], "s")
        metrics["heldout_quality"] = (quality, "ratio")
    factor = speed.NOMINAL_S / _median(references[1:])
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": len(timed),
        "traced_passes": len(traced_runs),
        "pass_seconds": [round(r["pipeline_s"], 4) for r in results],
        "reference_s": [round(r, 4) for r in references],
        "speed_factor": factor,
        "wall_metrics": {name: value for name, (value, unit) in metrics.items() if unit == "s"},
        "metrics": {name: (value * factor if unit == "s" else value, unit)
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(plans.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spawned = float(os.environ["PERFBENCH_SPAWNED"])

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import metacal
    import metacal.cli  # noqa: F401  (set-up ends once the CLI is importable)
    import numpy

    if not os.path.abspath(metacal.__file__).startswith(os.path.join(src, "")):
        print(f"metacal imported from {metacal.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = os.path.join(args.root, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    base = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        inputs = workloads.generate(
            args.workload, args.root, args.seed, os.path.join(base, "inputs"), workloads.FULL)
        setup_s = time.perf_counter() - spawned
        out: dict[str, Any] = {
            "setup_s": setup_s,
            "inputs": {name: checks.sha256(path) for name, path in sorted(inputs.files.items())},
            "numpy": numpy.__version__,
        }
        if not args.setup_only:
            out.update(measure(args, inputs, base))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
