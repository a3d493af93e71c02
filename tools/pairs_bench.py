"""Run the benchmark in alternating pairs of two checkouts and save the record.

Compares a parent and a change checkout, both clones side by side under one
parent directory:

    python tools/pairs_bench.py --parent ../parent --change ../change \\
        --control ../parent2 --pairs 10 --workload desk scale

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones.  With
``--control``, a second clone of the parent, ``AA_PAIRS`` parent/control
pairs are spread among the others; their ratios are the noise floor: a
change/parent reading inside their spread is noise, whatever its sign.
The record goes to ``bench/PAIRS_<label>.json`` of this checkout, one entry
per workload (``desk``, or ``desk-seed2`` at a seed other than 1), merged
into the file when it exists:

- ``parent``, ``change`` (and ``control.parent``, ``control.parent2``):
  per run, every end-to-end metric, ``failed``, the raw set-up median
  (``raw_setup_median``, unscaled seconds) and ``speed_factor``;
- ``summary``: per metric, each side's median and IQR (numpy's linear 75th
  minus 25th percentile), ``change_lower_in_pairs``,
  ``change_over_parent`` (ratio of medians) and, with a control, the A/A
  ratios ``aa_parent2_over_parent`` and their ``aa_range``.

Without ``--parent`` it saves one run of ``--change`` per workload, at
``--trace`` 0 or 1, as ``bench/BENCH_<label>-<workload>[-trace].json``: the
run's details line plus its result.

Every checkout must hold no ``__pycache__`` under ``src/``: a worker that
imports compiled metacal skips the compile the others pay in ``setup_s``.
The runs do not write bytecode.

``run_pairs`` alternates any measurement, ``measure(checkout) -> {name:
value}``, and ``record_pairs`` writes its entries in this layout;
``tools/quickstart_bench.py`` passes its own measurement to them, with the
checkout flags of ``checkout_parser`` checked by ``parse_checkouts``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1  # a workload at another seed is recorded as <workload>-seed<N>
AA_PAIRS = 2  # parent/control pairs per workload, with --control


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero or printed no result."""


def refusal(checkout: str) -> str | None:
    """Why `checkout` cannot be benchmarked, or None."""
    if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
        return f"{checkout} holds no perfbench/run.py"
    for dirpath, dirnames, _ in os.walk(os.path.join(checkout, "src")):
        if "__pycache__" in dirnames:
            return f"{os.path.join(dirpath, '__pycache__')} exists; remove it, or set-up times differ"
    return None


def short_sha(checkout: str) -> str:
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "--short=7", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run of `checkout`: its details line plus
    ``result``, its result line."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed(f"{checkout}: benchmark exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def sample(record: dict) -> dict[str, float]:
    """The values one run contributes to a pairs record."""
    result, details = record["result"], record["details"]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["failed"] = result["failed"]
    values["raw_setup_median"] = statistics.median(details["setup_samples"])
    values["speed_factor"] = details["speed_factor"]
    return {name: round(value, 6) for name, value in sorted(values.items())}


def _column(samples: list[dict[str, float]]) -> dict[str, list[float]]:
    return {name: [s[name] for s in samples] for name in samples[0]} if samples else {}


def _iqr(values: list[float]) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return round(float(q3 - q1), 6)


def _ratio(num: float, den: float) -> float | None:
    return round(num / den, 4) if den else None


def summarize(parent: list[dict], change: list[dict], control: list[tuple[dict, dict]]) -> dict:
    """Per metric: medians, IQRs and pair counts of the change against the
    parent, and the A/A ratios of the (parent, control) pairs."""
    summary = {}
    for name in parent[0]:
        if name == "failed":
            continue
        p, c = [s[name] for s in parent], [s[name] for s in change]
        entry = {
            "parent_median": round(statistics.median(p), 6), "parent_iqr": _iqr(p),
            "change_median": round(statistics.median(c), 6), "change_iqr": _iqr(c),
            "change_lower_in_pairs": sum(b < a for a, b in zip(p, c)),
        }
        entry["change_over_parent"] = _ratio(entry["change_median"], entry["parent_median"])
        if control:
            ratios = [_ratio(b[name], a[name]) for a, b in control]
            entry["aa_parent2_over_parent"] = ratios
            known = [r for r in ratios if r is not None]
            entry["aa_range"] = [min(known), max(known)] if known else None
        summary[name] = entry
    return summary


def schedule(pairs: int, aa_pairs: int) -> list[tuple[str, int]]:
    """The order of the session: ("change", i) pairs with ("control", j)
    pairs spread evenly among them."""
    order = []
    for i in range(pairs):
        order.append(("change", i))
        done, due = len(order) - i - 1, (i + 1) * aa_pairs // pairs
        order.extend(("control", j) for j in range(done, due))
    return order


def run_pairs(measure: Callable[[str], dict[str, float]], parent: str, change: str,
              control: str | None, pairs: int, tag: str) -> dict:
    """`measure` of `parent` and `change` in `pairs` alternating pairs, the
    parent first in even pairs, with ``AA_PAIRS`` parent/`control` pairs
    spread among them when `control` is given; as a pairs-record entry:
    each side's columns, their summary and the control's columns."""
    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    aa: list[tuple[dict, dict]] = []
    for kind, i in schedule(pairs, AA_PAIRS if control else 0):
        order = [("parent", parent), (kind, change if kind == "change" else control)]
        results = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            results[side] = measure(checkout)
            print(f"{tag} {kind} pair {i}: {side} {time.perf_counter() - start:.1f} s", file=sys.stderr)
        if kind == "change":
            sides["parent"].append(results["parent"])
            sides["change"].append(results["change"])
        else:
            aa.append((results["parent"], results["control"]))
    entry = {**{side: _column(s) for side, s in sides.items()},
             "summary": summarize(sides["parent"], sides["change"], aa)}
    if aa:
        entry["control"] = {"parent": _column([a for a, _ in aa]),
                            "parent2": _column([b for _, b in aa])}
    return entry


def checkout_parser(description: str) -> argparse.ArgumentParser:
    """A parser holding the checkout flags; `parse_checkouts` checks them."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--change", required=True, help="checkout under test")
    parser.add_argument("--parent", help="checkout to compare against")
    parser.add_argument("--control", help="a second clone of the parent, for A/A pairs")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs")
    parser.add_argument("--label", help="file-name part (default: the change's short sha)")
    return parser


def parse_checkouts(parser: argparse.ArgumentParser, parent_required: bool = True) -> argparse.Namespace:
    """`parser`'s arguments with the checkout flags checked and ``label``
    set; exits 2 on a bad flag or a refused checkout."""
    args = parser.parse_args()
    if args.label is not None and (not args.label or os.sep in args.label):
        parser.error("--label must be a non-empty file-name part")
    if args.parent is None and (parent_required or args.control is not None):
        parser.error("--parent is required" if parent_required else "--control needs --parent")
    if args.parent is not None and args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change, args.control):
        if checkout is not None and (reason := refusal(checkout)):
            parser.exit(2, f"refused: {reason}\n")
    args.label = args.label or short_sha(args.change)
    return args


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _print_summary(key: str, summary: dict) -> None:
    for name, s in summary.items():
        aa = f"  A/A {s['aa_range']}" if "aa_range" in s else ""
        print(f"{key:12} {name:24} {s['parent_median']:>10} -> {s['change_median']:<10} "
              f"x{s['change_over_parent']}  lower {s['change_lower_in_pairs']}{aa}")


def record_pairs(name: str, args: argparse.Namespace, measured: str,
                 measures: dict[str, Callable[[str], dict[str, float]]], **fields) -> int:
    """`run_pairs` of each measure in `measures`, merged with `fields` into
    entry ``workloads[key]`` of ``bench/<name>_<label>.json`` and written as
    each one finishes; `measured` says what a measure runs.  An existing
    record of another parent/change is refused (exit 2); a failed run ends
    the session (exit 1)."""
    path = os.path.join(ROOT, "bench", f"{name}_{args.label}.json")
    head = {"parent": short_sha(args.parent), "change": short_sha(args.change)}
    record = {**head, "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if {k: record.get(k) for k in head} != head:
            print(f"refused: {path} records another parent/change", file=sys.stderr)
            return 2
    record["what"] = (
        f"{measured} in alternating pairs, the parent first in even pairs and the change first in "
        "odd ones; A/A pairs (the parent against a second clone of it, `control`) spread among them "
        "where recorded. Clones side by side with no __pycache__, no bytecode written. Written by "
        f"tools/{os.path.basename(sys.argv[0])}.")
    try:
        for key, measure in measures.items():
            entry = run_pairs(measure, args.parent, args.change, args.control, args.pairs, key)
            record["workloads"][key] = {**fields, **entry}
            _write_json(path, record)
            _print_summary(key, entry["summary"])
    except RunFailed as exc:
        print(f"{exc}; the record holds only the workloads finished before", file=sys.stderr)
        return 1
    print(path)
    return 0


def main() -> int:
    parser = checkout_parser(__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=("desk", "scale", "prefs"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="single runs only")
    args = parse_checkouts(parser, parent_required=False)
    if args.parent is not None and args.trace:
        parser.error("pairs run at --trace 0")

    if args.parent is None:
        try:
            for workload in args.workload:
                record = run_once(args.change, workload, args.seed, args.seconds, args.trace)
                path = os.path.join(ROOT, "bench", f"BENCH_{args.label}-{workload}{'-trace' * args.trace}.json")
                _write_json(path, record)
                print(path)
        except RunFailed as exc:
            print(f"{exc}; the record holds only the workloads finished before", file=sys.stderr)
            return 1
        return 0
    measures = {
        workload if args.seed == DEFAULT_SEED else f"{workload}-seed{args.seed}":
            lambda checkout, workload=workload: sample(run_once(checkout, workload, args.seed, args.seconds, 0))
        for workload in args.workload}
    return record_pairs("PAIRS", args, f"perfbench/run.py --seconds {args.seconds} --trace 0", measures,
                        seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
