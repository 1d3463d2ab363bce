"""FedSZ benchmark: one command, three workloads, end-to-end or per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload codec-resnet50 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fl-alexnet-2mbps --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare perfbench/out/a.jsonl perfbench/out/b.jsonl

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (and writes the spans as JSONL under ``perfbench/out/``).  The last
line of standard output of a run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when a
correctness check failed.  Each run also appends its result, with a
provenance header, to ``--results`` (default ``perfbench/out/results.jsonl``);
``--compare`` reads two such files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _require_program() -> None:
    """Put the program and the shared bench helpers on the import path."""
    missing = [p for p in (ROOT / "src" / "repro", ROOT / "benchmarks" / "bench_utils.py")
               if not p.exists()]
    if missing:
        print(f"perfbench: the program is not in this checkout: missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}", file=sys.stderr)
        sys.exit(2)
    for path in (ROOT / "benchmarks", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Host and build facts printed and stored next to every result."""
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": _git_commit(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace,
            "utc": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ")}


def _run(args: argparse.Namespace) -> int:
    _require_program()
    from layers import PER_LAYER
    from workloads import END_TO_END, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    header = provenance(args.workload, args.seed, args.seconds, args.trace)
    print("# provenance " + " ".join(f"{k}={v}" for k, v in header.items()))
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), OUT_DIR)
    units = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in units if name not in outcome.metrics]
    if missing:
        outcome.check("every metric measured", False, f"missing {missing}")

    for name, unit in units.items():
        if name in outcome.metrics:
            print(f"{name:34s} {outcome.metrics[name]:>16.6f} {unit}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'error_rate':34s} {error_rate:>16.6f} fraction "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    for key, value in outcome.info.items():
        print(f"# {key} = {value}")
    for name, ok, detail in outcome.checks:
        print(f"# check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    if outcome.tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write_jsonl(spans_path)
        print(f"# spans: {len(outcome.tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")

    result = {"correct": outcome.correct,
              "attempted": max(outcome.attempted, 1), "failed": outcome.failed,
              "metrics": {name: {"value": float(outcome.metrics[name]),
                                 "unit": unit}
                          for name, unit in units.items()
                          if name in outcome.metrics}}
    results_path = Path(args.results) if args.results else OUT_DIR / "results.jsonl"
    with open(results_path, "a", encoding="utf-8") as out:
        out.write(json.dumps({"provenance": header, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _bounds() -> dict:
    """``{metric: (better, bound)}`` from BENCHMARK.json, when present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m.get("bound")) for m in
            spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: each side's quartiles and P(B < A)."""
    from stats import quartiles, wmw_effect

    def load(path: str) -> dict:
        runs: dict = {}
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            key = (record["provenance"]["workload"], record["provenance"]["trace"])
            for name, metric in record["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
        return runs

    a, b = load(path_a), load(path_b)
    bounds = _bounds()
    worse = 0
    print(f"{'workload':18s} {'metric':30s} {'A median [q1, q3] n':>36s} "
          f"{'B median [q1, q3] n':>36s} {'P(B<A)':>7s} {'B/A-1':>8s}  verdict")
    for key in sorted(set(a) & set(b)):
        for name in a[key]:
            if name not in b[key]:
                continue
            va, vb = a[key][name], b[key][name]
            qa, qb = quartiles(va), quartiles(vb)
            change = qb[1] / qa[1] - 1.0 if qa[1] else 0.0
            better, bound = bounds.get(name, ("lower", None))
            loss = change if better == "lower" else -change
            verdict = "-" if bound is None else \
                ("WORSE" if loss > bound else f"within {bound:g}")
            worse += verdict == "WORSE"
            print(f"{key[0]:18s} {name:30s} "
                  f"{qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] {len(va):2d} "
                  f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {len(vb):2d} "
                  f"{wmw_effect(va, vb):7.3f} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="JSONL file the result is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
