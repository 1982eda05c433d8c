#!/usr/bin/env python3
"""Run one benchmark workload against spinphase and print its metrics.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process drives one closed-loop client: each scenario starts
when the previous one has returned. With ``--trace 0`` the scenarios run
untraced in whole passes over the scenario list for up to ``--seconds`` and
the end-to-end metrics are reported; with ``--trace 1`` whole passes run
untraced for about half that time, then one pass runs with spans recorded
around every public layer function, and the per-layer metrics are reported. Every output is checked by
an oracle. A human-readable table comes first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import oracles, stats, tracer, workloads  # noqa: E402

#: Set-ups timed per run (this process plus fresh interpreters); the median is reported.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, or the tracer lost coverage)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print the seconds and exit (used for set-up samples)")
    return parser.parse_args(argv)


def import_package():
    if not (SRC / "spinphase" / "__init__.py").is_file():
        raise BenchmarkError(f"no spinphase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("spinphase")
    for layer in tracer.LAYERS:
        importlib.import_module(f"spinphase.{layer}")
    if Path(package.__file__).resolve().parent != SRC / "spinphase":
        raise BenchmarkError(f"imported spinphase from {package.__file__}, not from {SRC}")
    return package


def set_up(workload: str, seed: int, workdir: Path):
    """Import spinphase, generate the inputs and run one warm-up scenario.

    Returns (seconds taken, package, specs, ops).
    """
    start = time.perf_counter()
    api = import_package()
    specs = workloads.generate(workload, seed)
    ops = workloads.materialize(specs, workdir)
    ops[0].prepare()
    ops[0].run(api)
    return time.perf_counter() - start, api, specs, ops


def probe_set_up(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Ledger:
    """Every scenario execution, with the first output of each scenario."""

    def __init__(self):
        self.latencies: list[float] = []
        self.executions: list[tuple[int, str | None]] = []
        self.first: dict[int, object] = {}
        self.nondeterministic: set[int] = set()

    def run(self, api, index: int, op) -> None:
        op.prepare()
        start = time.perf_counter()
        try:
            output = op.run(api)
        except Exception as exc:  # a scenario that raises is a failed scenario, not a benchmark crash
            self.latencies.append(time.perf_counter() - start)
            self.executions.append((index, f"raised {type(exc).__name__}"))
            return
        self.latencies.append(time.perf_counter() - start)
        self.executions.append((index, None))
        first = self.first.setdefault(index, output)
        if output != first:
            self.nondeterministic.add(index)

    def judge(self, specs) -> tuple[list[bool], Counter, dict[int, list[str]]]:
        """Whether each execution failed, failure reasons by count, and the
        oracle problems of each scenario."""
        problems = {}
        for index in sorted(self.first):
            found = oracles.check_op(specs, index, self.first)
            if index in self.nondeterministic:
                found.append("output differs between runs of the same config")
            if found:
                problems[index] = found
        flags = []
        reasons = Counter()
        for index, error in self.executions:
            if error is None and index in problems:
                error = "wrong output"
            flags.append(error is not None)
            if error is not None:
                reasons[f"{error} ({_label(specs[index])})"] += 1
        return flags, reasons, problems


def _label(spec: dict) -> str:
    if spec["kind"] == "velocity":
        return "velocity"
    check = spec["check"]
    return f"reject:{check['rejection']}" if check["mode"] == "reject" else check["mode"]


def time_by_kind(specs, ledger: Ledger) -> list[tuple[str, float, int]]:
    """(scenario kind, share of the summed scenario wall time, executions),
    largest share first."""
    spent, runs = Counter(), Counter()
    for (index, _), latency in zip(ledger.executions, ledger.latencies):
        spec = specs[index]
        kind = "velocity" if spec["kind"] == "velocity" else spec["check"]["mode"]
        spent[kind] += latency
        runs[kind] += 1
    total = sum(spent.values())
    return [(kind, t / total, runs[kind]) for kind, t in spent.most_common()]


def rerun_sample(api, specs, ops, ledger: Ledger, seed: int) -> None:
    """Re-run one seeded choice of completed CLI scenario and require identical
    output. The re-run is not one of the attempted scenarios."""
    candidates = [i for i in sorted(ledger.first) if specs[i]["kind"] == "cli" and specs[i]["expect"] == 0]
    if candidates:
        index = random.Random(seed).choice(candidates)
        ops[index].prepare()
        try:
            same = ops[index].run(api) == ledger.first[index]
        except Exception:
            same = False
        if not same:
            ledger.nondeterministic.add(index)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_untraced(args, api, ops):
    """Whole passes over the scenario list while another pass as long as the
    last one still fits in ``--seconds`` (at least one pass).

    Every run thus covers the whole design equally often, and a workload
    whose scenarios fail at a fixed share of each pass reports that same
    share on every run.
    """
    ledger = Ledger()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            ledger.run(api, i, op)
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ledger, wall, cpu, peak_rss_mb


def end_to_end(args, setup_s, api, specs, ops):
    ledger, wall, cpu, peak_rss_mb = run_untraced(args, api, ops)
    n = len(ledger.executions)
    rerun_sample(api, specs, ops, ledger, args.seed)
    setups = [setup_s] + [probe_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    latencies_ms = [t * 1e3 for t in ledger.latencies]
    p, tail_ms, beyond = stats.tail(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms", f"n={n}"),
        "latency_tail_ms": (tail_ms, "ms", f"p{p:g}, {beyond} samples beyond, n={n}"),
        "scenarios_per_s": (n / wall, "1/s", f"{n} completed (returned or raised) in {wall:.3f} s"),
        "cpu_s_per_scenario": (cpu / n, "s", f"{cpu:.3f} s user+sys over {n} scenarios"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    return ledger, metrics


def per_layer(args, api, ops):
    ledger = Ledger()
    pass_walls = []

    def untraced_pass():
        start = time.perf_counter()
        for i, op in enumerate(ops):
            ledger.run(api, i, op)
        pass_walls.append(time.perf_counter() - start)

    budget_end = time.perf_counter() + args.seconds / 2.0
    while not pass_walls or time.perf_counter() < budget_end:
        untraced_pass()

    with tracer.Tracer(api) as tr:
        uncovered = tr.uncovered()
        if uncovered:
            raise BenchmarkError("traced functions reachable without a span: " + "; ".join(uncovered))
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tr.op = i
            ledger.run(api, i, op)
        traced_wall = time.perf_counter() - start
    untraced_pass()  # brackets the traced pass, so drift in machine speed shows in both
    untraced_wall = statistics.median(pass_walls)
    spans = tr.spans()
    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"trace-{args.workload}.npz")  # one file per workload, replaced by the next run

    values, removed = tracer.layer_metrics(spans, len(ops), int(traced_wall * 1e9), tr.span_cost)
    metrics = {}
    for name, value in values.items():
        unit = "ms" if name.endswith("_ms_per_op") else "ratio" if name.endswith("_share") else "count"
        note = ""
        if name.endswith("_ms_per_op"):
            note = f"tracer cost {removed[name.split('.')[0]]:.4g} ms/op removed"
        elif name.endswith("_share"):
            note = "of traced wall time less tracer cost"
        metrics[name] = (value, unit, note)
    for name in tracer.WORK_COUNTS:
        metrics[name] = (tr.counts[name], "count", "computed")
    metrics["trace.overhead_ratio"] = (
        traced_wall / untraced_wall, "ratio",
        f"traced pass {traced_wall:.3f} s / median untraced pass {untraced_wall:.3f} s over {len(pass_walls)} passes;"
        f" calibrated tracer cost per span {tr.span_cost.outside_ns:.0f} ns in the caller,"
        f" {tr.span_cost.inside_ns:.0f} ns in the span",
    )
    return ledger, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, api, specs, ops = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            ledger, metrics = per_layer(args, api, ops)
        else:
            ledger, metrics = end_to_end(args, setup_s, api, specs, ops)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flags, reasons, problems = ledger.judge(specs)
    attempted, failed = len(flags), sum(flags)
    if not args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scenarios {len(ops)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    if not args.trace:  # the traced pass would skew the shares toward layers with many calls
        for kind, share, runs in time_by_kind(specs, ledger):
            print(f"  time share {kind:<33} {share:>14.4f}        {runs} runs")
    for reason, count in sorted(reasons.items()):
        print(f"  failed: {count} x {reason}")
    for index, found in sorted(problems.items()):
        print(f"  oracle: scenario {index}: {'; '.join(found[:3])}")
    reported = {m["name"] for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not ledger.nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                    if name in reported},
    }
    print(json.dumps(result))
    return 0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
