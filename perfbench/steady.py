#!/usr/bin/env python3
"""Steadiness check for the benchmark: repeat runs and compare sets of runs.

    python3 perfbench/steady.py run --seeds 1-10 --out perfbench/.out/a.json
    python3 perfbench/steady.py run --seeds 11-20 --out perfbench/.out/b.json
    python3 perfbench/steady.py compare perfbench/.out/a.json perfbench/.out/b.json

``run`` runs every workload in BENCHMARK.json once per seed for its
``run_seconds``, one run at a time, and prints the median and quartiles of
every end-to-end metric with its spread: the interquartile distance as a share
of the median. A spread above a third of the metric's bound is flagged "wide",
above the bound "FAIL". ``compare`` treats the two sets as runs of the same
code: each metric's median may move by at most its bound, in either
direction, each set's spreads must stay within the bounds, and both sets
must fail the same share of their scenarios. Bounds come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

RUN_TIMEOUT_S = 900


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread_verdict(spread: float, bound: float) -> str:
    if spread > bound:
        return "FAIL"
    return "wide" if spread > bound / 3.0 else "ok"


def summarize(spec: dict, workload: str, values: dict[str, list[float]]) -> bool:
    """Print one workload's table; False if a spread exceeds its bound."""
    fine = True
    print(f"{workload}  ({len(next(iter(values.values())))} runs)")
    print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, med, q3 = stats.quartiles(values[name])
        spread = stats.relative_spread(values[name])
        verdict = spread_verdict(spread, metric["bound"])
        fine &= verdict != "FAIL"
        print(f"  {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {metric['bound']:>6}  {verdict}")
    return fine


def cmd_run(args) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)
    result = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    fine = True
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = []
        for seed in seeds:
            out = run_once(spec, workload, seed, seconds)
            for name in values:
                values[name].append(out["metrics"][name]["value"])
            failed.append((out["failed"], out["attempted"], out["correct"]))
            print(f"  {workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
                  + f" failed={out['failed']}/{out['attempted']} correct={out['correct']}", flush=True)
        result["workloads"][workload] = {"metrics": values, "failed": failed}
        fine &= summarize(spec, workload, values)
        ratios = sorted({f / a for f, a, _ in failed})
        print(f"  {'failed_ratio':<20} {failed_share(failed):>12.6g}   (per run: {', '.join(f'{r:.6g}' for r in ratios)};"
              f" correct in {sum(c for _, _, c in failed)} of {len(failed)} runs)")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1))
    return 0 if fine else 1


def failed_share(failed: list) -> float:
    """Failed over attempted scenarios of a whole set of runs."""
    return sum(f for f, _, _ in failed) / sum(a for _, a, _ in failed)


def cmd_compare(args) -> int:
    spec = benchmark_spec()
    first = json.loads(Path(args.first).read_text())["workloads"]
    second = json.loads(Path(args.second).read_text())["workloads"]
    fine = True
    for workload in sorted(first.keys() & second.keys()):
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[workload]["metrics"][name], second[workload]["metrics"][name]
            med_a, med_b = stats.quartiles(a)[1], stats.quartiles(b)[1]
            moved = (med_b - med_a) / med_a
            spreads = [stats.relative_spread(a), stats.relative_spread(b)]
            bad = abs(moved) > bound or max(spreads) > bound
            fine &= not bad
            print(f"  {name:<20} {med_a:>12.6g} -> {med_b:>12.6g}  moved {moved:+.4f} (bound {bound})"
                  f"  spreads {spreads[0]:.4f}, {spreads[1]:.4f}  {'FAIL' if bad else 'ok'}")
        share_a, share_b = failed_share(first[workload]["failed"]), failed_share(second[workload]["failed"])
        fine &= share_a == share_b
        print(f"  {'failed_ratio':<20} {share_a:>12.6g} -> {share_b:>12.6g}  {'ok' if share_a == share_b else 'FAIL'}")
    return 0 if fine else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="repeat runs and summarize each workload")
    run.add_argument("--seeds", default="1-10", help="seed range a-b (default 1-10)")
    run.add_argument("--out", help="write the raw values here as JSON")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="compare two saved sets of runs against the bounds")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
