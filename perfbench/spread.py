"""Figures behind perfbench/README.md: run-to-run spread and host noise.

Run from the root of a checkout:

    python3 perfbench/spread.py sets --sets 2 --runs 10 --seconds 60
    python3 perfbench/spread.py trace --seed 7 --seconds 60
    python3 perfbench/spread.py noise --seconds 40
    python3 perfbench/spread.py shares --seed 7
    python3 perfbench/spread.py statistic

`sets` makes each set of runs on every workload, one run per seed (set s,
run i uses seed 100 s + i + 1), interleaving the workloads, and prints for
every end-to-end metric the median, the quartiles
(`statistics.quantiles(n=4)`) and their distance as a share of the median.
`trace` prints every per-layer metric of one traced run per workload.
`noise` times back-to-back blocks of 200 single-thread 405 x 405 FFTs, the
accumulator's transform, and prints how the host's speed wanders.
`shares` makes one traced `desk` round at the workload's counts and one at
the reference run's (`RunConfig()` defaults, ~2 min), and prints each
phase's share of the round beside each other.
`statistic` reads the plain runs in perfbench/results/ and prints, per
workload and set, the spread that each statistic over a run's rounds
(minimum, median, mean) would have given the time metrics.
Raw figures go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PHASES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summary(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {(q3 - q1) / q2:6.3f}"


def sets(args) -> dict:
    results: dict = {}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in args.workloads:
                r = bench(w, 100 * s + i + 1, args.seconds, 0)
                results.setdefault(w, {}).setdefault(s, []).append(r)
    for w, by_set in results.items():
        for s, runs in by_set.items():
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{w} set {s}: {len(runs)} runs, {attempted} operations, {failed} failed, "
                  f"correct {all(r['correct'] for r in runs)}")
            for key in runs[0]["metrics"]:
                print(f"  {key:12s} {summary([r['metrics'][key]['value'] for r in runs])}")
    return results


def trace(args) -> dict:
    results = {w: bench(w, args.seed, args.seconds, 1) for w in args.workloads}
    for w, r in results.items():
        print(f"{w}: correct {r['correct']}, {r['attempted']} operations, {r['failed']} failed")
        for key, m in r["metrics"].items():
            print(f"  {key:34s} {m['value']:14.4f} {m['unit']}")
    return results


def noise(args) -> dict:
    import numpy as np
    from scipy import fft
    x = np.random.default_rng(0).random((201, 201))
    wall, cpu = [], []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(200):
            fft.rfft2(x, s=(405, 405), workers=1)
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    w = np.asarray(wall)
    lag1 = float(np.corrcoef(w[:-1], w[1:])[0, 1])
    print(f"{w.size} blocks: wall min {w.min():.3f} median {np.median(w):.3f} max {w.max():.3f} s, "
          f"cv {w.std() / w.mean():.3f}, lag-1 autocorrelation {lag1:.2f}, "
          f"cpu/wall {sum(cpu) / sum(wall):.3f}")
    return {"wall": wall, "cpu": cpu}


def traced_round(seed: int, reference: bool) -> dict:
    work = HERE / "runs" / f"shares-{seed}-{int(reference)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "round.py"), "--workload", "desk",
                        "--seed", str(seed), "--dir", str(work), "--trace"]
                       + (["--reference"] if reference else []), check=True)
        return json.loads((work / "round.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def shares(args) -> dict:
    rounds = {"desk": traced_round(args.seed, False), "reference": traced_round(args.seed, True)}
    rows: dict = {}
    for scale, r in rounds.items():
        marks = r["marks"]
        spans = {name: marks[b][0] - marks[a][0] for name, a, b in PHASES}
        spans["report"] = marks["written"][0] - marks["analyzed"][0]
        for name, seconds in spans.items():
            rows.setdefault(f"{name} phase / wall_s", {})[scale] = (seconds, seconds / r["wall_s"])
        bootstrap = r["layers"]["inference.bootstrap_s"][0]
        rows.setdefault("bootstrap / analyze_s", {})[scale] = (bootstrap, bootstrap / r["analyze_s"])
        fixed = r["simulate_fixed_s"]
        rows.setdefault("simulate_fixed / simulate_s", {})[scale] = (fixed, fixed / r["simulate_s"])
        rows.setdefault("wall_s", {})[scale] = (r["wall_s"], 1.0)
    print(f"{'':30s} {'desk':>18s} {'reference':>18s}")
    for row, by in rows.items():
        cells = "".join(f" {by[s][0]:9.3f} s {by[s][1]:5.1%}" for s in rounds)
        print(f"{row:30s}{cells}")
    return {"rounds": {s: {k: v for k, v in r.items() if k != "config"}
                       for s, r in rounds.items()}, "rows": rows}


def statistic(args) -> dict:
    by_set: dict = {}
    for path in sorted((HERE / "results").glob("*-trace0-*.json")):
        record = json.loads(path.read_text())
        rounds = [r for r in record["rounds"] if "wall_s" in r and not r["traced"]]
        key = (record["args"]["workload"], record["args"]["seed"] // 100)
        by_set.setdefault(key, []).append(rounds)
    out = {}
    for (w, s), runs in sorted(by_set.items()):
        for metric in ("wall_s", "simulate_s", "analyze_s"):
            row = {}
            for name, fn in (("min", min), ("median", statistics.median),
                             ("mean", statistics.fmean)):
                q1, q2, q3 = statistics.quantiles([fn(r[metric] for r in rounds)
                                                   for rounds in runs], n=4)
                row[name] = (q3 - q1) / q2
            out[f"{w} set {s} {metric}"] = row
            print(f"{w:7s} set {s} {metric:11s} {len(runs):3d} runs  "
                  + "  ".join(f"{k} {v:.3f}" for k, v in row.items()))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("sets", "trace", "noise", "shares", "statistic"))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    out = {"sets": sets, "trace": trace, "noise": noise, "shares": shares,
           "statistic": statistic}[args.what](args)
    (HERE / "results").mkdir(exist_ok=True)
    name = f"spread-{args.what}-{int(time.time())}.json"
    (HERE / "results" / name).write_text(json.dumps({"args": vars(args), "results": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
