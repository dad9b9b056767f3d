"""Benchmark of the bpcam pipeline, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

A run makes whole rounds of its workload (`round.py`, one fresh
interpreter each, all on the run's seed) until the next round would end
after `--seconds`; each round also times its own set-up.  It checks the
outputs apart from the program (`checks.py`) and prints, as its last
line, one JSON object: `correct`, the operations `attempted` and `failed`
(every pipeline call and every check is one), and the metrics: the
end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
The full record, with the machine's state around every round, goes to
perfbench/results/.  See perfbench/README.md for the workloads, metrics
and statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
#: the pipeline calls of one round
CALLS = ("simulate", "analyze", "write_report")
#: the phases of a traced round: name, opening mark, closing mark
PHASES = (("dark", "start", "dark_done"), ("plane", "dark_done", "simulated"),
          ("accumulate", "simulated", "accumulated"), ("inference", "accumulated", "analyzed"))
END_TO_END = {"wall_s": "s", "simulate_s": "s", "analyze_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "disk_mb": "MB"}


def host_state() -> dict:
    """Load averages and the steal ticks summed over all CPUs."""
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(v) for v in fh.read().split()[:3]]
    with open("/proc/stat", encoding="ascii") as fh:
        cpu = fh.readline().split()
    return {"loadavg": load, "steal_ticks": int(cpu[8])}


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def child(args: list, deadline: float) -> tuple[int, str]:
    """Run round.py in its own session; kill the whole group at the deadline."""
    proc = subprocess.Popen([sys.executable, str(HERE / "round.py"), *args],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += "\nround killed at the run's deadline"
    return proc.returncode, err


class Run:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.work = HERE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.ops: list = []  # (name, error or None)
        self.setup: list = []
        self.rounds: list = []

    def op(self, name: str, error: str | None) -> None:
        self.ops.append((name, error))
        if error:
            print(f"FAILED {name}: {error}", file=sys.stderr)

    def round(self, traced: bool) -> None:
        work = self.work / f"round{len(self.rounds)}"
        work.mkdir(parents=True)
        before = host_state()
        t0 = time.monotonic()
        argv = ["--workload", self.args.workload, "--seed", str(self.args.seed),
                "--dir", str(work)] + (["--trace"] if traced else [])
        code, err = child(argv, self.deadline)
        record = {"dir": work, "traced": traced, "seconds": time.monotonic() - t0,
                  "host_before": before, "host_after": host_state()}
        self.rounds.append(record)
        if code != 0 or not (work / "round.json").exists():
            for call in CALLS:
                self.op(call, f"round exited with {code}: {err.strip()[-500:]}")
            return
        record.update(json.loads((work / "round.json").read_text()))
        self.setup.append(record["ready"] - t0)
        for call in CALLS:
            self.op(call, None)

    def measure(self) -> None:
        traced = [False, True] if self.args.trace else [False]
        longest = 0.0
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            for t in traced:
                self.round(t)
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if elapsed + longest > self.args.seconds or time.monotonic() + longest > self.deadline:
                break

    def check(self) -> None:
        done = [r for r in self.rounds if "wall_s" in r]
        if not done:
            return
        first = done[0]
        config = first["config"]
        for name, error in checks.check_round(first["dir"], self.spec, config):
            self.op(name, error)
        reference = checks.fingerprint(first["dir"])
        for r in done[1:]:
            same = checks.fingerprint(r["dir"]) == reference
            self.op("same_outputs", None if same else
                    f"round in {r['dir'].name} differs from the first on the same seed")
            if r["traced"]:
                for name, error in checks.check_rerun(r["dir"], config, r["rerun_frames"]):
                    self.op(name, error)

    def end_to_end(self) -> dict:
        done = [r for r in self.rounds if "wall_s" in r and not r["traced"]]
        m = {key: statistics.median(r[key] for r in done)
             for key in ("wall_s", "simulate_s", "analyze_s")}
        m["setup_s"] = statistics.median(self.setup)
        m["peak_rss_mb"] = max(r["peak_rss_mb"] for r in done)
        m["disk_mb"] = done[0]["disk_mb"]
        return {key: {"value": value, "unit": END_TO_END[key]} for key, value in m.items()}

    def per_layer(self) -> dict:
        plain = [r for r in self.rounds if "wall_s" in r and not r["traced"]]
        traced = [r for r in self.rounds if "wall_s" in r and r["traced"]]
        # one traced round, the one of median wall time
        r = sorted(traced, key=lambda x: x["wall_s"])[(len(traced) - 1) // 2]
        marks = r["marks"]
        m = {key: (value, unit) for key, (value, unit) in r["layers"].items()}
        for name, a, b in PHASES:
            wall = marks[b][0] - marks[a][0]
            m[f"pipeline.{name}_phase_s"] = (wall, "s")
            m[f"pipeline.{name}_cpu_per_wall"] = ((marks[b][1] - marks[a][1]) / wall, "cores")
        m["pipeline.simulate_fixed_s"] = (r["simulate_fixed_s"], "s")
        m["pipeline.cpu_s"] = (marks["written"][1] - marks["start"][1], "s")
        m["report.write_s"] = (marks["written"][0] - marks["analyzed"][0], "s")
        m["trace.wall_s"] = (r["wall_s"], "s")
        m["trace.overhead_s"] = (r["wall_s"] - statistics.median(x["wall_s"] for x in plain), "s")
        return {key: {"value": value, "unit": unit} for key, (value, unit) in m.items()}

    def result(self) -> dict:
        metrics = {}
        kinds = {r["traced"] for r in self.rounds if "wall_s" in r}
        if kinds >= {False, bool(self.args.trace)}:
            metrics = self.per_layer() if self.args.trace else self.end_to_end()
        failed = sum(1 for _, e in self.ops if e)
        # a crashed round is a fault of the program, like a failed check; and
        # with no finished round no check ran, so nothing was shown correct
        finished = any("wall_s" in r for r in self.rounds)
        return {"correct": finished and failed == 0,
                "attempted": len(self.ops), "failed": failed, "metrics": metrics}

    def save(self, result: dict) -> None:
        out = HERE / "results"
        out.mkdir(exist_ok=True)
        rounds = [{k: (str(v) if k == "dir" else v) for k, v in r.items()
                   if k not in ("config", "marks")} for r in self.rounds]
        record = {"args": vars(self.args), "machine": machine(), "setup_s": self.setup,
                  "rounds": rounds, "ops": self.ops, "result": result}
        name = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}-{int(time.time())}"
        (out / f"{name}.json").write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (HERE.parent / "src" / "bpcam" / "__init__.py").is_file():
        print("run from the root of a bpcam checkout: src/bpcam is missing", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        run.measure()
        run.check()
        result = run.result()
        run.save(result)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
