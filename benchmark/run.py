"""Benchmark of the mwl command line, one workload per run.

    python3 benchmark/run.py --workload verify --seed 1 --seconds 20 --trace 0

Writes the workload's inputs for the seed, then runs whole rounds of
operations through `mwl.cli.main` in a worker process, one at a time (one
client, closed loop), until the operations have taken --seconds. Set-up
time is sampled between operations, spread evenly over the run. Every
output is checked against the independent references in `reference.py`.
The last line of stdout is one JSON object: whether the outputs were
correct, operations attempted and failed, and the metrics BENCHMARK.json
lists: end-to-end ones with --trace 0, per-layer ones from
spans around mwl's functions with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 20
WORKER_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Time from starting a fresh interpreter until `import mwl.cli` returns."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mwl.cli"], env=child_env(), check=True, capture_output=True)
    return time.perf_counter() - t0


class Worker:
    """A worker.py process answering one operation at a time."""

    def __init__(self, trace: bool):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
        )

    def call(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()} during {argv[:3]}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_fresh(argv: list[str], trace: bool) -> dict:
    """One operation in its own interpreter, timed from start to exit."""
    t0 = time.perf_counter()
    worker = Worker(trace)
    try:
        answer = worker.call(argv)
    finally:
        worker.close()
    # the traced worker's time computing work counts is the benchmark's, not mwl's
    answer["seconds"] = time.perf_counter() - t0 - answer.get("trace_s", 0.0)
    return answer


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    fresh = workloads.WORKLOADS[name][1]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    worker = None
    try:
        pool = workloads.build(name, seed, workdir)
        measure_setup()  # writes bytecode
        setup_times: list[float] = []

        def sample_setup(elapsed: float) -> None:
            while len(setup_times) < SETUP_SAMPLES and elapsed >= len(setup_times) * seconds / SETUP_SAMPLES:
                setup_times.append(measure_setup())

        if not fresh:
            worker = Worker(trace)
        slot_times: list[list[float]] = [[] for _ in pool[0]]
        failed = 0
        wrong: list[str] = []
        maxrss_kb = 0
        layers: dict[str, float] = defaultdict(float)
        notes: set[str] = set()
        rounds = attempted = 0
        elapsed = 0.0
        while elapsed < seconds:
            for slot, op in enumerate(pool[rounds % len(pool)]):
                for _ in range(op.repeats):
                    sample_setup(elapsed)
                    answer = run_fresh(op.argv, trace) if fresh else worker.call(op.argv)
                    attempted += 1
                    slot_times[slot].append(answer["seconds"])
                    elapsed += answer["seconds"]
                    if rounds == 0:
                        maxrss_kb = max(maxrss_kb, answer["maxrss_kb"])
                    for key, value in answer.get("layers", {}).items():
                        layers[key] += value
                    notes.update(answer.get("notes", []))
                    try:
                        problem = op.check(answer)
                    except (ValueError, IndexError) as exc:
                        problem = f"unreadable output: {exc}"
                    if problem:
                        failed += 1
                        if not op.known_fault:
                            wrong.append(f"{' '.join(op.argv)[:160]}: {problem}")
            rounds += 1
        sample_setup(elapsed)
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    # Each slot's median over the rounds is its latency in a typical round;
    # medians keep bursts of load from other processes out of the figures.
    typical = sorted(statistics.median(times) for times in slot_times)
    ops_per_s = len(typical) / sum(typical)
    if trace:
        metrics = tracing.summarise(layers, rounds)
        total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"traced: {rounds} rounds of {len(typical)} ops, ops_per_s={ops_per_s:.4f}")
        for key in sorted(metrics, key=lambda k: -metrics[k]):
            if key.endswith(".self_s"):
                print(f"  {key:<28} {metrics[key]:10.4f} s/round  {100 * metrics[key] / total:5.1f}%")
        for note in sorted(notes):
            print(f"note: {note}")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(typical),
            "op_p90_s": statistics.quantiles(typical, n=10, method="inclusive")[8],
            "peak_rss_mb": maxrss_kb / 1024,
        }
        wanted = spec["end_to_end"]
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
