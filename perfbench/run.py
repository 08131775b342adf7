"""Layered solve benchmark for mapfkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # each workload in its own process

Each workload is a closed loop with one client: it solves its instances one
after another from this process with `runtime.solve`, and each solve is one
operation.  A run repeats whole rounds (every instance once, in an order
drawn from --seed) while another round fits in --seconds, and reports
per-round sums as medians over the rounds.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
wraps the solver's public functions (see tracer.py) and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up takes 0.04-0.4 s, and the host switches between speeds 1.45x apart
# every few seconds to minutes.  Timings from one stretch of a run snap to
# one of the two speeds, so set-up is timed all through the run, like the
# solves: after one untimed warm-up, twice before the first solve and then
# for SETUP_SLICE s (at least once) after every solve.  Each round's mean
# set-up time is one row; setup_s is the median over the rounds.
SETUP_SLICE = 0.15
SOLVE_TIMEOUT = 60.0     # a stuck solve fails the operation well inside a run


@dataclass(frozen=True)
class Spec:
    """One generated instance and the tile size it is solved with."""
    width: int
    height: int
    agents: int
    density: float
    seed: int
    dx: int = 8
    dy: int = 8

    def label(self) -> str:
        return (f"{self.width}x{self.height}/{self.agents} d={self.density} "
                f"seed={self.seed} tiles={self.dx}x{self.dy}")


# The instances are fixed so that runs stay comparable: their cost differs
# by orders of magnitude between generator seeds (README.md).  --seed only
# orders them within each round.
WORKLOADS = {
    # Criterion-2 matrix of tests/test_acceptance.py: movement planning and
    # its fallback tiers, above all on 24x24/120.
    "matrix-24": tuple([Spec(24, 24, n, 0.0, 11) for n in (23, 46, 69, 92, 120)]
                       + [Spec(48, 48, 92, 0.0, 11)]),
    # two 12x24 tiles: one assign_borders branch-and-bound per instance
    # dominates, movement planning is small, two threads only.
    "wide-tiles": tuple(Spec(24, 24, 28, 0.0, s, 12, 24) for s in (5, 8, 11, 12, 15)),
    # 64x64/300 on 8x8 tiles (64 threads) is left out: the same code gave
    # solve_s medians of 11.5 s and 15.1 s in two sets of ten runs, because
    # its wall time follows how fast the host wakes the second CPU (README.md).
}

END_TO_END = {"solve_s": "s", "setup_s": "s", "cpu_s": "s",
              "makespan": "steps", "moves": "count", "peak_rss_mb": "MB"}


def import_mapfkit() -> None:
    """Put this checkout's src/ first on the path and make sure mapfkit
    comes from there."""
    if not (SRC / "mapfkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no solver source at {SRC}")
    sys.path.insert(0, str(SRC))
    import mapfkit
    if Path(mapfkit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: mapfkit imported from {mapfkit.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def set_up(specs):
    """Generate and parse every instance once; returns (texts, problems)."""
    from mapfkit import cli, model
    texts = [cli.generate_instance(s.width, s.height, s.agents, s.density,
                                   s.seed, solvable=True) for s in specs]
    return texts, [model.parse_grid(t) for t in texts]


def time_set_up(specs, tracer, times: list, layers: list, seconds: float = 0.0):
    """Time set_up at least once and until `seconds` have gone by; returns
    the time spent and the last (texts, problems)."""
    spent = 0.0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        made = set_up(specs)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        if tracer:
            from tracer import SETUP_LAYERS
            layers.append(tracer.take(SETUP_LAYERS))
        if spent >= seconds:
            return spent, made


def solve_one(spec: Spec, problem, tracer):
    """One operation: (wall s, CPU s of all threads, result)."""
    from mapfkit import runtime
    config = runtime.RunConfig(dx=spec.dx, dy=spec.dy, timeout=SOLVE_TIMEOUT)
    gc.collect()
    c0, w0 = time.process_time(), time.perf_counter()
    if tracer:
        result = tracer.solve(runtime.solve, problem, config)
    else:
        result = runtime.solve(problem, config)
    return time.perf_counter() - w0, time.process_time() - c0, result


def wrong_answer(inst, problem, solution) -> list[str]:
    paths = {a: [problem.coords[n] for n in p] for a, p in solution.paths.items()}
    return checker.check(inst, paths, solution.makespan, solution.moves)


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r.get(key, 0) for r in rows)


def run(args) -> int:
    import_mapfkit()
    OUT.mkdir(exist_ok=True)
    specs = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    set_up(specs)                  # warm-up: first imports, first allocations
    if tracer:
        tracer.take()
    setup_times, setup_layers = [], []     # this round's timings; all layer rows
    for _ in range(2):
        texts, problems = time_set_up(specs, tracer, setup_times, setup_layers)[1]
    insts = [checker.Instance(t) for t in texts]

    rng = random.Random(args.seed)
    rounds: list[dict] = []
    layers: list[dict] = []
    attempted = failed = 0
    correct = True      # no solve reported "solved" with a wrong answer
    started = time.perf_counter()
    setup_spent = 0.0       # set-up inside the loop does not count against --seconds
    while True:
        row = {"solve_s": 0.0, "cpu_s": 0.0, "makespan": 0, "moves": 0, "rounds": 0}
        for i in rng.sample(range(len(specs)), len(specs)):
            wall, cpu, result = solve_one(specs[i], problems[i], tracer)
            attempted += 1
            setup_spent += time_set_up(specs, tracer, setup_times, setup_layers,
                                       SETUP_SLICE)[0]
            row["solve_s"] += wall
            row["cpu_s"] += cpu
            sol = result.solution
            if result.status != "solved" or sol is None:
                failed += 1
                print(f"FAILED {specs[i].label()}: {result.status}: {result.reason}",
                      file=sys.stderr)
                continue
            errors = wrong_answer(insts[i], problems[i], sol)
            if errors:
                failed += 1
                correct = False
                print(f"WRONG {specs[i].label()}: {errors[:3]}", file=sys.stderr)
                continue
            row["makespan"] += sol.makespan
            row["moves"] += sol.moves
            row["rounds"] += result.rounds
            print(f"{specs[i].label()}: {wall:.2f}s span={sol.makespan} "
                  f"moves={sol.moves}", file=sys.stderr)
        row["setup_s"] = statistics.fmean(setup_times)
        setup_times = []
        rounds.append(row)
        if tracer:
            layers.append(tracer.take())
        spent = time.perf_counter() - started - setup_spent
        if spent + spent / len(rounds) > args.seconds:
            break
    if tracer:
        tracer.uninstall()
        from tracer import COVERED, LAYER_METRICS, SETUP_LAYERS
        values = {}
        for name in LAYER_METRICS:
            src = setup_layers if name in SETUP_LAYERS else layers
            values[name] = median_of(src, name)
        values["runtime.rounds"] = median_of(rounds, "rounds")
        values["motion.plan_yield"] = statistics.median(
            1 - r.get("motion.plan_failed_calls", 0) / r["motion.plan_calls"]
            if r.get("motion.plan_calls") else 0.0 for r in layers)
        values["trace.solve_s"] = median_of(rounds, "solve_s")
        values["trace.cpu_s"] = median_of(rounds, "cpu_s")
        values["trace.layer_cpu_share"] = statistics.median(
            sum(ly.get(k, 0.0) for k in COVERED) / r["cpu_s"]
            for ly, r in zip(layers, rounds))
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed,
                    setup=setup_layers, rounds=layers)
    else:
        values = {"solve_s": median_of(rounds, "solve_s"),
                  "setup_s": median_of(rounds, "setup_s"),
                  "cpu_s": median_of(rounds, "cpu_s"),
                  "makespan": median_of(rounds, "makespan"),
                  "moves": median_of(rounds, "moves"),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"rounds": rounds, **report}, indent=1))
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so peak RSS is per workload and no
    thread left over from one workload runs into the next one's timing."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        report = json.loads(lines[-1])
        print(f"{name}: correct={report['correct']} attempted={report['attempted']} "
              f"failed={report['failed']}")
        for k, m in report["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
        if not report["correct"] or report["failed"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
