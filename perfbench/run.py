"""rinktrack benchmark: seeded workloads timed untraced, layers timed by a traced run.

Usage (from the repository root):

  python3 perfbench/run.py
      every workload at its default seed, untraced and then traced
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one workload; the last stdout line is the JSON result. The run
      length S is part of the benchmark's command-line contract; it
      defaults to, and should always be, run_seconds of BENCHMARK.json
  python3 perfbench/run.py ... --record FILE
      also append each run's full result to FILE (JSON lines)
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
      one row per workload and metric: medians, quartiles, win share, verdict
  python3 perfbench/run.py reference [--workload NAME ...]
      re-record reference.json at each workload's default and held-out seed

Every workload runs in fresh single-threaded worker processes
(worker.py). With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json and prints (and records) its untraced iteration and stage
times; with --trace 1 it runs each scene untraced and then traced, and
reports the per-layer metrics, the tracing overhead and the time no span
covers. A run plays a fixed cycle of scenes whose seeds
derive from --seed (seed, seed + stride, ...), so the same seed always
gives the same inputs; the median over several scenes keeps the figures
steady across seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DESIGN = json.loads((BENCH / "design.json").read_text())
WORKLOADS = DESIGN["workloads"]
SETUPS_PER_RUN = 9  # fresh processes timed to readiness; the main run is one
DEADLINE_S = 170.0  # a run must end within 180 s

# Workers are single-threaded: two cores are shared with the parent and
# anything else on the machine, and BLAS threads would make times noisy.
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


STAGES = ("simulate", "track", "identify", "eval")

# A per-layer metric of BENCHMARK.json named "<span>.<field>" reads that
# field of the span from spans.py; the names below are derived in
# layer_metrics() instead. The iteration and stage times are measured
# untraced, but on a small shared machine they vary from run to run by
# more than any bound the benchmark may set, so they are reported as
# per-layer metrics, without a bound, rather than end to end.
SPAN_FIELDS = {"calls": "calls", "s": "s", "self_s": "self_s", "rows": "items", "load_s": "s"}
DERIVED = {"total_s", "detections_per_s", *(f"stage.{stage}_s" for stage in STAGES),
           "tracker.live_tracks_mean", "tracker.match_ratio", "ident.tracklets_per_s",
           "sim.bundle_bytes", "trace.overhead", "trace.uncovered_s"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# Running workers
# ---------------------------------------------------------------------------


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def scene_seeds(seed: int, count: int) -> list[int]:
    stride = DESIGN["scene_seed_stride"]
    return [seed + i * stride for i in range(count)]


def spawn(workload: str, scenes: list[int], mode: str, seconds: float, deadline: float) -> dict:
    """Run one fresh worker process; returns its JSON result with the spawn time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--scenes", ",".join(map(str, scenes)), "--mode", mode, "--seconds", str(seconds)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    spec = WORKLOADS[workload]
    scenes = scene_seeds(seed, spec["scenes_per_run"])
    # Set-up is sampled before and after the timed run, so that its median
    # spans the host's speed over the whole run, not one moment of it.
    setups = [spawn(workload, scenes, "setup", 0, deadline) for _ in range(SETUPS_PER_RUN // 2)]
    main = spawn(workload, scenes, "run", seconds, deadline)
    setups += [spawn(workload, scenes, "setup", 0, deadline) for _ in range(SETUPS_PER_RUN // 2)]
    if not main["iterations"]:
        raise BenchError(f"{workload}: no iteration completed: {main['failures']}")
    its = main["iterations"]
    samples = {
        "total_s": [it["total_s"] for it in its],
        "setup_s": [w["ready"] - w["spawned"] for w in setups + [main]],
        "detections_per_s": [it["detections"] / it["total_s"] for it in its],
    }
    for stage in STAGES:
        samples[f"stage.{stage}_s"] = [it["stages"][stage] for it in its if stage in it["stages"]]
    if "simulate" not in spec["stages"]:  # the scene is generated in set-up
        samples["stage.simulate_s"] = [t for w in setups + [main] for t in w["setup_simulate_s"]]
    summaries = {name: summarize(values) for name, values in samples.items() if values}
    metrics = {name: s["median"] for name, s in summaries.items()}
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    summaries["peak_rss_mb"] = {"median": main["peak_rss_mb"], "n": 1}
    return {"worker": main, "metrics": metrics, "summaries": summaries, "scenes": scenes}


def layer_metrics(names: list[str], untraced: dict, traced: dict,
                  setup_simulate_s: float) -> dict:
    """Per-layer metrics of one scene, from its untraced and traced iterations."""
    spans = traced["spans"]
    out = {}
    for name in names:
        if name not in DERIVED:
            span, field = name.rsplit(".", 1)
            out[name] = None if spans[span] is None else spans[span][SPAN_FIELDS[field]]

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    step, predict, update = (spans[k] for k in (
        "tracker.SortTracker.step", "tracker.kf_predict", "tracker.kf_update"))
    out["tracker.live_tracks_mean"] = ratio(predict and predict["calls"], step and step["calls"])
    out["tracker.match_ratio"] = ratio(update and update["calls"], step and step["items"])
    out["total_s"] = untraced["total_s"]
    out["detections_per_s"] = untraced["detections"] / untraced["total_s"]
    for stage in STAGES:  # a stage the workload does not run reads 0
        out[f"stage.{stage}_s"] = untraced["stages"].get(stage, 0.0)
    if "simulate" not in untraced["stages"]:
        out["stage.simulate_s"] = setup_simulate_s
    pipeline = spans["ident.run_pipeline"]
    out["ident.tracklets_per_s"] = ratio(pipeline and pipeline["items"], out["stage.identify_s"])
    out["sim.bundle_bytes"] = traced["bundle_bytes"]
    out["trace.overhead"] = traced["total_s"] / untraced["total_s"]
    out["trace.uncovered_s"] = traced["total_s"] - traced["covered_s"]
    return out


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    spec = WORKLOADS[workload]
    scenes = scene_seeds(seed, spec["scenes_per_run"])[:spec["trace_scenes"]]
    main = spawn(workload, scenes, "trace", seconds, deadline)
    setup_simulate_s = statistics.median(main["setup_simulate_s"] or [0.0])
    names = [m["name"] for m in load_benchmark()["per_layer"]]
    per_scene = [layer_metrics(names, t["untraced"], t, setup_simulate_s)
                 for t in main["traced"]]
    if not per_scene:
        raise BenchError(f"{workload}: no traced iteration completed: {main['failures']}")
    metrics, summaries = {}, {}
    for name in names:
        values = [m[name] for m in per_scene]
        if any(v is None for v in values):
            metrics[name] = None
            continue
        summaries[name] = summarize(values)
        metrics[name] = summaries[name]["median"]
    return {"worker": main, "metrics": metrics, "summaries": summaries, "scenes": scenes}


def run_one(workload: str, seed: int, seconds: float, trace: bool, record: Path | None) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds, deadline)
    worker = result["worker"]
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    all_units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {name: result["metrics"].get(name) for name in units}
    correct = worker["incorrect"] == 0

    print(f"== {workload} seed {seed} {'traced' if trace else 'untraced'}: scenes "
          f"{result['scenes']}, {len(worker['iterations'])} iterations"
          + (f", {len(worker['traced'])} traced" if trace else ""))
    others = [name for name in result["summaries"] if name not in units]
    for name in [*units, *others]:
        s = result["summaries"].get(name)
        if s is None:
            print(f"  {name:<44} {'absent' if metrics[name] is None else metrics[name]}")
            continue
        extra = "".join(f" {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        note = "" if name in units else "  (per-layer: traced runs report it)"
        print(f"  {name:<44} median {s['median']:.6g} {all_units[name]}{extra} "
              f"(n={s['n']}){note}")
    print(f"  outputs checked against reference.json: {worker['checked_against_reference']} "
          f"iterations; error_rate {worker['failed']}/{worker['attempted']}")
    for failure in worker["failures"]:
        print(f"  failed: {failure}")
    if worker["probe"] is not None and worker["probe"]["exit"] != 0:
        print("  the staged-chain probe is a known failure of the program: the score files "
              "are keyed by ground-truth track id, so identify cannot score tracker tracklets")

    line = {"correct": correct, "attempted": worker["attempted"], "failed": worker["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    if record is not None:
        entry = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                 **line, "summaries": result["summaries"], "failures": worker["failures"],
                 "error_rate": worker["failed"] / worker["attempted"]}
        with record.open("a") as fh:
            fh.write(json.dumps(entry) + "\n")
    return line


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            more_failures: bool) -> tuple[str, float]:
    """Verdict by the pairwise rule: a gain needs 9/10 wins and a shift beyond the spread."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    shift = sign * (p_med - c_med)  # positive when the change is better
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and shift > q3 - q1 and not more_failures:
        return "improved", share
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -shift > q3 - q1:
            return "worse", share
        return ("unchanged" if wins == losses == 0 else "unresolved"), share
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved", share
    if -shift > bound * abs(p_med):
        return "worse", share
    return "no worse", share


def compare(parent_path: Path, change_path: Path) -> int:
    """Untraced runs give the bounded end-to-end rows plus the untraced times
    the per-layer list also names, without a bound; traced runs give the
    per-layer rows."""
    bench = load_benchmark()
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: {**m, "bound": None} for m in bench["per_layer"]}

    def value(run, name):
        if name in run["metrics"]:
            return run["metrics"][name]["value"]
        return run["summaries"].get(name, {}).get("median")

    def load(path):
        runs: dict[tuple[str, int], list[dict]] = {}
        for line in path.read_text().splitlines():
            if line.strip():
                entry = json.loads(line)
                runs.setdefault((entry["workload"], entry["trace"]), []).append(entry)
        return runs

    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<12} {'metric':<44} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        n = min(len(p_runs), len(c_runs))
        if [r["seed"] for r in p_runs[:n]] != [r["seed"] for r in c_runs[:n]]:
            print(f"warning: {workload}: runs are paired in file order but their seeds differ",
                  file=sys.stderr)
        if len({r.get("seconds") for r in p_runs[:n] + c_runs[:n]}) > 1:
            print(f"warning: {workload}: the runs do not all have the same length",
                  file=sys.stderr)
        p_failed = sum(r["failed"] for r in p_runs[:n])
        c_failed = sum(r["failed"] for r in c_runs[:n])
        specs = dict(per_layer)
        if trace == 0:
            specs = {**end_to_end, **{name: spec for name, spec in per_layer.items()
                                      if name in p_runs[0]["summaries"]}}
        for name, spec in specs.items():
            pv = [value(r, name) for r in p_runs[:n]]
            cv = [value(r, name) for r in c_runs[:n]]
            if not pv or any(v is None for v in pv + cv):
                print(f"{workload:<12} {name:<44} {'absent':>34}")
                continue
            result, share = verdict(pv, cv, spec["better"], spec["bound"], c_failed > p_failed)
            cells = []
            for values in (pv, cv):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<12} {name:<44} {cells[0]:>34} {cells[1]:>34} "
                  f"{100 * share:4.0f}%  {result}")
        print(f"{workload:<12} {'failed/attempted':<44} "
              f"{p_failed:>26}/{sum(r['attempted'] for r in p_runs[:n]):<7} "
              f"{c_failed:>26}/{sum(r['attempted'] for r in c_runs[:n]):<7}")
    return 0


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------


def record_reference(names: list[str]) -> int:
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text())
    for workload in names:
        spec = WORKLOADS[workload]
        entries = {}
        for seed in (spec["default_seed"], spec["held_out_seed"]):
            scenes = scene_seeds(seed, spec["scenes_per_run"])
            result = spawn(workload, scenes, "record", 0, time.monotonic() + 3600)
            entries.update(result["outputs"])
            print(f"{workload} seed {seed}: recorded scenes {scenes}")
        reference[workload] = entries
    path.write_text(format_reference(reference))
    return 0


def format_reference(reference: dict) -> str:
    """One line per scene, so that a re-recording diffs scene by scene."""
    blocks = []
    for workload, scenes in sorted(reference.items()):
        lines = [f"    {json.dumps(seed)}: {json.dumps(outputs, sort_keys=True)}"
                 for seed, outputs in sorted(scenes.items(), key=lambda kv: int(kv[0]))]
        blocks.append(f"  {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)
    if argv[:1] == ["reference"]:
        parser = argparse.ArgumentParser(prog="run.py reference")
        parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
        args = parser.parse_args(argv[1:])
        return record_reference(args.workload or list(WORKLOADS))

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=int, help="run length; default and intended value: "
                        "run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path, help="append full results to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        seconds = args.seconds or load_benchmark()["run_seconds"]
        if args.workload is not None:
            seed = WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed
            line = run_one(args.workload, seed, seconds, bool(args.trace), args.record)
            print(json.dumps(line))
            return 0
        for trace in (False, True):
            for workload, spec in WORKLOADS.items():
                seed = spec["default_seed"] if args.seed is None else args.seed
                print(json.dumps(run_one(workload, seed, seconds, trace, args.record)))
        return 0
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
