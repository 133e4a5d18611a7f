"""One benchmark workload in one fresh process: set-up, timed iterations, output checks.

Started by ``perfbench/run.py``, never by hand. The process imports
rinktrack from the checkout's ``src/`` and nowhere else, runs the
workload's scenes, checks every output and prints one JSON object as the
last line of its standard output.

Modes:
  setup   set up and exit; the parent times process start to readiness.
  run     set up, then run the scene cycle until ``--seconds`` is spent.
  trace   like run, but each scene runs twice, untraced and then with
          the span hooks of ``spans.py`` installed.
  record  run each scene once and report its outputs for reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DESIGN = json.loads((BENCH / "design.json").read_text())
FLOAT_TOL = 1e-9


def import_rinktrack() -> SimpleNamespace:
    """Import the package from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rinktrack
        from rinktrack import cli, core, ident, metrics, sim, tracker
    except ImportError as exc:
        raise SystemExit(f"error: cannot import rinktrack from {src}: {exc}")
    if src not in Path(rinktrack.__file__).resolve().parents:
        raise SystemExit(f"error: rinktrack imported from {rinktrack.__file__}, not {src}")
    return SimpleNamespace(cli=cli, core=core, ident=ident, metrics=metrics, sim=sim,
                           tracker=tracker)


class StageError(Exception):
    """A command-line stage exited non-zero."""


class Stages:
    """Wall time per named stage of one iteration."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.current: str | None = None

    @contextlib.contextmanager
    def __call__(self, name: str):
        self.current = name
        start = time.perf_counter()
        yield
        self.times[name] = time.perf_counter() - start


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Independent checks that hold for any seed; reference.json pins exact
# outputs only for the recorded seeds.
# ---------------------------------------------------------------------------


def check_tracker_rows(det_rows, track_rows, conf_min: float) -> list[str]:
    """Tracker rows report observed boxes: each is an input detection, used once."""
    available = {}
    for frame, x, y, w, h, conf in det_rows:
        available.setdefault((frame, x, y, w, h), []).append(conf)
    used = set()
    for frame, x, y, w, h, conf in track_rows:
        key = (frame, x, y, w, h)
        if conf not in available.get(key, ()) or conf < conf_min:
            return [f"tracker row {key} is not an input detection above confidence {conf_min}"]
        if key in used:
            return [f"tracker reports detection {key} twice"]
        used.add(key)
    return []


def check_report(agg: dict, gt_rows: int, pred_rows: int) -> list[str]:
    problems = []
    if agg["gt_total"] != gt_rows:
        problems.append(f"gt_total {agg['gt_total']} != {gt_rows} ground-truth rows")
    if not (0 <= agg["fn"] <= gt_rows and 0 <= agg["fp"] <= pred_rows and agg["idsw"] >= 0):
        problems.append(f"counts out of range: {agg}")
    want = 1.0 - (agg["fn"] + agg["fp"] + agg["idsw"]) / gt_rows
    if abs(agg["mota"] - want) > FLOAT_TOL:
        problems.append(f"mota {agg['mota']} != 1 - (fn+fp+idsw)/gt = {want}")
    if not 0.0 <= agg["idf1"] <= 1.0:
        problems.append(f"idf1 {agg['idf1']} outside [0, 1]")
    return problems


def check_sweep(sweep, gt_frames: dict[int, list[int]]) -> list[str]:
    want = []
    for delta in range(40, 81, 5):
        gaps = sum(1 for frames in gt_frames.values()
                   for a, b in zip(frames, frames[1:]) if b - a > delta)
        want.append([delta, gaps])
    if [list(map(int, row)) for row in sweep] != want:
        return [f"pan sweep {sweep} != gap count {want}"]
    return []


def check_identities(rows, track_ids, rosters: dict[str, set[int]], null_index: int,
                     num_classes: int) -> list[str]:
    """rows: (track_id, team, identity_unmasked, identity_masked) per tracklet."""
    if [r[0] for r in rows] != list(track_ids):
        return ["identities do not cover exactly the input tracklets"]
    for track_id, team, unmasked, masked in rows:
        if team == "referee":
            ok = unmasked == masked == -1
        else:
            ok = (team in rosters and 0 <= unmasked < num_classes
                  and (masked == null_index or masked in rosters[team]))
        if not ok:
            return [f"track {track_id}: team {team} identities {unmasked}/{masked} are invalid"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up happens in __init__; iterate() runs one scene and returns a
    function, called after the clock stops, that yields the scene's counts,
    its outputs by stage and its invalid outputs."""

    setup_simulate_s: list[float] | None = None  # scenes generated in set-up

    def iterate(self, seed: int, st: Stages):
        raise NotImplementedError

    def probe(self) -> dict | None:
        """An untimed operation run once after the timed iterations."""
        return None

    def close(self) -> None:
        pass


class Showcase(Workload):
    """The in-memory library path of scripts/run_showcase.py, with oracle scorers."""

    def __init__(self, rt, design, scenes):
        self.rt = rt
        self.scenario = rt.sim.ScenarioConfig.from_dict(design["scenario"])
        self.tracker_params = rt.tracker.TrackerParams()
        self.ident_params = rt.ident.IdentParams()

    def iterate(self, seed: int, st: Stages):
        core, ident, sim, tracker = self.rt.core, self.rt.ident, self.rt.sim, self.rt.tracker
        with st("simulate"):
            bundle = sim.generate(self.scenario, seed)
        with st("track"):
            tracks = tracker.track(core.group_by_frame(bundle.detections), self.tracker_params)
        with st("identify"):
            frame_scorer, window_scorer, team_scorer = sim.oracle_scorers(bundle)
            scorers = ident.Scorers(team=team_scorer, frame=frame_scorer, window=window_scorer)
            rosters = ident.Rosters(home=core.build_roster_vector(bundle.home_roster, bundle.vocab),
                                    away=core.build_roster_vector(bundle.away_roster, bundle.vocab))
            unmasked = ident.run_pipeline(tracks, scorers, rosters, bundle.vocab, self.ident_params,
                                          mask_rosters=False)
            masked = ident.run_pipeline(tracks, scorers, rosters, bundle.vocab, self.ident_params,
                                        mask_rosters=True)
            expected = [bundle.expected_class(trk) for trk in tracks]
        report, sweep = eval_in_memory(self.rt, bundle, tracks, st, seed)
        counts = {"detections": len(bundle.detections), "bundle_bytes": 0}
        return lambda: (counts, *self.outputs(bundle, tracks, unmasked, masked, expected,
                                              report, sweep))

    def outputs(self, bundle, tracks, unmasked, masked, expected, report, sweep):
        rows = [(u.track_id, u.team.name.lower(), u.identity, m.identity)
                for u, m in zip(unmasked, masked)]

        def accuracy(results):
            scored = [(r.identity, want) for r, want in zip(results, expected) if want is not None]
            return sum(got == want for got, want in scored) / len(scored) if scored else None

        out = in_memory_outputs(bundle, tracks, report, sweep)
        out["identify"] = {
            "identities_sha256": sha256_text(json.dumps(rows)),
            "accuracy_without_roster": accuracy(unmasked),
            "accuracy_with_roster": accuracy(masked),
        }
        vocab = bundle.vocab
        rosters = {"home": {vocab.index_of(n) for n in bundle.home_roster},
                   "away": {vocab.index_of(n) for n in bundle.away_roster}}
        problems = in_memory_problems(bundle, tracks, report, sweep, self.tracker_params)
        problems += [("identify", p) for p in check_identities(
            rows, [t.track_id for t in tracks], rosters, vocab.null_index, vocab.num_classes)]
        return out, problems


class Crowd(Workload):
    """Dense tracking-only game: generated in set-up, then tracked and evaluated."""

    def __init__(self, rt, design, scenes):
        self.rt = rt
        scenario = rt.sim.ScenarioConfig.from_dict(design["scenario"])
        self.tracker_params = rt.tracker.TrackerParams()
        self.bundles = {}
        times = []
        for seed in scenes:
            start = time.perf_counter()
            self.bundles[seed] = rt.sim.generate(scenario, seed)
            times.append(time.perf_counter() - start)
        self.setup_simulate_s = times

    def iterate(self, seed: int, st: Stages):
        bundle = self.bundles[seed]
        with st("track"):
            tracks = self.rt.tracker.track(self.rt.core.group_by_frame(bundle.detections),
                                           self.tracker_params)
        report, sweep = eval_in_memory(self.rt, bundle, tracks, st, seed)

        def finish():
            return ({"detections": len(bundle.detections), "bundle_bytes": 0},
                    in_memory_outputs(bundle, tracks, report, sweep),
                    in_memory_problems(bundle, tracks, report, sweep, self.tracker_params))

        return finish


def eval_in_memory(rt, bundle, tracks, st: Stages, seed: int):
    core, metrics = rt.core, rt.metrics
    with st("eval"):
        gt_rows = [(trk.track_id, det) for trk in bundle.gt_tracks for det in trk.detections]
        report = metrics.evaluate([(
            f"seed_{seed}",
            core.group_boxes_by_frame(gt_rows),
            core.group_boxes_by_frame(core.tracks_to_rows(tracks)),
        )])
        sweep = metrics.pan_sweep(bundle.gt_tracks, range(40, 81, 5))
    return report, sweep


def in_memory_outputs(bundle, tracks, report, sweep) -> dict:
    rows = "\n".join(f"{d.frame},{trk.track_id},{d.box.x!r},{d.box.y!r},{d.box.w!r},"
                     f"{d.box.h!r},{d.confidence!r}" for trk in tracks for d in trk.detections)
    return {
        "simulate": {"detections": len(bundle.detections)},
        "track": {"tracker_rows_sha256": sha256_text(rows), "tracks": len(tracks)},
        "eval": {"idsw": report.idsw, "fp": report.fp, "fn": report.fn,
                 "gt_total": report.gt_total, "mota": report.mota, "idf1": report.idf1,
                 "pan_sweep": [list(row) for row in sweep]},
    }


def in_memory_problems(bundle, tracks, report, sweep, tracker_params) -> list[tuple[str, str]]:
    det_rows = [(d.frame, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence)
                for _, d in bundle.detections]
    track_rows = [(d.frame, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence)
                  for trk in tracks for d in trk.detections]
    gt_frames = {trk.track_id: trk.frames for trk in bundle.gt_tracks}
    agg = {"mota": report.mota, "idf1": report.idf1, "idsw": report.idsw,
           "fp": report.fp, "fn": report.fn, "gt_total": report.gt_total}
    problems = [("track", p) for p in check_tracker_rows(
        det_rows, track_rows, tracker_params.confidence_threshold)]
    problems += [("eval", p) for p in check_report(
        agg, sum(len(f) for f in gt_frames.values()), len(track_rows))]
    problems += [("eval", p) for p in check_sweep(sweep, gt_frames)]
    return problems


def _parse_csv(path: Path):
    rows = []
    for line in path.read_text().splitlines():
        f = line.split(",")
        rows.append((int(f[1]), (int(f[0]), float(f[2]), float(f[3]), float(f[4]),
                                 float(f[5]), float(f[6]))))
    return rows


class StagedGame(Workload):
    """The README's staged CLI chain through cli.main, on files in a work directory."""

    def __init__(self, rt, design, scenes):
        self.rt = rt
        self.work = ROOT / ".bench_work" / f"staged_game-{os.getpid()}"
        self.bundle = self.work / "bundle"
        self.out = self.work / "out"
        paths = {name: str(self.bundle / filename) for name, filename in (
            ("detections", "det.csv"), ("gt", "gt.csv"), ("rosters", "rosters.json"),
            ("vocab", "vocab.json"), ("frame_scores", "frame_scores.jsonl"),
            ("team_scores", "team_scores.jsonl"), ("window_scores", "window_scores.jsonl"),
            ("truth", "truth.json"))}
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "paths": {**paths, "tracks": str(self.out / "tracks.csv")},
            "scenario": design["scenario"],
        }, indent=2))
        # Identification reads the ground-truth tracklets: the emitted score
        # files are keyed by ground-truth track id (see the probe below).
        self.gt_config = self.work / "config_gt.json"
        self.gt_config.write_text(json.dumps({"paths": {**paths, "tracks": paths["gt"]}}, indent=2))
        rt.cli.load_config(self.config)
        rt.cli.load_config(self.gt_config)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            self.work.parent.rmdir()

    def main(self, *argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rt.cli.main([str(a) for a in argv])
        return code, err.getvalue().strip()

    def command(self, *argv) -> None:
        code, err = self.main(*argv)
        if code != 0:
            raise StageError(f"{argv[0]} exited {code}: {err}")

    def iterate(self, seed: int, st: Stages):
        with st("simulate"):
            self.command("simulate", "--config", self.config, "--seed", seed, "--out", self.bundle)
        with st("track"):
            self.command("track", "--config", self.config, "--out", self.out)
        with st("identify"):
            self.command("identify", "--config", self.gt_config, "--out", self.out)
        with st("eval"):
            self.command("eval", "--config", self.config, "--out", self.out)
        return self.finish

    def finish(self):
        b, o = self.bundle, self.out
        out = {
            "simulate": {"det_csv_sha256": sha256_file(b / "det.csv")},
            "track": {"tracks_csv_sha256": sha256_file(o / "tracks.csv")},
            "identify": {"identities_json_sha256": sha256_file(o / "identities.json")},
            "eval": {"report_json_sha256": sha256_file(o / "report.json"),
                     "pan_sweep_csv_sha256": sha256_file(o / "pan_sweep.csv")},
        }
        det_rows = [row for _, row in _parse_csv(b / "det.csv")]
        counts = {"detections": len(det_rows),
                  "bundle_bytes": sum(p.stat().st_size for p in b.iterdir())}
        gt = _parse_csv(b / "gt.csv")
        tracked = _parse_csv(o / "tracks.csv")
        gt_frames: dict[int, list[int]] = {}
        for tid, row in gt:
            gt_frames.setdefault(tid, []).append(row[0])
        for frames in gt_frames.values():
            frames.sort()
        problems = [("track", p) for p in check_tracker_rows(
            det_rows, [row for _, row in tracked],
            self.rt.tracker.TrackerParams().confidence_threshold)]
        report = json.loads((o / "report.json").read_text())
        problems += [("eval", p) for p in check_report(report["aggregate"], len(gt), len(tracked))]
        sweep = [line.split(",")[1:3] for line in
                 (o / "pan_sweep.csv").read_text().splitlines()[1:]]
        problems += [("eval", p) for p in check_sweep(sweep, gt_frames)]
        vocab = json.loads((b / "vocab.json").read_text())
        index = {n: i for i, n in enumerate(vocab)}
        rosters = {team: {index[n] for n in numbers}
                   for team, numbers in json.loads((b / "rosters.json").read_text()).items()}
        identities = json.loads((o / "identities.json").read_text())["tracks"]
        rows = [(r["track_id"], r["team"], r["identity_unmasked"], r["identity"])
                for r in identities]
        problems += [("identify", p) for p in check_identities(
            rows, sorted(gt_frames), rosters, len(vocab), len(vocab) + 1)]
        return counts, out, problems

    def probe(self) -> dict:
        """The README chain identify-on-tracks.csv, untimed, once per run."""
        code, err = self.main("identify", "--config", self.config, "--out", self.work / "probe")
        return {"name": "identify on the tracker's tracks.csv", "exit": code,
                "message": err.splitlines()[-1] if err else ""}


WORKLOADS = {"showcase": Showcase, "staged_game": StagedGame, "crowd": Crowd}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def compare(got: dict, want: dict) -> list[str]:
    """Names of outputs in ``want`` that ``got`` does not reproduce."""
    differ = []
    for key, value in want.items():
        mine = got.get(key)
        if isinstance(value, float) and isinstance(mine, float):
            if abs(mine - value) > FLOAT_TOL:
                differ.append(key)
        elif mine != value:
            differ.append(key)
    return differ


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, workload: str):
        self.reference = json.loads((BENCH / "reference.json").read_text()).get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0  # failures of the program's own operations
        self.failures: list[str] = []
        self.checked_against_reference = 0
        self.seen: dict[int, dict] = {}

    def fail(self, message: str, incorrect: bool = True) -> None:
        self.failed += 1
        self.incorrect += incorrect
        self.failures.append(message)

    def settle(self, seed: int, st: Stages, finish, error: Exception | None) -> dict | None:
        """Count the iteration's stages and check its outputs against every
        reference; returns the iteration's counts, or None if it failed."""
        self.attempted += len(st.times) + (error is not None)
        if error is not None:
            self.fail(f"scene {seed}: stage {st.current} failed: {error}")
            return None
        try:
            counts, outputs, problems = finish()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.fail(f"scene {seed}: outputs could not be read: {exc!r}")
            return None
        bad_stages = {}
        for stage, message in problems:
            bad_stages.setdefault(stage, f"scene {seed}: {stage} output invalid: {message}")
        references = [("reference.json", self.reference.get(str(seed))),
                      ("an earlier run of the same scene", self.seen.get(seed))]
        for source, ref in references:
            if ref is None:
                continue
            if source == "reference.json":
                self.checked_against_reference += 1
            for stage, want in ref.items():
                differ = compare(outputs.get(stage, {}), want)
                if differ:
                    bad_stages.setdefault(
                        stage, f"scene {seed}: {stage} output differs from {source}: "
                               f"{', '.join(differ)}")
        for message in bad_stages.values():
            self.fail(message)
        self.seen.setdefault(seed, outputs)
        return counts


def run_iteration(workload, seed: int, ledger: Ledger) -> dict | None:
    st = Stages()
    start = time.perf_counter()
    try:
        finish = workload.iterate(seed, st)
    except Exception as exc:  # a failing stage is a measured outcome, not a crash
        ledger.settle(seed, st, None, exc)
        return None
    total = time.perf_counter() - start
    counts = ledger.settle(seed, st, finish, None)
    if counts is None:
        return None
    return {"scene": seed, "total_s": total, "stages": st.times, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scenes", required=True, help="comma-separated scene seeds")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "run", "trace", "record"], default="run")
    args = parser.parse_args(argv)
    scenes = [int(s) for s in args.scenes.split(",")]

    rt = import_rinktrack()
    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
    workload = WORKLOADS[args.workload](rt, DESIGN["workloads"][args.workload], scenes)
    ready = time.monotonic()
    result = {"ready": ready, "setup_simulate_s": workload.setup_simulate_s}
    if args.mode == "setup":
        workload.close()
        print(json.dumps(result))
        return 0

    ledger = Ledger(args.workload)
    iterations, traced, outputs = [], [], {}
    try:
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for seed in scenes:
                untraced = run_iteration(workload, seed, ledger)
                if untraced is None:
                    continue
                iterations.append(untraced)
                outputs[str(seed)] = ledger.seen.get(seed)
                if tracer is not None:
                    tracer.reset()
                    tracer.install()
                    try:
                        it = run_iteration(workload, seed, ledger)
                    finally:
                        tracer.uninstall()
                    if it is not None:  # paired with the untraced run just before it
                        it.update(spans=tracer.snapshot(), covered_s=tracer.covered_ns / 1e9,
                                  untraced=untraced)
                        traced.append(it)
            now = time.perf_counter()
            if args.mode == "record" or now - start + (now - cycle_start) > args.seconds:
                break
        probe = None if args.mode == "record" else workload.probe()
    finally:
        workload.close()
    if probe is not None:
        ledger.attempted += 1
        if probe["exit"] != 0:
            ledger.fail(f"probe failed: {probe['name']} exited {probe['exit']}: "
                        f"{probe['message']}", incorrect=False)

    result.update({
        "iterations": iterations,
        "traced": traced,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "incorrect": ledger.incorrect,
        "failures": ledger.failures,
        "checked_against_reference": ledger.checked_against_reference,
        "probe": probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.mode == "record":
        result["outputs"] = outputs
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
