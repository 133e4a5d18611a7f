"""Command-line entry point: simulate, track, identify, eval, pipeline.

One JSON config carries every tunable (tracker lifecycle, inference
thresholds, metric parameters, scenario description); subcommands pick
the sections they need. Exit codes: 0 success, 1 runtime failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import core, metrics, sim
from .core import ParseError, ValidationError, check_int, check_unit
from .ident import (
    REFEREE_CLASS,
    FileFrameScorer,
    FileTeamScorer,
    FileWindowScorer,
    IdentParams,
    Rosters,
    ScorerCoverageError,
    TrackIdentity,
    gate_tracklet,
    identify_tracklet,
    run_pipeline,
)
from .tracker import TrackerParams, track


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass(frozen=True)
class MetricsParams:
    iou_threshold: float = 0.5
    delta: int = 40
    delta_min: int = 40
    delta_max: int = 80
    delta_step: int = 5

    def __post_init__(self) -> None:
        check_unit("iou_threshold", self.iou_threshold)
        for name in ("delta", "delta_min", "delta_max"):
            check_int(name, getattr(self, name), 0)
        check_int("delta_step", self.delta_step, 1)
        if self.delta_min > self.delta_max:
            raise ValidationError(
                f"delta_min {self.delta_min!r} exceeds delta_max {self.delta_max!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsParams":
        return cls(**core.known_fields(cls, data))

    @property
    def sweep(self) -> list[int]:
        return list(range(self.delta_min, self.delta_max + 1, self.delta_step))


@dataclass
class RunConfig:
    paths: dict[str, str] = field(default_factory=dict)
    videos: list[dict] = field(default_factory=list)
    tracker: TrackerParams = field(default_factory=TrackerParams)
    ident: IdentParams = field(default_factory=IdentParams)
    metrics: MetricsParams = field(default_factory=MetricsParams)
    scenario: sim.ScenarioConfig | None = None

    def path(self, name: str, required: bool = True) -> Path | None:
        value = self.paths.get(name)
        if value is None:
            if required:
                raise ConfigError(f'config is missing paths.{name}')
            return None
        p = Path(value)
        if not _readable(p):
            raise ConfigError(f"paths.{name}: file not found: {p}")
        return p


def _readable(path: Path) -> bool:
    """True for a path that exists and is not a directory; pipes and /dev/stdin pass."""
    return path.exists() and not path.is_dir()


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not _readable(p):
        raise ConfigError(f"config file not found: {p}")
    try:
        return core.read_json(p, _parse_config)
    except (ParseError, ValidationError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_config(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    sections = [f.name for f in fields(RunConfig)]
    unknown = sorted(data.keys() - sections)
    if unknown:
        raise ValidationError(f"{unknown[0]}: unknown section; a config holds "
                              f"{', '.join(sections)}")

    def within(where: str, parse, *args):
        try:
            return parse(*args)
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"{where}: {exc}") from None

    paths = data.get("paths", {})
    if not isinstance(paths, dict):
        raise ValidationError(f"paths must be a JSON object, got {paths!r}")
    within("paths", core.known_fields, {*sim.BUNDLE_FILES, "tracks"}, paths)
    for name, value in paths.items():
        if value is not None and not isinstance(value, str):
            raise ValidationError(f"paths.{name} must be a path, got {value!r}")
    videos = data.get("videos", [])
    if not isinstance(videos, list) or not all(isinstance(entry, dict) for entry in videos):
        raise ValidationError(f"videos must be a list of objects, got {videos!r}")
    # Each entry is named, video_<i> by default: the name labels its report rows.
    videos = [{"name": f"video_{i}", **entry} for i, entry in enumerate(videos)]
    for i, entry in enumerate(videos):
        name = entry["name"]
        if not isinstance(name, str):
            raise ValidationError(f"videos entry names must be strings, got {name!r}")
        within(f"videos entry {name!r}", core.known_fields, ("name", "gt", "tracks"), entry)
        if name in [e["name"] for e in videos[:i]]:
            raise ValidationError(f"videos entry {name!r} is given twice; report rows are "
                                  f"labelled by name")
    return RunConfig(
        paths=paths,
        videos=videos,
        tracker=within("tracker", TrackerParams.from_dict, data.get("tracker", {})),
        ident=within("ident", IdentParams.from_dict, data.get("ident", {})),
        metrics=within("metrics", MetricsParams.from_dict, data.get("metrics", {})),
        scenario=(within("scenario", sim.ScenarioConfig.from_dict, data["scenario"])
                  if "scenario" in data else None),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _check_window(config: RunConfig) -> None:
    """A bundle's window scores cover identify's windows only when both use one shape."""
    scenario, ident = config.scenario, config.ident
    if (scenario.window, scenario.stride) != (ident.window, ident.stride):
        raise ConfigError(f"scenario.window/stride {scenario.window}/{scenario.stride} differ "
                          f"from ident.window/stride {ident.window}/{ident.stride}; the bundle's "
                          f"window scores must cover the windows identify scores")


def cmd_simulate(config: RunConfig, seed: int, out_dir: Path) -> sim.GroundTruthBundle:
    if config.scenario is None:
        raise ConfigError("simulate requires a scenario section in the config")
    _check_window(config)
    try:
        bundle = sim.generate(config.scenario, seed)
    except ValidationError as exc:  # infeasible scenario is a config problem
        raise ConfigError(f"infeasible scenario: {exc}") from None
    manifest = bundle.write(out_dir)
    print(f"bundle written to {out_dir} (seed {seed})")
    for name, path in sorted(manifest["files"].items()):
        print(f"  {name:14s} {path}")
    return bundle


def cmd_track(config: RunConfig, out_dir: Path) -> int:
    rows = core.parse_detection_file(config.path("detections"))
    tracks = track(core.group_by_frame(rows), config.tracker)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "tracks.csv"
    core.save_detection_file(core.tracks_to_rows(tracks), out_path)
    print(f"{len(tracks)} tracks -> {out_path}")
    return 0


_TEAMS = ("home", "away", "referee")


def _truth_classes(data, vocab: core.ClassVocabulary) -> dict[int, int]:
    """Each ground-truth id's expected class (see ``TrackTruth.expected_class``) from
    ``truth.json``. A key is an optional ``-`` and ASCII digits, one key per id. A
    player's ``null_tracklet``, when given, says whether its jersey is null."""
    tracks = data.get("tracks") if isinstance(data, dict) else None
    if not isinstance(tracks, dict):
        raise ParseError('truth file must be an object with a "tracks" object')
    expected, keys = {}, {}
    for key, row in tracks.items():
        if not (key.isascii() and key.removeprefix("-").isdigit()):
            raise ParseError(f"track {key!r}: track ids must be integers: ASCII digits "
                             f"after an optional '-'")
        track_id = int(key)
        if track_id in keys:
            raise ParseError(f"tracks {keys[track_id]!r} and {key!r} both name track {track_id}")
        keys[track_id] = key
        where = f"track {track_id}"
        if not isinstance(row, dict) or row.get("team") not in _TEAMS:
            raise ParseError(f"{where}: team must be one of {', '.join(_TEAMS)}")
        jersey = row.get("jersey", "missing")
        if jersey is not None and type(jersey) is not int:
            raise ParseError(f"{where}: jersey must be an integer or null, got {jersey!r}")
        null_tracklet = row.get("null_tracklet", jersey is None)
        if not isinstance(null_tracklet, bool):
            raise ParseError(f"{where}: null_tracklet must be true or false")
        truth = sim.TrackTruth(team=row["team"], jersey=jersey, null_tracklet=null_tracklet)
        try:
            core.known_fields(sim.TrackTruth, row)
            expected[track_id] = truth.expected_class(vocab)
            if truth.team != "referee" and null_tracklet != (jersey is None):
                raise ValidationError(f"null_tracklet must be {json.dumps(jersey is None)} "
                                      f"when jersey is {json.dumps(jersey)}")
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return expected


def _ground_truth(config: RunConfig, vocab: core.ClassVocabulary,
                  bundle: sim.GroundTruthBundle | None
                  ) -> tuple[sim.GroundTruthIndex, dict[int, int]] | None:
    """The owner index and each id's expected class that accuracy scores against:
    ``bundle``'s, else from ``paths.truth`` and ``paths.gt``; None without ``paths.truth``."""
    if bundle is not None:
        return bundle.gt_index, bundle.classes()
    truth_path = config.path("truth", required=False)
    if truth_path is None:
        return None
    if config.paths.get("gt") is None:
        raise ConfigError("paths.truth needs paths.gt: accuracy scores each tracklet against "
                          "the ground-truth track that owns most of its boxes")
    classes = core.read_json(truth_path, lambda data: _truth_classes(data, vocab))
    index = sim.GroundTruthIndex(_eval_rows(config.path("gt")))
    missing = sorted(set(index.ids.tolist()) - classes.keys())
    if missing:
        raise ValidationError(f"{truth_path}: no entry for track {missing[0]} of "
                              f"{config.path('gt')}")
    return index, classes


def _jersey_of(identity: int, vocab: core.ClassVocabulary):
    if identity == REFEREE_CLASS:
        return "ref"
    return vocab.label_of(identity)  # None for the null class


def _accuracy(results: Sequence[TrackIdentity], expected: Mapping[int, int],
              field: str) -> float | None:
    scored = [r for r in results if r.track_id in expected]
    if not scored:
        return None
    return sum(getattr(r, field) == expected[r.track_id] for r in scored) / len(scored)


def cmd_identify(config: RunConfig, out_dir: Path, mask_rosters: bool, method: str | None,
                 bundle: sim.GroundTruthBundle | None = None) -> dict | None:
    """Identify every tracklet once and write ``identities.json``.

    Scores come from ``bundle``'s oracles when given. Otherwise they come
    from the run's score files, one large table at a time: every tracklet
    is gated on the team and frame tables, which are freed before the
    window table is read, so a gate error for any tracklet comes before a
    window-file error. Returns the accuracy of each arm: each tracklet
    owned by ground truth is scored against the expected class of its
    majority owner (see ``_ground_truth``; None without ground truth).
    """
    path = config.path("tracks")
    vocab = core.ClassVocabulary.from_json(config.path("vocab"))
    # Read before the tracks and matched before the score files, so that both reuse
    # the memory the ground truth's parse frees.
    truth = _ground_truth(config, vocab, bundle)
    rows = _tracked_rows(path)
    tracks = core.rows_to_tracks(rows)  # raw detections (id -1) are skipped
    if rows and not tracks:
        raise ValidationError(f"{path}: no row has a track id (>= 0); raw detections carry -1, "
                              f"so identify needs a tracker's output")
    expected = None if truth is None else sim.expected_classes(tracks, *truth)
    params = config.ident if method is None else replace(config.ident, method=method)
    rosters = Rosters(*core.load_rosters(config.path("rosters"), vocab)) if mask_rosters else None
    if bundle is not None:
        # The oracles score any tracklet; the bundle's score files cover ground-truth ids only.
        results = run_pipeline(tracks, sim.oracle_scorers(bundle), rosters, vocab, params,
                               mask_rosters=mask_rosters)
    else:
        team_path, frame_path, window_path = map(config.path, ("team_scores", "frame_scores",
                                                               "window_scores"))
        # Jersey-score rows must have one entry per vocabulary class.
        team_scorer = FileTeamScorer(team_path)
        frame_scorer = FileFrameScorer(frame_path, vocab.num_classes)
        gates = [gate_tracklet(trk, team_scorer, frame_scorer, params) for trk in tracks]
        del team_scorer, frame_scorer  # freed before the window table is read
        window_scorer = FileWindowScorer(window_path, vocab.num_classes)
        results = [identify_tracklet(trk, team, visible, window_scorer, rosters, vocab, params,
                                     mask_rosters) for trk, (team, visible) in zip(tracks, gates)]

    payload: dict = {
        "aggregation": params.method,
        "roster_masking": mask_rosters,
        "tracks": [{
            "track_id": r.track_id,
            "team": r.team.name.lower(),
            "identity": r.identity,
            "jersey": _jersey_of(r.identity, vocab),
            "identity_unmasked": r.identity_unmasked,
            "jersey_unmasked": _jersey_of(r.identity_unmasked, vocab),
            "p_jn": r.p_jn.values.tolist(),
        } for r in results],
    }
    accuracy = None
    if expected is not None:
        accuracy = {"without_roster": _accuracy(results, expected, "identity_unmasked")}
        if mask_rosters:
            accuracy["with_roster"] = _accuracy(results, expected, "identity")
        payload["accuracy"] = accuracy
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "identities.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"{len(tracks)} tracklets identified -> {out_dir / 'identities.json'}")
    for arm, value in sorted((accuracy or {}).items()):
        if value is not None:
            print(f"  accuracy {arm}: {100 * value:.2f}%")
    return accuracy


def _clip_to_overlap(name: str, gt_rows: list[core.Row], pred_rows: list[core.Row]
                     ) -> tuple[list[core.Row], list[core.Row]]:
    """Warn and evaluate on the overlapping frame range when ranges differ."""
    if not gt_rows or not pred_rows:
        return gt_rows, pred_rows
    gt_span = (min(d.frame for _, d in gt_rows), max(d.frame for _, d in gt_rows))
    pred_span = (min(d.frame for _, d in pred_rows), max(d.frame for _, d in pred_rows))
    if gt_span == pred_span:
        return gt_rows, pred_rows
    lo = max(gt_span[0], pred_span[0])
    hi = min(gt_span[1], pred_span[1])
    if lo > hi:
        print(f"warning: {name}: disjoint frame ranges gt={gt_span} pred={pred_span}",
              file=sys.stderr)
        return gt_rows, pred_rows
    print(f"warning: {name}: frame ranges differ gt={gt_span} pred={pred_span}; "
          f"evaluating frames {lo}..{hi}", file=sys.stderr)
    clip = lambda rows: [(tid, d) for tid, d in rows if lo <= d.frame <= hi]
    return clip(gt_rows), clip(pred_rows)


def _tracked_rows(path: str | Path) -> list[core.Row]:
    """A tracks file's rows; a track id listed twice on one frame is an error naming the file."""
    rows = core.parse_detection_file(path)
    seen = set()
    for track_id, det in rows:
        if track_id >= 0 and (det.frame, track_id) in seen:
            raise ValidationError(f"{path}: frame {det.frame}: id {track_id} is listed more "
                                  f"than once")
        seen.add((det.frame, track_id))
    return rows


def _eval_rows(path: str | Path) -> list[core.Row]:
    """An eval input's rows: every id is a tracked id (>= 0), listed at most once a frame."""
    rows = _tracked_rows(path)
    for track_id, det in rows:
        if track_id < 0:
            raise ValidationError(f"{path}: frame {det.frame}: id {track_id} is not a track id; "
                                  f"eval scores ids >= 0, and raw detections carry -1")
    return rows


def _eval_videos(config: RunConfig) -> list[tuple[str, str, list[core.Row], list[core.Row]]]:
    """(name, ground truth as errors name it, gt rows, tracks rows) for each video."""
    videos = []
    if config.videos:
        for entry in config.videos:
            name = entry["name"]
            for key in ("gt", "tracks"):
                if key not in entry:
                    raise ConfigError(f"videos entry {name!r} is missing {key!r}")
                if not isinstance(entry[key], str):
                    raise ConfigError(f"videos entry {name!r}: {key} must be a path, "
                                      f"got {entry[key]!r}")
                if not _readable(Path(entry[key])):
                    raise ConfigError(f"videos entry {name!r}: file not found: {entry[key]}")
            videos.append((name, f"videos entry {name!r}: {entry['gt']}",
                           _eval_rows(entry["gt"]), _eval_rows(entry["tracks"])))
    else:
        gt = config.path("gt")
        videos.append(("video_0", str(gt), _eval_rows(gt), _eval_rows(config.path("tracks"))))
    return videos


def _write_report(out_dir: Path, report: metrics.EvalReport,
                  pan_rows: list[dict], mparams: MetricsParams,
                  sweep_rows: list[dict], extra: dict | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "aggregate": {
            "mota": report.mota, "idf1": report.idf1, "idsw": report.idsw,
            "fp": report.fp, "fn": report.fn, "gt_total": report.gt_total,
        },
        "per_video": [
            {"name": r.name, "mota": r.mota, "idf1": r.idf1, "idsw": r.idsw,
             "fp": r.fp, "fn": r.fn, "gt_total": r.gt_total}
            for r in report.per_video
        ],
        "pan": {"delta": mparams.delta, "per_video": pan_rows},
    }
    if extra:
        payload.update(extra)
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out_dir / "report.txt").write_text(metrics.format_report_table(report))
    lines = ["video,delta,pan_idsw,proportion"]
    for row in sweep_rows:
        prop = "" if row["proportion"] is None else repr(row["proportion"])
        lines.append(f"{row['video']},{row['delta']},{row['pan_idsw']},{prop}")
    (out_dir / "pan_sweep.csv").write_text("\n".join(lines) + "\n")


def cmd_eval(config: RunConfig, out_dir: Path, extra: dict | None = None) -> int:
    videos = _eval_videos(config)
    grouped = []
    gt_tracks = []
    mparams = config.metrics
    for name, gt_label, gt_rows, pred_rows in videos:
        gt_rows, pred_rows = _clip_to_overlap(name, gt_rows, pred_rows)
        if not gt_rows:
            raise ValidationError(f"{gt_label}: no ground-truth rows to evaluate; "
                                  f"MOTA needs at least one")
        grouped.append((name,
                        core.group_boxes_by_frame(gt_rows),
                        core.group_boxes_by_frame(pred_rows)))
        gt_tracks.append(core.rows_to_tracks(gt_rows))
    report = metrics.evaluate(grouped, mparams.iou_threshold)
    pan_rows = []
    sweep_rows = []
    for row, tracks in zip(report.per_video, gt_tracks):
        (_, pan_count), *sweep = metrics.pan_sweep(tracks, [mparams.delta, *mparams.sweep])
        pan_rows.append({"name": row.name, "pan_idsw": pan_count,
                         "proportion": metrics.pan_proportion(pan_count, row.idsw)})
        sweep_rows += [{"video": row.name, "delta": delta, "pan_idsw": count,
                        "proportion": metrics.pan_proportion(count, row.idsw)}
                       for delta, count in sweep]
    _write_report(out_dir, report, pan_rows, mparams, sweep_rows, extra)
    print(metrics.format_report_table(report), end="")
    print(f"report -> {out_dir / 'report.json'}")
    return 0


def cmd_pipeline(config: RunConfig, seed: int, out_dir: Path,
                 mask_rosters: bool, method: str | None) -> int:
    """Run the stage commands in order: simulate (when configured), track, identify, eval.

    A simulating run reads every input from the bundle it writes, so a
    config that also names one of those inputs is an error, and so is a
    ``videos`` list: the run evaluates only the tracks it writes. Only
    that bundle passes between the stages in memory.
    """
    if config.videos:
        raise ConfigError("pipeline evaluates only the tracks it writes, so it cannot also "
                          "read videos; remove them or run eval on its own")
    paths = dict(config.paths)
    bundle = None
    if config.paths.get("detections") is None:
        if config.scenario is None:
            raise ConfigError("pipeline needs either paths.detections or a scenario section")
        stale = [f"paths.{name}" for name in sim.BUNDLE_FILES if config.paths.get(name) is not None]
        if stale:
            raise ConfigError(f"pipeline simulates its inputs, so it cannot also read "
                              f"{', '.join(stale)}; remove them or set paths.detections")
        bundle = cmd_simulate(config, seed, out_dir / "bundle")
        paths.update({name: str(out_dir / "bundle" / file)
                      for name, file in sim.BUNDLE_FILES.items()})
    # A run from files reports no accuracy: its score files cover ground-truth ids, not
    # the tracker's tracklets.
    paths.update(tracks=str(out_dir / "tracks.csv"), truth=None)
    run = replace(config, paths=paths)

    cmd_track(run, out_dir)
    accuracy = cmd_identify(run, out_dir, mask_rosters, method, bundle)
    cmd_eval(run, out_dir, {"identification_accuracy": accuracy} if accuracy else None)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _integer(text: str, low: int | None = None) -> int:
    """An integer argument in ASCII without underscores (int() alone reads ``1_0`` as 10
    and takes non-ASCII digits), and at least ``low`` when given."""
    try:
        value = int(text) if text.isascii() and "_" not in text else None
    except ValueError:
        value = None
    if value is None or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise argparse.ArgumentTypeError(f"must be an integer{bound}, got {text!r}")
    return value


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0, as numpy's generators take."""
    return _integer(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rinktrack",
                                     description="Track, identify, and evaluate rink players.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, ident_flags=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        if ident_flags:
            p.add_argument("--no-roster", action="store_true",
                           help="skip roster masking entirely")
            p.add_argument("--aggregation", choices=["avg", "majority"], default=None,
                           help="override the aggregation method")

    add_common(sub.add_parser("simulate", help="generate a synthetic scenario bundle"), seed=True)
    add_common(sub.add_parser("track", help="run the tracker over a detection file"))
    add_common(sub.add_parser("identify", help="assign team and jersey identity per tracklet"),
               ident_flags=True)
    add_common(sub.add_parser("eval", help="CLEAR MOT / IDF1 / pan-gap report"))
    add_common(sub.add_parser("pipeline", help="simulate (if configured), track, identify, eval"),
               seed=True, ident_flags=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "simulate":
            cmd_simulate(config, args.seed, out_dir)
            return 0
        if args.command == "track":
            return cmd_track(config, out_dir)
        if args.command == "identify":
            cmd_identify(config, out_dir, not args.no_roster, args.aggregation)
            return 0
        if args.command == "eval":
            return cmd_eval(config, out_dir)
        if args.command == "pipeline":
            return cmd_pipeline(config, args.seed, out_dir, not args.no_roster, args.aggregation)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, ScorerCoverageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
