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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import core, metrics, sim
from .core import ParseError, ValidationError
from .ident import (
    REFEREE_CLASS,
    FileFrameScorer,
    FileTeamScorer,
    FileWindowScorer,
    IdentParams,
    Rosters,
    ScorerCoverageError,
    Scorers,
    TrackIdentity,
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

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsParams":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})

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
        if not p.exists():
            raise ConfigError(f"paths.{name}: file not found: {p}")
        return p


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from None
    try:
        return RunConfig(
            paths=dict(data.get("paths", {})),
            videos=list(data.get("videos", [])),
            tracker=TrackerParams.from_dict(data.get("tracker", {})),
            ident=IdentParams.from_dict(data.get("ident", {})),
            metrics=MetricsParams.from_dict(data.get("metrics", {})),
            scenario=sim.ScenarioConfig.from_dict(data["scenario"]) if "scenario" in data else None,
        )
    except (TypeError, ValidationError) as exc:
        raise ConfigError(f"{p}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _generate_or_config_error(scenario: sim.ScenarioConfig, seed: int) -> sim.GroundTruthBundle:
    try:
        return sim.generate(scenario, seed)
    except ValidationError as exc:  # infeasible scenario is a config problem
        raise ConfigError(f"infeasible scenario: {exc}") from None


def cmd_simulate(config: RunConfig, seed: int, out_dir: Path) -> int:
    if config.scenario is None:
        raise ConfigError("simulate requires a scenario section in the config")
    bundle = _generate_or_config_error(config.scenario, seed)
    manifest = bundle.write(out_dir)
    print(f"bundle written to {out_dir} (seed {seed})")
    for name, path in sorted(manifest["files"].items()):
        print(f"  {name:14s} {path}")
    return 0


def cmd_track(config: RunConfig, out_dir: Path) -> int:
    rows = core.parse_detection_file(config.path("detections"))
    tracks = track(core.group_by_frame(rows), config.tracker)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "tracks.csv"
    core.save_detection_file(core.tracks_to_rows(tracks), out_path)
    print(f"{len(tracks)} tracks -> {out_path}")
    return 0


def _load_truth(path: Path) -> dict[int, sim.TrackTruth]:
    data = json.loads(path.read_text())
    truth = {}
    for tid, row in data["tracks"].items():
        truth[int(tid)] = sim.TrackTruth(
            team=row["team"],
            jersey=row["jersey"],
            null_tracklet=bool(row.get("null_tracklet", row["jersey"] is None)),
        )
    return truth


def expected_class_from_truth(truth: sim.TrackTruth, vocab: core.ClassVocabulary) -> int:
    if truth.team == "referee":
        return REFEREE_CLASS
    if truth.jersey is None:
        return vocab.null_index
    return vocab.index_of(truth.jersey)


def _jersey_of(identity: int, vocab: core.ClassVocabulary):
    if identity == REFEREE_CLASS:
        return "ref"
    return vocab.label_of(identity)  # None for the null class


def _identity_payload(masked: list[TrackIdentity] | None, unmasked: list[TrackIdentity],
                      vocab: core.ClassVocabulary) -> list[dict]:
    rows = []
    for i, result in enumerate(unmasked):
        row = {
            "track_id": result.track_id,
            "team": result.team.name.lower(),
            "identity_unmasked": result.identity,
            "jersey_unmasked": _jersey_of(result.identity, vocab),
            "p_jn": result.p_jn.values.tolist(),
        }
        if masked is not None:
            row["identity"] = masked[i].identity
            row["jersey"] = _jersey_of(masked[i].identity, vocab)
        else:
            row["identity"] = result.identity
            row["jersey"] = row["jersey_unmasked"]
        rows.append(row)
    return rows


def _accuracy(results: Sequence[TrackIdentity], expected: Mapping[int, int]) -> float | None:
    scored = [r for r in results if r.track_id in expected]
    if not scored:
        return None
    return sum(1 for r in scored if r.identity == expected[r.track_id]) / len(scored)


def _file_scorers(config: RunConfig, vocab: core.ClassVocabulary) -> Scorers:
    """The run's score files; jersey-score rows must have one entry per vocabulary class."""
    scorers = Scorers(
        team=FileTeamScorer(config.path("team_scores")),
        frame=FileFrameScorer(config.path("frame_scores")),
        window=FileWindowScorer(config.path("window_scores")),
    )
    for scores in (scorers.frame.scores, scorers.window.scores):
        if len(scores.values) and scores.width != vocab.num_classes:
            raise ValidationError(f"{scores.path}: score rows have {scores.width} classes, "
                                  f"vocabulary has {vocab.num_classes}")
    return scorers


def cmd_identify(config: RunConfig, out_dir: Path, mask_rosters: bool, method: str | None) -> int:
    tracks = core.rows_to_tracks(core.parse_detection_file(config.path("tracks")))
    vocab = core.ClassVocabulary.from_json(config.path("vocab"))
    params = config.ident if method is None else replace(config.ident, method=method)
    scorers = _file_scorers(config, vocab)
    rosters = None
    if mask_rosters:
        home, away = core.load_rosters(config.path("rosters"))
        rosters = Rosters(
            home=core.build_roster_vector(home, vocab),
            away=core.build_roster_vector(away, vocab),
        )

    unmasked = run_pipeline(tracks, scorers, rosters, vocab, params, mask_rosters=False)
    masked = None
    if mask_rosters:
        masked = run_pipeline(tracks, scorers, rosters, vocab, params, mask_rosters=True)

    payload: dict = {
        "aggregation": params.method,
        "roster_masking": mask_rosters,
        "tracks": _identity_payload(masked, unmasked, vocab),
    }

    truth_path = config.path("truth", required=False)
    if truth_path is not None:
        truth = _load_truth(truth_path)
        expected = {tid: expected_class_from_truth(t, vocab) for tid, t in truth.items()}
        accuracy: dict[str, float | None] = {"without_roster": _accuracy(unmasked, expected)}
        if masked is not None:
            accuracy["with_roster"] = _accuracy(masked, expected)
        payload["accuracy"] = accuracy

    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "identities.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"{len(tracks)} tracklets identified -> {out_path}")
    if "accuracy" in payload:
        for arm, value in sorted(payload["accuracy"].items()):
            if value is not None:
                print(f"  accuracy {arm}: {100 * value:.2f}%")
    return 0


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


def _eval_videos(config: RunConfig) -> list[tuple[str, list[core.Row], list[core.Row]]]:
    videos = []
    if config.videos:
        for entry in config.videos:
            name = entry.get("name", f"video_{len(videos)}")
            for key in ("gt", "tracks"):
                if key not in entry:
                    raise ConfigError(f"videos entry {name!r} is missing {key!r}")
                if not Path(entry[key]).exists():
                    raise ConfigError(f"videos entry {name!r}: file not found: {entry[key]}")
            videos.append((name,
                           core.parse_detection_file(entry["gt"]),
                           core.parse_detection_file(entry["tracks"])))
    else:
        videos.append(("video_0",
                       core.parse_detection_file(config.path("gt")),
                       core.parse_detection_file(config.path("tracks"))))
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
    pan_rows = []
    sweep_rows = []
    mparams = config.metrics
    for name, gt_rows, pred_rows in videos:
        gt_rows, pred_rows = _clip_to_overlap(name, gt_rows, pred_rows)
        grouped.append((name,
                        core.group_boxes_by_frame(gt_rows),
                        core.group_boxes_by_frame(pred_rows)))
        gt_tracks = core.rows_to_tracks(gt_rows)
        row, _ = metrics.evaluate_video(name, grouped[-1][1], grouped[-1][2], mparams.iou_threshold)
        pan_rows.append({
            "name": name,
            "pan_idsw": metrics.pan_idsw(gt_tracks, mparams.delta),
            "proportion": metrics.pan_proportion(gt_tracks, row.idsw, mparams.delta),
        })
        for delta, count in metrics.pan_sweep(gt_tracks, mparams.sweep):
            sweep_rows.append({
                "video": name, "delta": delta, "pan_idsw": count,
                "proportion": None if row.idsw == 0 else count / row.idsw,
            })
    report = metrics.evaluate(grouped, mparams.iou_threshold)
    _write_report(out_dir, report, pan_rows, mparams, sweep_rows, extra)
    print(metrics.format_report_table(report), end="")
    print(f"report -> {out_dir / 'report.json'}")
    return 0


def cmd_pipeline(config: RunConfig, seed: int, out_dir: Path,
                 mask_rosters: bool, method: str | None) -> int:
    """Simulate (when configured), then track, identify, and evaluate."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = None
    if config.paths.get("detections") is None:
        if config.scenario is None:
            raise ConfigError("pipeline needs either paths.detections or a scenario section")
        bundle = _generate_or_config_error(config.scenario, seed)
        bundle.write(out_dir / "bundle")
        config.paths.setdefault("detections", str(out_dir / "bundle" / "det.csv"))
        config.paths.setdefault("gt", str(out_dir / "bundle" / "gt.csv"))
        for name, filename in (("rosters", "rosters.json"), ("vocab", "vocab.json"),
                               ("truth", "truth.json"),
                               ("frame_scores", "frame_scores.jsonl"),
                               ("team_scores", "team_scores.jsonl"),
                               ("window_scores", "window_scores.jsonl")):
            config.paths.setdefault(name, str(out_dir / "bundle" / filename))

    cmd_track(config, out_dir)
    tracks = core.rows_to_tracks(core.parse_detection_file(out_dir / "tracks.csv"))

    vocab = (bundle.vocab if bundle is not None
             else core.ClassVocabulary.from_json(config.path("vocab")))
    params = config.ident if method is None else replace(config.ident, method=method)
    if bundle is not None:
        # Simulated runs score tracker tracklets through the bundle oracles;
        # the emitted score files only cover ground-truth track ids.
        frame_scorer, window_scorer, team_scorer = sim.oracle_scorers(bundle)
        scorers = Scorers(team=team_scorer, frame=frame_scorer, window=window_scorer)
    else:
        scorers = _file_scorers(config, vocab)
    rosters = None
    if mask_rosters:
        home, away = core.load_rosters(config.path("rosters"))
        rosters = Rosters(home=core.build_roster_vector(home, vocab),
                          away=core.build_roster_vector(away, vocab))

    unmasked = run_pipeline(tracks, scorers, rosters, vocab, params, mask_rosters=False)
    masked = run_pipeline(tracks, scorers, rosters, vocab, params, mask_rosters=True) \
        if mask_rosters else None

    payload: dict = {
        "aggregation": params.method,
        "roster_masking": mask_rosters,
        "tracks": _identity_payload(masked, unmasked, vocab),
    }
    accuracy: dict[str, float | None] = {}
    if bundle is not None:
        expected = {}
        for trk in tracks:
            want = bundle.expected_class(trk)
            if want is not None:
                expected[trk.track_id] = want
        accuracy["without_roster"] = _accuracy(unmasked, expected)
        if masked is not None:
            accuracy["with_roster"] = _accuracy(masked, expected)
        payload["accuracy"] = accuracy
    (out_dir / "identities.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    config.videos = []
    config.paths["tracks"] = str(out_dir / "tracks.csv")
    extra = {"identification_accuracy": accuracy} if accuracy else None
    cmd_eval(config, out_dir, extra)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rinktrack",
                                     description="Track, identify, and evaluate rink players.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, ident_flags=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
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
            return cmd_simulate(config, args.seed, out_dir)
        if args.command == "track":
            return cmd_track(config, out_dir)
        if args.command == "identify":
            return cmd_identify(config, out_dir, not args.no_roster, args.aggregation)
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
