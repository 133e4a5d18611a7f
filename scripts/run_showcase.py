"""End-to-end showcase on a noisy, panning scenario.

Simulates a rink scene with camera panning, detection noise, partial
number visibility, and an off-roster confusion; runs tracking,
identification (masked and unmasked), and evaluation; prints the metric
table, the accuracy comparison, and the pan-gap sweep.

Usage: python scripts/run_showcase.py [--seed N] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rinktrack import cli, core, metrics
from rinktrack.ident import IdentParams, Rosters, run_pipeline
from rinktrack.sim import ConfusionSpec, ScenarioConfig, generate, oracle_scorers
from rinktrack.tracker import TrackerParams, track


def build_config() -> ScenarioConfig:
    return ScenarioConfig(
        players_per_team=8,
        num_referees=2,
        duration=600,
        camera_width=960.0,
        camera_height=600.0,
        layout="free",
        box_width=28.0,
        box_height=52.0,
        speed_range=(0.5, 4.0),
        direction_change_rate=0.03,
        pan_profile=((0, 0.0), (120, 0.0), (220, 500.0), (380, 500.0), (480, 0.0)),
        jitter_sigma=0.8,
        fn_rate=0.02,
        fp_rate=0.02,
        visibility_profile=0.5,
        null_tracklet_rate=0.3,
        home_roster=(2, 4, 6, 10, 12, 14, 17, 21, 26, 31),
        away_roster=(1, 3, 5, 7, 9, 11, 19, 23, 29, 33),
        confusion={6: ConfusionSpec(substitute=8, prob=0.7, strength=1.0)},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=cli._seed, default=0)
    parser.add_argument("--out", default=None, help="optionally write the bundle here")
    args = parser.parse_args()

    config = build_config()
    bundle = generate(config, seed=args.seed)
    if args.out:
        bundle.write(args.out)
        print(f"bundle -> {args.out}\n")

    tracks = track(core.group_by_frame(bundle.detections), TrackerParams())
    print(f"{len(bundle.gt_tracks)} ground-truth tracks, {len(tracks)} tracker tracks\n")

    gt_rows = [(t.track_id, d) for t in bundle.gt_tracks for d in t.detections]
    report = metrics.evaluate([(
        f"seed_{args.seed}",
        core.group_boxes_by_frame(gt_rows),
        core.group_boxes_by_frame(core.tracks_to_rows(tracks)),
    )])
    print(metrics.format_report_table(report))

    scorers = oracle_scorers(bundle)
    rosters = Rosters(home=core.build_roster_vector(bundle.home_roster, bundle.vocab),
                      away=core.build_roster_vector(bundle.away_roster, bundle.vocab))
    results = run_pipeline(tracks, scorers, rosters, bundle.vocab, IdentParams())
    scored = [(result, want) for trk, result in zip(tracks, results)
              if (want := bundle.expected_class(trk)) is not None]
    accuracies = {
        "without rosters": sum(r.identity_unmasked == want for r, want in scored) / len(scored),
        "with rosters": sum(r.identity == want for r, want in scored) / len(scored),
    }
    print("identification accuracy")
    for label, acc in accuracies.items():
        print(f"  {label:<17} {100 * acc:6.2f}%")
    gain = accuracies["with rosters"] - accuracies["without rosters"]
    print(f"  roster gain       {100 * gain:+6.2f}%\n")

    print("pan-gap sweep (delta, count, share of identity switches)")
    for delta, count in metrics.pan_sweep(bundle.gt_tracks, range(40, 81, 5)):
        share = metrics.pan_proportion(count, report.idsw)
        shown = "n/a" if share is None else f"{share:.2f}"
        print(f"  {delta:>3}  {count:>3}  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
