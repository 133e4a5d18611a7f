"""Sweep the visibility threshold and report presence-classification accuracy.

For each threshold, a tracklet is declared number-visible when any frame's
null probability falls below it; accuracy is measured against the
generator's record of which tracklets ever show their number.

Usage: python scripts/theta_sweep.py [--seed N] [--scenarios N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rinktrack import cli
from rinktrack.ident import jersey_visible
from rinktrack.sim import ScenarioConfig, generate, oracle_scorers

THETAS = (0.0033, 0.01, 0.03, 0.09, 0.27, 0.81)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=cli._seed, default=0)
    parser.add_argument("--scenarios", type=cli._integer, default=10)
    args = parser.parse_args()
    if args.scenarios < 1:
        parser.error(f"--scenarios must be at least 1, got {args.scenarios}")

    config = ScenarioConfig(
        players_per_team=6,
        num_referees=1,
        duration=150,
        camera_width=640.0,
        camera_height=720.0,
        layout="lanes",
        box_width=24.0,
        box_height=40.0,
        speed_range=(0.5, 2.5),
        visibility_profile=0.35,
        null_tracklet_rate=0.5,
    )

    hits = dict.fromkeys(THETAS, 0)
    total = 0
    for offset in range(args.scenarios):
        bundle = generate(config, seed=args.seed + offset)
        frame_scorer = oracle_scorers(bundle).frame
        for trk in bundle.gt_tracks:
            truly_visible = len(bundle.visible_frames[trk.track_id]) > 0
            total += 1
            for theta in THETAS:
                hits[theta] += int(jersey_visible(trk, frame_scorer, theta) == truly_visible)

    print(f"{'theta':>8}  {'accuracy':>8}")
    for theta in THETAS:
        print(f"{theta:>8.4f}  {100 * hits[theta] / total:>7.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
