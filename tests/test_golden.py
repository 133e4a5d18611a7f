"""``rinktrack pipeline`` output bytes on two small seeded scenes.

The hashes pin ``tracks.csv``, ``identities.json`` and ``report.json``, so
a change that means to keep every output byte-identical (a refactor of
the tracker, say) fails here at once rather than in the benchmark's
reference step. Update a hash only with a change that says why its
output moved.
"""

import hashlib
import json

import pytest

from rinktrack.cli import main

# The panning, noisy scene of the README chain, longer.
PANNED = {
    "scenario": {"players_per_team": 4, "num_referees": 1, "duration": 240,
                 "pan_profile": [[0, 0.0], [60, 0.0], [110, 300.0], [150, 300.0], [190, 0.0]],
                 "jitter_sigma": 1.0, "fp_rate": 0.03, "fn_rate": 0.03,
                 "visibility_profile": 0.5, "null_tracklet_rate": 0.3, "window": 20},
    "ident": {"window": 20},
}

# Many players on a small camera with a false positive on most frames and a
# short max_age: tracks are born, die and leave gaps in the live set every
# few frames.
DENSE = {
    "scenario": {"players_per_team": 8, "num_referees": 2, "duration": 150,
                 "camera_width": 480.0, "camera_height": 360.0,
                 "box_width": 24.0, "box_height": 48.0, "speed_range": [1.0, 8.0],
                 "direction_change_rate": 0.1, "jitter_sigma": 2.0,
                 "fp_rate": 0.6, "fn_rate": 0.15, "window": 10},
    "ident": {"window": 10},
    "tracker": {"max_age": 4, "min_hits": 2},
}

GOLDEN = {
    "panned": (PANNED, 7, {
        "tracks.csv": "08dc5c4ca7df2803078dbdffd40b20b16bc0043130de75d6648eb7a4b999b3dd",
        "identities.json": "3fb45077f2e6d10e72dd044c8b76426720ed353cdf744a1f0dad5b7e737b630e",
        "report.json": "f7bb3a7a0d507e92a5768056615e44b5c10beb0a61fb730a844c0ade07b7908c",
    }),
    "dense": (DENSE, 3, {
        "tracks.csv": "78110828d8dff25d1011a301c3578defd6700ea991289de9e161eabed39b30d2",
        "identities.json": "4ca6b44d317c0fd40b6ed58a3c72cf20240a6e5a8881772a3aef444ffa00e08d",
        "report.json": "20175638e5ebda158f98ce52464b7b2981c5ae912f93274f2f3d065644f4376d",
    }),
}


@pytest.mark.parametrize("scene", sorted(GOLDEN))
def test_pipeline_output_hashes(tmp_path, scene):
    config, seed, hashes = GOLDEN[scene]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--seed", str(seed), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in hashes}
    assert got == hashes
