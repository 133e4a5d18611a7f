"""The oracle scorers against plain per-call references.

The references below score every frame and every window afresh:
each detection is matched to its ground-truth owner with ``match_gt``
at every call, a window's owner and visible count come from a loop over
its detections, and a seeded generator is built for every score. The
scorers must reproduce them bit for bit, draws included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinktrack.core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    Track,
    build_roster_vector,
    group_by_frame,
)
from rinktrack.ident import (
    REFEREE_CLASS,
    IdentParams,
    Rosters,
    run_pipeline,
    window_starts,
)
from rinktrack.sim import (
    _FRAME,
    _TEAM,
    _WINDOW,
    ConfusionSpec,
    GroundTruthBundle,
    ScenarioConfig,
    TrackTruth,
    generate,
    oracle_scorers,
)
from rinktrack.tracker import TrackerParams, track

VOCAB_LABELS = tuple(range(1, 13))


def ref_rng(bundle, salt, *keys):
    return np.random.default_rng([bundle.seed, salt, *[k & 0x7FFFFFFF for k in keys]])


def ref_visible(bundle, gt_id, frame):
    return frame in bundle.visible_frames.get(gt_id, frozenset())


def ref_spread_remainder(probs, exclude_null):
    rest = 1.0 - probs.sum()
    slots = probs == 0.0
    if exclude_null:
        slots[-1] = False
    if slots.any():
        probs[slots] += rest / slots.sum()
    else:
        probs[int(np.argmax(probs))] += rest
    return probs / probs.sum()


def ref_score_frame(bundle, track_, index):
    det = track_.detections[index]
    gt_id = bundle.match_gt(det.frame, det.box)
    n = bundle.vocab.num_classes
    rng = ref_rng(bundle, _FRAME, gt_id if gt_id is not None else -1, det.frame)
    probs = np.zeros(n)
    if gt_id is None:
        probs[-1] = 0.9
    elif ref_visible(bundle, gt_id, det.frame):
        truth = bundle.truth[gt_id]
        null_mass = rng.uniform(0.003, 0.012)
        probs[-1] = null_mass
        probs[bundle.vocab.index_of(truth.jersey)] = (1.0 - null_mass) * 0.85
    else:
        probs[-1] = rng.uniform(0.05, 0.99)
    return ref_spread_remainder(probs, exclude_null=True)


def ref_score_team(bundle, track_, index):
    det = track_.detections[index]
    gt_id = bundle.match_gt(det.frame, det.box)
    rng = ref_rng(bundle, _TEAM, gt_id if gt_id is not None else -1, det.frame)
    slot = {"home": 0, "away": 1, "referee": 2}
    chosen = 0 if gt_id is None else slot[bundle.truth[gt_id].team]
    if bundle.config.team_noise > 0 and rng.random() < bundle.config.team_noise:
        chosen = int(rng.choice([c for c in range(3) if c != chosen]))
    probs = np.full(3, 0.05)
    probs[chosen] = 0.9
    return probs


def ref_score_window(bundle, track_, start, length):
    vocab = bundle.vocab
    dets = track_.detections[start:start + length]
    owners = {}
    visible = 0
    for det in dets:
        gt_id = bundle.match_gt(det.frame, det.box)
        if gt_id is None:
            continue
        owners[gt_id] = owners.get(gt_id, 0) + 1
        if ref_visible(bundle, gt_id, det.frame):
            visible += 1
    probs = np.zeros(vocab.num_classes)
    if not owners:
        probs[-1] = 0.9
        return ref_spread_remainder(probs, exclude_null=True)
    gt_id = max(sorted(owners), key=lambda t: owners[t])
    truth = bundle.truth[gt_id]
    vis_frac = visible / len(dets)
    if truth.team == "referee" or truth.jersey is None or vis_frac == 0.0:
        probs[-1] = 0.85
        return ref_spread_remainder(probs, exclude_null=True)
    true_class = vocab.index_of(truth.jersey)
    spec = bundle.config.confusion.get(truth.jersey)
    rng = ref_rng(bundle, _WINDOW, gt_id, dets[0].frame)
    if spec is not None and rng.random() < spec.prob:
        probs[vocab.index_of(spec.substitute)] = 0.45 + 0.20 * spec.strength
        probs[true_class] = 0.40 - 0.30 * spec.strength
    else:
        probs[true_class] = 0.55 + 0.25 * vis_frac
    headroom = 1.0 - probs.sum()
    probs[-1] = min(0.30 * (1.0 - vis_frac), 0.8 * headroom)
    return ref_spread_remainder(probs, exclude_null=False)


def ref_expected_class(bundle, track_):
    votes = {}
    for det in track_.detections:
        tid = bundle.match_gt(det.frame, det.box)
        if tid is not None:
            votes[tid] = votes.get(tid, 0) + 1
    if not votes:
        return None
    truth = bundle.truth[max(sorted(votes), key=lambda t: votes[t])]
    if truth.team == "referee":
        return REFEREE_CLASS
    if truth.jersey is None:
        return bundle.vocab.null_index
    return bundle.vocab.index_of(truth.jersey)


def same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(bundle, tracklets, window, stride):
    """Every score of every tracklet, tracklets interleaved as a scorer may see them."""
    frame_scorer, window_scorer, team_scorer = oracle_scorers(bundle)
    for trk in tracklets:
        k = len(trk)
        for start in window_starts(k, window, stride):
            length = min(window, k)
            assert same(window_scorer.score_window(trk, start, length),
                        ref_score_window(bundle, trk, start, length)), (trk.track_id, start)
        for i in range(k):
            assert same(team_scorer.score_frame(trk, i), ref_score_team(bundle, trk, i))
            assert same(frame_scorer.score_frame(trk, i), ref_score_frame(bundle, trk, i))
        assert bundle.expected_class(trk) == ref_expected_class(bundle, trk)
    # A second sweep in reverse order: nothing may depend on what was scored before.
    for trk in reversed(tracklets):
        assert same(frame_scorer.score_frame(trk, len(trk) - 1),
                    ref_score_frame(bundle, trk, len(trk) - 1))
        assert same(window_scorer.score_window(trk, 0, min(window, len(trk))),
                    ref_score_window(bundle, trk, 0, min(window, len(trk))))


def owners_of(bundle, trk):
    return [bundle.match_gt(d.frame, d.box) for d in trk.detections]


def stitched(bundle, new_id):
    """A tracklet made of the first half of one ground-truth track and the rest of another."""
    a, b = bundle.gt_tracks[0], bundle.gt_tracks[1]
    cut = len(a.detections) // 2
    head = a.detections[:cut]
    tail = tuple(d for d in b.detections if d.frame > head[-1].frame) if head else b.detections
    return Track(track_id=new_id, detections=head + tail)


scenes = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "layout": st.sampled_from(["free", "lanes"]),
    "pan": st.booleans(),
    "jitter_sigma": st.sampled_from([0.0, 1.5, 4.0]),
    "fp_rate": st.sampled_from([0.0, 0.1, 0.4]),
    "fn_rate": st.sampled_from([0.0, 0.1]),
    "visibility_profile": st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    "null_tracklet_rate": st.sampled_from([0.0, 0.4]),
    "team_noise": st.sampled_from([0.0, 0.2, 1.0]),
    "confusion_prob": st.sampled_from([0.0, 0.5, 1.0]),
    "strength": st.sampled_from([0.0, 0.5, 1.0]),
    "window": st.integers(1, 9),
    "stride": st.integers(1, 3),
})


class TestOraclesMatchReference:
    @settings(max_examples=25, deadline=None)
    @given(scenes)
    def test_random_scenes(self, s):
        pan = ((0, 0.0), (15, 0.0), (30, 150.0), (40, 150.0), (55, 0.0)) if s["pan"] else ((0, 0.0),)
        config = ScenarioConfig(
            players_per_team=2, num_referees=1, duration=60,
            camera_width=320.0, camera_height=300.0, layout=s["layout"],
            box_width=24.0, box_height=40.0, speed_range=(1.0, 4.0), pan_profile=pan,
            jitter_sigma=s["jitter_sigma"], fp_rate=s["fp_rate"], fn_rate=s["fn_rate"],
            visibility_profile=s["visibility_profile"],
            null_tracklet_rate=s["null_tracklet_rate"], team_noise=s["team_noise"],
            vocab_labels=VOCAB_LABELS, home_roster=(1, 2, 3), away_roster=(4, 5, 6),
            confusion={1: ConfusionSpec(substitute=9, prob=s["confusion_prob"],
                                        strength=s["strength"])},
            window=s["window"], stride=s["stride"],
        )
        bundle = generate(config, seed=s["seed"])
        tracklets = list(bundle.gt_tracks)
        tracklets += track(group_by_frame(bundle.detections),
                           TrackerParams(min_hits=1, max_age=3))
        if len(bundle.gt_tracks) >= 2:
            tracklets.append(stitched(bundle, new_id=900))
        assert_matches_reference(bundle, tracklets, s["window"], s["stride"])

    def test_tracklets_that_change_owner(self):
        config = ScenarioConfig(
            players_per_team=3, num_referees=1, duration=80, camera_width=300.0,
            camera_height=240.0, layout="free", box_width=30.0, box_height=50.0,
            speed_range=(2.0, 5.0), jitter_sigma=2.0, fp_rate=0.2, visibility_profile=0.6,
            null_tracklet_rate=0.0, team_noise=0.3, vocab_labels=VOCAB_LABELS,
            confusion={2: ConfusionSpec(substitute=7, prob=0.6, strength=0.3)}, window=6)
        bundle = generate(config, seed=5)
        tracklets = track(group_by_frame(bundle.detections), TrackerParams(min_hits=1))
        tracklets.append(stitched(bundle, new_id=901))
        changing = [t for t in tracklets
                    if len({o for o in owners_of(bundle, t) if o is not None}) > 1]
        assert changing, "no tracklet changes owner; the scene does not test owner changes"
        assert_matches_reference(bundle, tracklets, window=6, stride=1)

    def test_owner_tie_inside_a_window_goes_to_the_smaller_id(self):
        def det(frame, x):
            return Detection(frame=frame, box=BoundingBox(x, 10.0, 20.0, 30.0), confidence=1.0)

        # Track 5 stands at x=0 and track 2 at x=100 in every frame.
        gt_tracks = [Track(track_id=5, detections=tuple(det(f, 0.0) for f in range(8))),
                     Track(track_id=2, detections=tuple(det(f, 100.0) for f in range(8)))]
        truth = {5: TrackTruth(team="home", jersey=3, null_tracklet=False),
                 2: TrackTruth(team="away", jersey=4, null_tracklet=False)}
        config = ScenarioConfig(
            players_per_team=1, num_referees=0, duration=8, camera_width=400.0,
            camera_height=320.0, box_width=20.0, box_height=30.0, vocab_labels=VOCAB_LABELS,
            team_noise=0.5, window=4,
            confusion={4: ConfusionSpec(substitute=9, prob=0.5, strength=1.0)})
        bundle = GroundTruthBundle(
            config=config, seed=3, vocab=ClassVocabulary(labels=VOCAB_LABELS),
            home_roster=(3,), away_roster=(4,), gt_tracks=gt_tracks, truth=truth,
            visible_frames={5: frozenset({0, 1, 2}), 2: frozenset({3, 4, 6})},
            pan_gaps=[], detections=[])
        # Two frames on track 5, then two on track 2, then one unmatched box, ...
        tracklet = Track(track_id=77, detections=(
            det(0, 0.0), det(1, 0.0), det(2, 100.0), det(3, 100.0),
            det(4, 300.0), det(5, 0.0), det(6, 100.0), det(7, 0.0)))
        window_scorer = oracle_scorers(bundle).window
        tied = window_scorer.score_window(tracklet, 0, 4)
        assert same(tied, ref_score_window(bundle, tracklet, 0, 4))
        # The tie goes to track 2 (jersey 4), which comes second in the tracklet.
        top = int(np.argmax(tied))
        assert top in (bundle.vocab.index_of(4), bundle.vocab.index_of(9))
        assert_matches_reference(bundle, [tracklet, gt_tracks[0], gt_tracks[1]],
                                 window=4, stride=1)
        assert bundle.expected_class(tracklet) == ref_expected_class(bundle, tracklet)


@pytest.mark.parametrize("method", ["avg", "majority"])
def test_masked_run_reports_the_unmasked_arm(method):
    """A masked run's ``identity_unmasked`` is what an unmasked run reports."""
    config = ScenarioConfig(
        players_per_team=4, num_referees=1, duration=120, camera_width=480.0,
        camera_height=300.0, layout="free", box_width=24.0, box_height=40.0,
        jitter_sigma=1.0, fp_rate=0.05, fn_rate=0.05, visibility_profile=0.4,
        null_tracklet_rate=0.2, team_noise=0.1, vocab_labels=VOCAB_LABELS,
        home_roster=(1, 2, 3, 4), away_roster=(5, 6, 7, 8),
        confusion={n: ConfusionSpec(substitute=12, prob=0.8, strength=1.0) for n in range(1, 9)},
        window=10)
    bundle = generate(config, seed=11)
    tracklets = track(group_by_frame(bundle.detections), TrackerParams(min_hits=1))
    scorers = oracle_scorers(bundle)
    rosters = Rosters(home=build_roster_vector(bundle.home_roster, bundle.vocab),
                      away=build_roster_vector(bundle.away_roster, bundle.vocab))
    params = IdentParams(window=10, method=method)
    masked = run_pipeline(tracklets, scorers, rosters, bundle.vocab, params, mask_rosters=True)
    unmasked = run_pipeline(tracklets, scorers, rosters, bundle.vocab, params, mask_rosters=False)
    assert [r.identity_unmasked for r in masked] == [r.identity for r in unmasked]
    assert [r.identity_unmasked for r in unmasked] == [r.identity for r in unmasked]
    assert [r.team for r in masked] == [r.team for r in unmasked]
    assert any(m.identity != m.identity_unmasked for m in masked)  # the mask did act
