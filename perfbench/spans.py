"""Spans around the calls into rinktrack's layers, installed from outside the package.

Each hook replaces one binding (a module attribute or a class attribute)
with a wrapper that counts calls and accumulates wall time. A function
imported by name into another module is a separate binding and gets its
own wrapper; bindings that share a span name add into one entry, so the
span name says which layer did the work, not which module called it.

Spans are aggregated in memory per name rather than kept one by one: the
showcase scene alone makes hundreds of thousands of ``match_gt`` calls.
Self time is a span's duration minus the time its direct child spans
cover; the time top-level spans cover is kept too, so that the time no
span covers can be reported.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute path, item counter or None). The counter
# receives the call's positional arguments, keyword arguments and result
# and returns how many items the call handled (the ``items`` of the span).
HOOKS = [
    ("tracker.track", "rinktrack.tracker", "track", None),
    ("tracker.track", "rinktrack.cli", "track", None),
    ("tracker.SortTracker.step", "rinktrack.tracker", "SortTracker.step",
     lambda args, kwargs, result: len(args[2] if len(args) > 2 else kwargs["detections"])),
    ("tracker.kf_predict", "rinktrack.tracker", "kf_predict", None),
    ("tracker.kf_update", "rinktrack.tracker", "kf_update", None),
    ("tracker.kf_initiate", "rinktrack.tracker", "kf_initiate", None),
    ("tracker.state_to_box", "rinktrack.tracker", "state_to_box", None),
    ("tracker.iou_matrix", "rinktrack.tracker", "iou_matrix", None),
    ("tracker.hungarian", "rinktrack.tracker", "hungarian", None),
    ("ident.run_pipeline", "rinktrack.ident", "run_pipeline", lambda args, kwargs, result: len(result)),
    ("ident.run_pipeline", "rinktrack.cli", "run_pipeline", lambda args, kwargs, result: len(result)),
    ("ident.team_vote", "rinktrack.ident", "team_vote", None),
    ("ident.window_probs", "rinktrack.ident", "window_probs", None),
    ("ident.jersey_visible", "rinktrack.ident", "jersey_visible", None),
    ("ident.aggregate", "rinktrack.ident", "aggregate", None),
    ("ident.aggregate_majority", "rinktrack.ident", "aggregate_majority", None),
    ("ident.identify", "rinktrack.ident", "identify", None),
    ("ident.FileFrameScorer", "rinktrack.ident", "FileFrameScorer.__init__", None),
    ("ident.FileTeamScorer", "rinktrack.ident", "FileTeamScorer.__init__", None),
    ("ident.FileWindowScorer", "rinktrack.ident", "FileWindowScorer.__init__", None),
    ("sim.generate", "rinktrack.sim", "generate", None),
    ("sim.GroundTruthBundle.write", "rinktrack.sim", "GroundTruthBundle.write", None),
    ("sim.GroundTruthBundle.match_gt", "rinktrack.sim", "GroundTruthBundle.match_gt", None),
    ("sim.GroundTruthBundle.expected_class", "rinktrack.sim", "GroundTruthBundle.expected_class", None),
    ("sim.OracleFrameScorer.score_frame", "rinktrack.sim", "OracleFrameScorer.score_frame", None),
    ("sim.OracleTeamScorer.score_frame", "rinktrack.sim", "OracleTeamScorer.score_frame", None),
    ("sim.OracleWindowScorer.score_window", "rinktrack.sim", "OracleWindowScorer.score_window", None),
    ("core.parse_detection_file", "rinktrack.core", "parse_detection_file",
     lambda args, kwargs, result: len(result)),
    ("core.save_detection_file", "rinktrack.core", "save_detection_file", None),
    ("core.save_detection_file", "rinktrack.sim", "save_detection_file", None),
    ("core.group_by_frame", "rinktrack.core", "group_by_frame", None),
    ("core.group_boxes_by_frame", "rinktrack.core", "group_boxes_by_frame", None),
    ("core.rows_to_tracks", "rinktrack.core", "rows_to_tracks", None),
    ("core.tracks_to_rows", "rinktrack.core", "tracks_to_rows", None),
    ("metrics.evaluate", "rinktrack.metrics", "evaluate", None),
    ("metrics.evaluate_video", "rinktrack.metrics", "evaluate_video", None),
    ("metrics.match_frames", "rinktrack.metrics", "match_frames", None),
    ("metrics.count_idsw", "rinktrack.metrics", "count_idsw", None),
    ("metrics.idf1_components", "rinktrack.metrics", "idf1_components", None),
    ("metrics.hungarian", "rinktrack.metrics", "hungarian", None),
    ("metrics.iou_matrix", "rinktrack.metrics", "iou_matrix", None),
    ("metrics.pan_sweep", "rinktrack.metrics", "pan_sweep", None),
    ("cli.cmd_simulate", "rinktrack.cli", "cmd_simulate", None),
    ("cli.cmd_track", "rinktrack.cli", "cmd_track", None),
    ("cli.cmd_identify", "rinktrack.cli", "cmd_identify", None),
    ("cli.cmd_eval", "rinktrack.cli", "cmd_eval", None),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Read the class's own dict so a method is patched where it is defined.
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Aggregated spans: name -> [calls, total_ns, child_ns, items]."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.absent: set[str] = set()
        self._stack = [[0]]  # child-time accumulator of each open span; [0] is the root
        self._patches = []  # (owner, attribute, original)
        self._resolved = []
        missing = []
        for name, module_name, path, counter in HOOKS:
            self.stats.setdefault(name, [0, 0, 0, 0])
            target = _resolve(module_name, path)
            if target is None:
                missing.append((name, f"{module_name}.{path}"))
            else:
                self._resolved.append((name, counter, *target))
        # A refactor may remove a hooked function: report its span as absent
        # instead of failing, so the rest of the trace still measures.
        hooked = {name for name, *_ in self._resolved}
        for name, target in missing:
            if name in hooked:
                print(f"warning: trace hook {target} not found; {name} counts only its other "
                      f"bindings", file=sys.stderr)
            else:
                self.absent.add(name)
                print(f"warning: trace hook {target} not found; reporting {name} as absent",
                      file=sys.stderr)

    @property
    def covered_ns(self) -> int:
        """Wall time spent inside top-level spans since the last reset."""
        return self._stack[0][0]

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0, 0, 0]
        self._stack[0][0] = 0

    def install(self) -> None:
        for name, counter, owner, attr, original in self._resolved:
            setattr(owner, attr, self._wrap(name, original, counter))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        entry = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += children[0]
            if counter is not None:
                entry[3] += counter(args, kwargs, result)
            return result

        return span

    def snapshot(self) -> dict[str, dict | None]:
        """Per span name: calls, seconds, self seconds, items; None when absent."""
        out = {}
        for name, (calls, total_ns, child_ns, items) in self.stats.items():
            if name in self.absent:
                out[name] = None
            else:
                out[name] = {"calls": calls, "s": total_ns / 1e9,
                             "self_s": (total_ns - child_ns) / 1e9, "items": items}
        return out
