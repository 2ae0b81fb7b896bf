"""REP103 fixture: hot function on arrays, cold function on dicts (silent)."""

import numpy as np


class Counter:
    def _rebuild(self, rows, cols, signs):
        # Int-indexed array work is exactly what the rule wants hot paths on.
        deltas = np.bincount(rows, minlength=8)
        empty = {}  # empty dict literal: allocation only, no label traffic
        return deltas, empty

    def summarize(self, per_label):
        # Not a registered hot path: dict work is fine here.
        return {label: count for label, count in per_label.items()}

    def _rebuild_metrics(self, timings):
        # Name does not match the manifest (``_rebuild`` exactly).
        return dict(timings)
