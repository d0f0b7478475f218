"""Spans around the public functions of each minweight layer.

The tracer wraps functions from outside the program: module attributes in
the namespace where the caller looks them up, and methods on their class.
Each call becomes one span (name, start, end, parent span, trial id, and
whether an enclosing span has the same name).  Spans stay in memory until
the run ends.  A trial starts with its single `rngs.stream` call, which is
where the tracer advances the trial id.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# (span name, module holding the callable, attribute path inside it)
TARGETS = (
    ("rngs.stream", "montecarlo", "stream"),
    ("rngs.stream_id", "montecarlo", "stream_id"),
    ("weights.sample", "weights", "sample"),
    ("weights.sample", "patching", "sample"),
    ("weights.split_coupling_batch", "weights", "split_coupling_batch"),
    ("families.WeightAssignment", "families", "WeightAssignment.__init__"),
    ("families.WeightAssignment.total", "families", "WeightAssignment.total"),
    ("families.SpanningTreeFamily.init", "families", "SpanningTreeFamily.__init__"),
    ("families.SpanningTreeFamily.min_weight", "families",
     "SpanningTreeFamily.min_weight"),
    ("families.SpanningTreeFamily.cheapest_completion", "families",
     "SpanningTreeFamily.cheapest_completion"),
    ("families.SpanningTreeFamily.min_patch_size", "families",
     "SpanningTreeFamily.min_patch_size"),
    ("families.SpanningTreeFamily.budget_forest", "families",
     "SpanningTreeFamily.budget_forest"),
    ("families.MatchingFamily.init", "families", "MatchingFamily.__init__"),
    ("families.MatchingFamily.min_weight", "families", "MatchingFamily.min_weight"),
    ("families.MatchingFamily.assignment_ladder", "families",
     "MatchingFamily.assignment_ladder"),
    ("patching.sample_depleted_set", "patching", "sample_depleted_set"),
    ("patching.exact_patch", "patching", "exact_patch"),
    ("patching.component_patch", "patching", "component_patch"),
    ("dual.defect_under_budget", "dual", "defect_under_budget"),
    ("dual.cheapest_within_distance", "dual", "cheapest_within_distance"),
    ("montecarlo.run", "montecarlo", "run"),
    ("cli.render_csv", "cli", "render_csv"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
TRIAL_START = "rngs.stream"


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self._saved: list[tuple[object, str, object, bool]] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.trial = -1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path in TARGETS:
            owner = self._modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        starts_trial = name == TRIAL_START

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if starts_trial:
                self.trial += 1
            parent = stack[-1] if stack else -1
            nested = active.get(name, 0)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[name] = nested + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] = nested
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial, nested > 0)

        return span

    def layer_metrics(self) -> dict[str, dict]:
        """calls, inclusive ms and self ms for every layer in LAYERS."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = {"value": 0, "unit": "count"}
            out[f"{layer}.ms"] = {"value": 0.0, "unit": "ms"}
            out[f"{layer}.self_ms"] = {"value": 0.0, "unit": "ms"}
        for idx, (name, start, end, _, _, nested) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"]["value"] += 1
            if not nested:
                out[f"{name}.ms"]["value"] += 1e3 * dur
            out[f"{name}.self_ms"]["value"] += 1e3 * (dur - child[idx])
        return out

    def root_seconds(self, since: int = 0) -> float:
        """Time covered by spans with no parent, from span `since` on."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[3] < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "trial", "nested"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
