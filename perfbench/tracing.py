"""Spans around the benchmark's calls into hypca, and the per-layer
figures derived from them.

A span has a name, a start, an end, its parent span and a few counts.
Spans stay in memory and are written once, when the run ends.  With
tracing off, `span` hands out one shared inert record, so the untraced
run pays for a function call and nothing else.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    source: str                 # "case": the workload; "probe": see below
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def count(self, **values) -> None:
        for k, v in values.items():
            self.counts[k] = self.counts.get(k, 0) + v


class _Inert:
    def count(self, **values) -> None:
        pass


_INERT = _Inert()


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self.source = "case"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield _INERT
            return
        sp = Span(len(self.spans), name,
                  self._stack[-1] if self._stack else None, self.source)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, spans=[asdict(s) for s in self.spans])
        path.write_text(json.dumps(doc))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# per-layer metric: (name, unit, layer, how it is derived)
#   ("self", span)            total self time of the spans
#   ("count", span, key)      total of a count on the spans
#   ("per", span, key, scale) self time per unit of a count, times scale
#   ("median", span)          median duration of the spans
LAYER_METRICS = (
    ("region.build_s", "s", "region", ("self", "region.build")),
    ("region.cells", "count", "region", ("count", "region.build", "cells")),
    ("region.us_per_cell", "us", "region",
     ("per", "region.build", "cells", 1e6)),
    ("region.json_write_s", "s", "region.json",
     ("self", "region.json_write")),
    ("region.json_read_s", "s", "region.json", ("self", "region.json_read")),
    ("region.json_mb", "MB", "region.json",
     ("count", "region.json_write", "mb")),
    ("embed.expand_s", "s", "embed", ("self", "embed.expand")),
    ("embed.rules", "count", "embed", ("count", "embed.expand", "rules")),
    ("symmetry.invariance_s", "s", "symmetry",
     ("self", "symmetry.invariance")),
    ("symmetry.us_per_rule", "us", "symmetry",
     ("per", "symmetry.invariance", "rules", 1e6)),
    ("verify.s", "s", "verify", ("self", "verify.scan")),
    ("verify.scans", "count", "verify", ("count", "verify.scan", "scans")),
    ("verify.matched", "count", "verify",
     ("count", "verify.scan", "matched")),
    ("verify.multi_reading", "count", "verify",
     ("count", "verify.scan", "multi_reading")),
    ("verify.us_per_scan", "us", "verify",
     ("per", "verify.scan", "scans", 1e6)),
    ("engine.init_s", "s", "engine", ("self", "engine.init")),
    ("engine.run_s", "s", "engine", ("self", "engine.run")),
    ("engine.steps", "count", "engine", ("count", "engine.run", "steps")),
    ("engine.changed_cells", "count", "engine",
     ("count", "engine.run", "changed")),
    ("engine.check_s", "s", "engine", ("self", "engine.check")),
    ("ca1d.oracle_s", "s", "ca1d", ("self", "ca1d.oracle")),
    ("render.s", "s", "render", ("self", "render.svg")),
    ("render.paths", "count", "render", ("count", "render.svg", "paths")),
    ("render.us_per_path", "us", "render",
     ("per", "render.svg", "paths", 1e6)),
    ("render.svg_mb", "MB", "render", ("count", "render.svg", "mb")),
    ("cli.import_s", "s", "cli.import", ("median", "cli.import")),
    ("cli.transform_s", "s", "cli", ("self", "cli.transform")),
    ("cli.verify_s", "s", "cli", ("self", "cli.verify")),
    ("cli.simulate_s", "s", "cli", ("self", "cli.simulate")),
    ("cli.render_s", "s", "cli", ("self", "cli.render")),
)

# the span names each layer owns, for choosing between case and probe spans
_LAYER_SPANS: dict[str, set[str]] = {}
for _name, _unit, _layer, _how in LAYER_METRICS:
    _LAYER_SPANS.setdefault(_layer, set()).add(_how[1])


def layer_metrics(spans: list[Span], extra: dict) -> dict:
    """Per-layer figures from the spans, plus the already-derived values
    in `extra` (name -> (value, unit)).

    A layer's figures come from the workload's own spans when it has any.
    A layer the workload never calls is measured on the probe spans
    instead, so that every traced run reports every layer.
    """
    own = self_times(spans)
    chosen: dict[str, list[Span]] = {}
    for layer, names in _LAYER_SPANS.items():
        case = [s for s in spans if s.name in names and s.source == "case"]
        chosen[layer] = case or [s for s in spans if s.name in names]
    out = {}
    for name, unit, layer, how in LAYER_METRICS:
        sel = [s for s in chosen[layer] if s.name == how[1]]
        if how[0] == "self":
            value = sum(own[s.id] for s in sel)
        elif how[0] == "count":
            value = sum(s.counts.get(how[2], 0) for s in sel)
        elif how[0] == "per":
            total = sum(s.counts.get(how[2], 0) for s in sel)
            value = how[3] * sum(own[s.id] for s in sel) / max(total, 1)
        else:
            value = statistics.median(s.end - s.start for s in sel) \
                if sel else 0.0
        out[name] = {"value": value, "unit": unit}
    for name, (value, unit) in extra.items():
        out[name] = {"value": value, "unit": unit}
    return out
