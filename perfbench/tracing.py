"""Spans recorded from the benchmark's own files, around calls into each layer.

A traced run (``--trace 1``) switches on the telemetry the program already
ships -- the ``shard``/``phase.*``/``flush`` spans of the streaming pipeline,
the ``live.*`` and ``storage.*`` instruments, ``StreamingReport.timings`` and
``Query.profile()`` -- and adds spans of its own.  Some layer functions are
called by the benchmark directly (``VitaPipeline.run_streaming``,
``import_warehouse``, each ``Query`` terminal, ``repro.live.replay``), so a
span simply surrounds the call.  Others are called from inside the program
(``DBIProcessor.process_file``, the partition decomposition,
``RadioMap.survey_grid`` and the live engine's intake); for those the traced
run replaces the attribute with a wrapper that opens a span and calls the
original, and puts the original back when the run ends.  An untraced run
installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Dict, Iterable, List, Optional

from repro.building.editor import IndoorEnvironmentController
from repro.ifc.extractor import DBIProcessor
from repro.live.engine import LiveEngine
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.positioning.fingerprinting import RadioMap

#: Spans never drop: a run keeps every span until it is summarised.
SPAN_CAPACITY = 1_000_000

#: ``(owner, attribute, span name)`` of every call the traced run wraps.
WRAPPED = (
    (DBIProcessor, "process_file", "ifc.process_file"),
    (IndoorEnvironmentController, "decompose_irregular_partitions", "building.decompose"),
    (RadioMap, "survey_grid", "positioning.survey_grid"),
    (LiveEngine, "feed", "live.engine"),
    (LiveEngine, "end_shard", "live.engine"),
    (LiveEngine, "finalize", "live.finalize"),
)


class LayerTrace:
    """The traced run's span recorder.

    ``telemetry`` is the bundle handed to the program (so its own spans and
    counters land in the same tree as the benchmark's); :meth:`reset` starts
    a fresh one for the next repetition.
    """

    def __init__(self) -> None:
        self.telemetry = self._fresh()
        self._originals: List[tuple] = []

    @staticmethod
    def _fresh() -> Telemetry:
        return Telemetry(
            metrics=MetricsRegistry(enabled=True),
            tracer=Tracer(enabled=True, capacity=SPAN_CAPACITY),
        )

    def span(self, name: str, **attrs):
        return self.telemetry.tracer.span(name, **attrs)

    def reset(self) -> None:
        self.telemetry = self._fresh()

    def spans(self) -> List[dict]:
        return self.telemetry.tracer.export()

    def counters(self) -> Dict[str, int]:
        return self.telemetry.metrics.snapshot().get("counters", {})

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for owner, attribute, span_name in WRAPPED:
            raw = owner.__dict__[attribute]
            self._originals.append((owner, attribute, raw))
            setattr(owner, attribute, self._wrap(raw, span_name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def _wrap(self, raw, span_name: str):
        function = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                return function(*args, **kwargs)

        return classmethod(wrapper) if isinstance(raw, classmethod) else wrapper

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def layer_span(trace: Optional[LayerTrace], name: str, **attrs):
    """A span around one layer call in a traced run; nothing in an untraced one."""
    return trace.span(name, **attrs) if trace is not None else contextlib.nullcontext()


def telemetry_of(trace: Optional[LayerTrace]):
    """The telemetry to hand the program: the trace's, or the config's default."""
    return trace.telemetry if trace is not None else None


# --------------------------------------------------------------------------- #
# Summaries of a span list
# --------------------------------------------------------------------------- #
def total(spans: Iterable[dict], *names: str) -> float:
    """Summed duration of the spans called any of *names*, outermost only
    (a span inside another of the same names is already counted)."""
    spans = list(spans)
    by_id = {span["span_id"]: span for span in spans}
    found = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent_id"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent_id"])
        if parent is None:
            found += span["duration"] or 0.0
    return found


def durations(spans: Iterable[dict], name: str, **attrs) -> List[float]:
    """Durations of the spans called *name* whose attributes match *attrs*."""
    return [
        span["duration"] for span in spans
        if span["name"] == name and all(span["attrs"].get(k) == v for k, v in attrs.items())
    ]


def hit_ratio(cache_stats: Dict[str, int], cache: str) -> float:
    hits, misses = cache_stats.get(f"{cache}_hits", 0), cache_stats.get(f"{cache}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0
