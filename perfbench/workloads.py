"""The four workloads, their checks and their metrics.

Each ``run_*`` function repeats one workload's operation for about
``seconds`` seconds, checks every output, and returns ``(tally, samples)``:
the attempted/failed count and, per metric, one sample per repetition,
already scaled to the reference speed (``clock.py``).  The run reports the
median of each metric's samples.  Everything runs serially in this process
(``workers=1``, one SQLite connection per warehouse).

``peak_rss_mb`` is read right after each operation, before its outputs are
checked, and the checks themselves keep little in memory (``checks.py``), so
the process's peak is the program's.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench import checks
from perfbench.clock import ReferenceClock, scaled
from perfbench.spec import MONITOR_KINDS, SAMPLING_PERIOD, WORKLOADS, generation_config
from perfbench.tracing import LayerTrace, durations, hit_ratio, layer_span, telemetry_of, total
from repro.core.config import config_from_dict
from repro.core.pipeline import VitaPipeline
from repro.live import Monitor, replay
from repro.storage.export import import_warehouse
from repro.storage.repositories import DataWarehouse

#: Kinds that return rows, so ``Query.profile()`` counts scanned vs returned.
ROW_KINDS = ("floor-window-rows", "object-rows", "floor-window-limit", "fallback-filter")
#: Native trajectory operators outside the planner: no ``Query.profile()``.
NATIVE_KINDS = ("snapshot", "knn")
BACKENDS = ("memory", "sqlite")

#: Least repetitions of each workload's operation in one run.
MIN_GENERATIONS = 3
MIN_QUERIES = 1000
MIN_REPLAYS_PER_SETUP = 2
#: Queries of the mix (issued on each backend) between two reference loops:
#: four of each kind, about 0.2 s of queries at the reference speed.
SLICE_QUERIES = 40
#: Fresh set-ups of the read workloads, spread evenly across the run.
READ_SETUPS = 4


class Tally:
    """Attempted and failed operations; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, operation: Callable[[], List[str]], label: str) -> bool:
        """Run one operation; its return value lists the checks it failed."""
        self.attempted += 1
        try:
            problems = operation()
        except Exception:  # the run goes on: a crash is one failed operation
            self.failed += 1
            print(f"{label}: failed\n{traceback.format_exc()}", file=sys.stderr)
            return False
        if problems:
            self.failed += 1
            self.correct = False
            for problem in problems:
                print(f"{label}: {problem}", file=sys.stderr)
            return False
        return True


class Samples(dict):
    """``{metric: [one sample per repetition]}``."""

    def __missing__(self, name: str) -> list:
        self[name] = found = []
        return found

    def add(self, raw: Dict[str, float], factor: float) -> None:
        for name, value in scaled(raw, factor).items():
            self[name].append(value)

    def note_peak(self) -> None:
        """Record the process's peak resident memory so far (call it before
        an operation's outputs are checked).  ``ru_maxrss`` is in KiB."""
        self["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sqlite_bytes(path: Path) -> int:
    return sum(
        candidate.stat().st_size
        for candidate in (path, Path(f"{path}-wal"), Path(f"{path}-shm"))
        if candidate.exists()
    )


def _remove_db(path: Path) -> None:
    for candidate in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
        candidate.unlink(missing_ok=True)


def build_monitors(targets: dict) -> List[Monitor]:
    """The five standing monitors, one of each kind, named after their kind."""
    floor = targets["floor"]
    monitors = {
        "density": Monitor.density(floor=floor),
        "flow": Monitor.flow(*targets["flow"]),
        "geofence": Monitor.geofence(targets["region"], floor=floor),
        "knn": Monitor.knn(targets["point"], k=targets["k"], floor=floor),
        "visit_counts": Monitor.visit_counts(top_k=targets["top_k"]),
    }
    return [
        monitor.window(targets["window"]).slide(targets["slide"]).named(kind)
        for kind, monitor in monitors.items()
    ]


def window_values(report) -> Dict[str, list]:
    return {kind: [w.value for w in report.results[kind].windows] for kind in MONITOR_KINDS}


def check_windows(report, expected: Dict[str, list]) -> List[str]:
    got = window_values(report)
    return [
        f"monitor {kind}: windows differ from the brute-force recomputation"
        for kind in MONITOR_KINDS
        if not checks.windows_match(kind, got[kind], expected[kind])
    ]


def _load(inputs: Path, name: str):
    return json.loads((inputs / name).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# generate / generate-fingerprint
# --------------------------------------------------------------------------- #
def run_generate(workload: str, inputs: Path, work: Path, seed: int, seconds: float,
                 trace: Optional[LayerTrace]):
    """Repeat one streaming generation run (set-up included) until time is up.

    ``setup_s`` is the run's infrastructure phase (DBI import, decomposition,
    devices, spatial index, radio-map survey); ``throughput_per_s`` counts
    records stored per second from the end of set-up until the warehouse is
    flushed and attached monitors are finalised; ``op_p50_ms`` is that span.
    """
    spec = WORKLOADS[workload]
    targets = _load(inputs, "monitors.json")
    db_path = work / "generate.sqlite"
    config = generation_config(spec, seed, str(inputs / "building.ifc"), str(db_path),
                               telemetry=trace is not None)
    tally, samples, clock = Tally(), Samples(), ReferenceClock()
    reference: Dict[str, object] = {}

    def generation() -> List[str]:
        _remove_db(db_path)
        monitors = build_monitors(targets) if spec["monitors"] else None
        pipeline = VitaPipeline(config_from_dict(config))
        if trace is not None:
            trace.reset()
        clock.start()
        with layer_span(trace, "pipeline.run_streaming"):
            result = pipeline.run_streaming(monitors=monitors, telemetry=telemetry_of(trace))
        leading = clock.leading()
        factor = clock.factor()
        samples.note_peak()
        problems = _check_generation(spec, targets, result, reference)
        result.warehouse.close()
        report = result.report
        setup = report.timings["infrastructure"]
        generation_s = report.elapsed_seconds - setup
        raw = {
            "throughput_per_s": report.total_records / generation_s,
            "op_p50_ms": 1000.0 * generation_s,
            "trace.wall_s": setup + generation_s,
        }
        if trace is not None:
            raw.update(_generation_layers(trace, result, generation_s, setup, db_path))
        samples.add(raw, factor)
        samples.add({"setup_s": setup}, leading)
        return problems

    start = time.perf_counter()
    while tally.attempted < MIN_GENERATIONS or time.perf_counter() - start < seconds:
        tally.attempt(generation, f"{workload} repetition {tally.attempted + 1}")
    _remove_db(db_path)
    return tally, samples


def _check_generation(spec: dict, targets: dict, result,
                      reference: Dict[str, object]) -> List[str]:
    """The first repetition is checked in full; later ones must store exactly
    the same records and emit the same windows (seed -> records).  Stored
    rows stream out of the warehouse; only compact samples are kept."""
    problems = []
    datasets = ("trajectory", "rssi", "positioning")
    warehouse = result.warehouse
    stored = sum(warehouse.query(dataset).count() for dataset in datasets)
    stored += len(result.devices)
    if stored != result.report.total_records:
        problems.append(f"{stored} records read back, {result.report.total_records} written")
    fingerprint = checks.digest({dataset: warehouse.query(dataset).iter() for dataset in datasets})
    windows = window_values(result.live) if spec["monitors"] else {}
    if reference:
        if fingerprint != reference["digest"]:
            problems.append("stored records differ from the run's first repetition")
        if windows != reference["windows"]:
            problems.append("monitor windows differ from the run's first repetition")
        return problems
    reference.update(digest=fingerprint, windows=windows)
    trajectory = checks.samples(warehouse.query("trajectory").iter())
    estimates = checks.samples(warehouse.query("positioning").iter())
    polygons = checks.building_polygons(result.building)
    problems += checks.check_trajectory(trajectory, polygons, SAMPLING_PERIOD)
    problems += checks.check_positioning(trajectory, estimates, spec["method"])
    if spec["monitors"]:
        problems += check_windows(result.live, {
            kind: checks.expected_windows(kind, targets, trajectory) for kind in MONITOR_KINDS
        })
    return problems


def _generation_layers(trace: LayerTrace, result, generation_s: float, setup: float,
                       db_path: Path) -> Dict[str, float]:
    spans = trace.spans()
    counters = trace.counters()
    report = result.report
    decompose = total(spans, "building.decompose")
    ifc = total(spans, "ifc.process_file") - decompose
    survey = total(spans, "positioning.survey_grid")
    shards = total(spans, "shard")
    flush = total(spans, "flush")
    live = total(spans, "live.engine", "live.finalize")
    live_feed = live - total(spans, "live.finalize")
    # The parent's own share of the shard loop: buffering shard outputs into
    # the writer and merging shard telemetry, outside the shards themselves,
    # the flushes and the live engine's intake.
    merge = report.timings["generation"] - shards - flush - live_feed
    db_bytes = _sqlite_bytes(db_path)
    wall = setup + generation_s
    accounted = ifc + decompose + survey + shards + flush + live + merge
    return {
        "ifc.import_s": ifc,
        "building.decompose_s": decompose,
        "positioning.survey_s": survey,
        "positioning.survey_points": float(len(result.radio_map) if result.radio_map else 0),
        "mobility.busy_s": total(spans, "phase.moving_objects"),
        "rssi.busy_s": total(spans, "phase.rssi"),
        "positioning.busy_s": total(spans, "phase.positioning"),
        "positioning.windows": float(counters.get("generated.records.positioning", 0)),
        "spatial.route_hit_ratio": hit_ratio(report.cache_stats, "route"),
        "spatial.los_hit_ratio": hit_ratio(report.cache_stats, "los"),
        "streaming.merge_s": merge,
        "storage.flush_s": flush,
        "storage.flushes": float(counters.get("storage.flushes", 0)),
        "storage.rows_inserted": float(sum(
            value for name, value in counters.items() if name.startswith("storage.rows_inserted.")
        )),
        "storage.db_bytes": float(db_bytes),
        "storage.db_bytes_per_record": db_bytes / report.total_records,
        "live.attached_s": live,
        "trace.unaccounted_share": (wall - accounted) / wall,
    }


# --------------------------------------------------------------------------- #
# query-mix
# --------------------------------------------------------------------------- #
def query_call(warehouse: DataWarehouse, query: dict):
    """``(builder, terminal, keyword arguments)`` of one query of the mix."""
    kind = query["kind"]
    trajectory = warehouse.query("trajectory")
    if kind == "snapshot":
        return trajectory, "snapshot", {"t": query["t"], "tolerance": 1.0}
    if kind == "knn":
        return trajectory.on_floor(query["floor"]), "knn", {
            "x": query["x"], "y": query["y"], "t": query["t"], "k": query["k"], "tolerance": 1.0}
    if kind == "object-rows":
        return trajectory.where(object_id=query["object"]), "all", {}
    t0, t1 = query["t0"], query["t0"] + query["span"]
    if kind == "window-count":
        return trajectory.during(t0, t1), "count", {}
    if kind == "floor-window-rows":
        return trajectory.on_floor(query["floor"]).during(t0, t1), "all", {}
    if kind == "floor-window-limit":
        return trajectory.on_floor(query["floor"]).during(t0, t1).limit(query["limit"]), "all", {}
    if kind == "region-distinct":
        return trajectory.during(t0, t1).within(query["box"]), "distinct", {"column": "object_id"}
    if kind == "visit-counts":
        return trajectory.during(t0, t1), "count_by", {
            "by": "partition_id", "distinct": "object_id"}
    rssi = warehouse.query("rssi").during(t0, t1)
    if kind == "rssi-stats-by-device":
        return rssi, "stats", {"column": "rssi", "by": "device_id"}
    device = query["device"]
    return rssi.where(lambda row: row["device_id"] == device and row["rssi"] > -75.0), "all", {}


def profile_args(terminal: str, kwargs: dict) -> dict:
    """``Query.profile`` arguments equivalent to a terminal call."""
    if terminal == "count_by":
        return {"column": kwargs["distinct"], "by": kwargs["by"]}
    return {key: kwargs[key] for key in ("column", "by") if key in kwargs}


def _set_up(inputs: Path, work: Path, block: int, trace: Optional[LayerTrace],
            samples: Samples, clock: ReferenceClock, backends=BACKENDS):
    """Fresh warehouses loaded from the exported dataset (the read set-up).

    Each backend's import is scaled by the reference loops around it.
    """
    if trace is not None:
        trace.reset()
    warehouses = {}
    raw: Dict[str, float] = {"setup_s": 0.0}
    clock.start()
    for backend in backends:
        began = time.perf_counter()
        if backend == "memory":
            warehouse = DataWarehouse()
        else:
            path = work / f"read-{block}.sqlite"
            _remove_db(path)
            warehouse = DataWarehouse.open("sqlite", path=str(path))
        with layer_span(trace, "storage.import_warehouse", backend=backend):
            import_warehouse(inputs / "dataset", warehouse)
        elapsed = time.perf_counter() - began
        factor = clock.factor()
        warehouses[backend] = warehouse
        raw["setup_s"] += elapsed * factor
        if trace is not None:
            raw[f"storage.import_s.{backend}"] = factor * sum(
                durations(trace.spans(), "storage.import_warehouse", backend=backend))
    samples.add(raw, 1.0)
    return warehouses


def _close_all(warehouses: Dict[str, DataWarehouse], work: Path, block: int) -> None:
    for warehouse in warehouses.values():
        warehouse.close()
    _remove_db(work / f"read-{block}.sqlite")


def run_query_mix(workload: str, inputs: Path, work: Path, seed: int, seconds: float,
                  trace: Optional[LayerTrace]):
    """One client, closed loop: rounds of the fixed mix on both backends.

    Each round issues every query of the mix once per backend, the next
    query only after the previous answer has been checked.  Per round,
    ``throughput_per_s`` is queries over the time spent inside the query
    calls and ``op_p50_ms`` the round's median query latency.  Latencies are
    scaled slice by slice (``SLICE_QUERIES``), since a round lasts longer
    than the host holds one speed.
    """
    mix = _load(inputs, "queries.json")
    expected = _load(inputs, "expected.json")
    tally, samples, clock = Tally(), Samples(), ReferenceClock()
    latencies: List[float] = []
    profiles: Dict[tuple, List[dict]] = defaultdict(list)
    kind_ms: Dict[tuple, List[float]] = defaultdict(list)

    def issue(warehouses, queries: List[dict], answers: list):
        """Issue *queries* on both backends, checking each answer; returns the
        raw latencies and, when traced, the ``Query.profile()`` reports."""
        seconds_of: List[tuple] = []
        reports: List[tuple] = []
        for query, answer in zip(queries, answers):
            for backend in BACKENDS:
                builder, terminal, kwargs = query_call(warehouses[backend], query)

                def operation() -> List[str]:
                    began = time.perf_counter()
                    with layer_span(trace, "query." + terminal):
                        got = getattr(builder, terminal)(**kwargs)
                    seconds_of.append((query["kind"], backend, time.perf_counter() - began))
                    samples.note_peak()
                    if checks.answers_match(query["kind"], got, answer):
                        return []
                    return [f"{backend} answer differs from the brute-force one"]

                tally.attempt(operation, f"query {query['kind']} on {backend}")
                if trace is not None and terminal not in NATIVE_KINDS:
                    reports.append((query["kind"], backend, builder.profile(
                        terminal, **profile_args(terminal, kwargs))))
        return seconds_of, reports

    start = time.perf_counter()
    for block in range(READ_SETUPS):
        warehouses = _set_up(inputs, work, block, trace, samples, clock)
        deadline = start + seconds * (block + 1) / READ_SETUPS
        queries_needed = MIN_QUERIES * (block + 1) / READ_SETUPS
        rounds = 0
        while (rounds < 1 or time.perf_counter() < deadline
               or len(latencies) < queries_needed):
            rounds += 1
            round_latencies: List[float] = []
            clock.start()
            for first in range(0, len(mix), SLICE_QUERIES):
                # Each slice of the round is scaled by the reference loops
                # around it; the loop after one slice starts the next.
                seconds_of, slice_profiles = issue(
                    warehouses, mix[first:first + SLICE_QUERIES],
                    expected[first:first + SLICE_QUERIES])
                factor = clock.factor()
                for kind, backend, report in slice_profiles:
                    profiles[(kind, backend)].append({
                        "rows": report["rows"],
                        **{stage: value * factor for stage, value in report["stages"].items()},
                    })
                for kind, backend, elapsed in seconds_of:
                    round_latencies.append(elapsed * factor)
                    kind_ms[(kind, backend)].append(1000.0 * elapsed * factor)
            latencies.extend(round_latencies)
            busy = sum(round_latencies)
            samples.add({
                "throughput_per_s": len(round_latencies) / busy,
                "op_p50_ms": 1000.0 * statistics.median(round_latencies),
                "trace.wall_s": busy,
            }, 1.0)
        _close_all(warehouses, work, block)
    if trace is not None:
        _query_layers(samples, latencies, profiles, kind_ms)
    return tally, samples


def _query_layers(samples: Samples, latencies: List[float], profiles, kind_ms) -> None:
    """Per-kind latencies and ``Query.profile()`` splits, at the reference speed."""
    samples["query.p99_ms"].append(1000.0 * statistics.quantiles(latencies, n=100)[98])
    for (kind, backend), values in kind_ms.items():
        samples[f"query.{kind}.{backend}.p50_ms"].append(median(values))
    compile_ms: Dict[str, List[float]] = defaultdict(list)
    for (kind, backend), reports in profiles.items():
        prefix = f"query.{kind}.{backend}"
        for stage in ("backend", "residual"):
            samples[f"{prefix}.{stage}_ms"].append(
                1000.0 * median([report[f"{stage}_seconds"] for report in reports]))
        compile_ms[backend].extend(1000.0 * report["compile_seconds"] for report in reports)
        if kind in ROW_KINDS:
            scanned = sum(report["rows"]["scanned"] or 0 for report in reports)
            returned = sum(report["rows"]["returned"] or 0 for report in reports)
            samples[f"{prefix}.scanned_per_returned"].append(scanned / max(returned, 1))
    for backend, values in compile_ms.items():
        samples[f"query.compile_ms.{backend}"].append(median(values))
    # What the compile/backend/residual stages leave out of the profiled
    # total: plan building and hand-over between the stages.
    reports = [report for found in profiles.values() for report in found]
    staged = sum(report[stage] for report in reports
                 for stage in ("compile_seconds", "backend_seconds", "residual_seconds"))
    whole = sum(report["total_seconds"] for report in reports)
    samples["trace.unaccounted_share"].append((whole - staged) / whole)


# --------------------------------------------------------------------------- #
# monitor-replay
# --------------------------------------------------------------------------- #
def run_monitor_replay(workload: str, inputs: Path, work: Path, seed: int, seconds: float,
                       trace: Optional[LayerTrace]):
    """Replay all five monitors over an SQLite warehouse, pass after pass.

    ``throughput_per_s`` is trajectory records replayed per second of a
    pass; ``op_p50_ms`` is the pass time.
    """
    targets = _load(inputs, "monitors.json")
    expected = _load(inputs, "expected.json")
    monitors = build_monitors(targets)
    tally, samples, clock = Tally(), Samples(), ReferenceClock()
    start = time.perf_counter()
    for block in range(READ_SETUPS):
        warehouses = _set_up(inputs, work, block, trace, samples, clock, backends=("sqlite",))
        warehouse = warehouses["sqlite"]
        deadline = start + seconds * (block + 1) / READ_SETUPS
        passes = 0
        while passes < MIN_REPLAYS_PER_SETUP or time.perf_counter() < deadline:
            passes += 1

            def operation() -> List[str]:
                if trace is not None:
                    trace.reset()
                clock.start()
                began = time.perf_counter()
                with layer_span(trace, "live.replay"):
                    report = replay(warehouse, monitors, telemetry=telemetry_of(trace))
                elapsed = time.perf_counter() - began
                factor = clock.factor()
                samples.note_peak()
                raw = {
                    "throughput_per_s": report.records_seen / elapsed,
                    "op_p50_ms": 1000.0 * elapsed,
                    "trace.wall_s": elapsed,
                }
                if trace is not None:
                    spans = trace.spans()
                    engine = total(spans, "live.engine", "live.finalize")
                    raw.update({
                        "live.replay_engine_s": engine,
                        "live.replay_scan_s": total(spans, "live.replay") - engine,
                        "live.windows_finalized": float(sum(
                            len(result.windows) for result in report.results.values())),
                        "trace.unaccounted_share":
                            (elapsed - total(spans, "live.replay")) / elapsed,
                    })
                samples.add(raw, factor)
                return check_windows(report, expected)

            tally.attempt(operation, f"replay pass {tally.attempted + 1}")
        if trace is not None:
            # Each monitor kind alone: the engine time it costs by itself.
            for monitor, kind in zip(monitors, MONITOR_KINDS):
                trace.reset()
                clock.start()
                replay(warehouse, [monitor])
                spans = trace.spans()
                engine = total(spans, "live.engine", "live.finalize")
                samples.add({f"live.{kind}_s": engine}, clock.factor())
        _close_all(warehouses, work, block)
    return tally, samples


RUNNERS = {
    "generate": run_generate,
    "query-mix": run_query_mix,
    "monitor-replay": run_monitor_replay,
}


def run(workload: str, inputs: Path, work: Path, seed: int, seconds: float, trace: bool):
    """Measure *workload*; returns ``(tally, {metric: median of its samples})``,
    with the highest peak-memory reading in place of a median."""
    runner = RUNNERS[WORKLOADS[workload]["kind"]]
    if not trace:
        tally, samples = runner(workload, inputs, work, seed, seconds, None)
    else:
        with LayerTrace() as layer_trace:
            tally, samples = runner(workload, inputs, work, seed, seconds, layer_trace)
    values = {name: median(found) for name, found in samples.items()}
    values["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return tally, values
