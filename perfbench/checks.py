"""Independent checks of the program's outputs.

Everything here is computed by the benchmark itself, from plain rows, without
calling the program's query, geometry or live-monitor code: a ray-casting
point-in-polygon test, per-object sample spacing, positioning error against
the ground truth, brute-force query answers over the exported CSV rows and
brute-force sliding-window monitor results.  Each check returns a list of
problems; an empty list means the output is correct.

The checks keep little in memory, so that the benchmark process's peak
resident memory stays the program's: stored records are fingerprinted as they
stream out of the warehouse, trajectories are held as compact ``Sample``
tuples, and the expected query answers and monitor windows of the read
workloads are computed in the input-making child (``inputs.py``) and handed
over as small fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Median positioning error (metres, estimate vs interpolated ground truth)
#: that each method must stay inside, and the least share of joined
#: estimates that must name the right floor.  Measured on the generate
#: workloads at seeds 1-10: trilateration 7.7-9.0 m, fingerprinting kNN
#: 2.3-2.7 m, floor hit rate 0.978-1.0.
ERROR_RANGE_M = {"trilateration": (4.0, 14.0), "fingerprinting": (1.0, 5.0)}
MIN_FLOOR_HIT = 0.9

#: Relative tolerance for floating-point aggregates and kNN distances: the
#: memory and SQLite engines sum and subtract in different orders.
FLOAT_TOL = 1e-9


# --------------------------------------------------------------------------- #
# Rows
# --------------------------------------------------------------------------- #
def _opt_float(value) -> Optional[float]:
    return None if value in (None, "") else float(value)


def trajectory_row(raw: dict) -> dict:
    """A CSV trajectory row with the column types the engines return."""
    return {
        "object_id": raw["object_id"],
        "t": float(raw["t"]),
        "building_id": raw["building_id"],
        "floor_id": int(raw["floor_id"]),
        "partition_id": raw["partition_id"] or None,
        "x": _opt_float(raw["x"]),
        "y": _opt_float(raw["y"]),
    }


def rssi_row(raw: dict) -> dict:
    return {
        "object_id": raw["object_id"],
        "device_id": raw["device_id"],
        "rssi": float(raw["rssi"]),
        "t": float(raw["t"]),
    }


def positioning_row(raw: dict) -> dict:
    row = trajectory_row(raw)
    row["method"] = raw["method"]
    return row


class Sample(NamedTuple):
    """One trajectory sample or positioning estimate, without the dict."""

    object_id: str
    t: float
    floor_id: int
    partition_id: Optional[str]
    x: float
    y: float


def samples(rows: Iterable[dict]) -> List[Sample]:
    """Compact samples of trajectory or positioning rows in time order (ties
    keep their input order, as the engines promise)."""
    return sorted(
        (Sample(row["object_id"], row["t"], row["floor_id"], row["partition_id"],
                row["x"], row["y"]) for row in rows),
        key=lambda sample: sample.t,
    )


def _row_key(row: dict) -> bytes:
    # Numbers compare as floats, as ``==`` does between 1 and 1.0.
    return repr(sorted(
        (key, float(value) if isinstance(value, (int, float)) else value)
        for key, value in row.items()
    )).encode()


def digest(rows_by_dataset: Dict[str, Iterable[dict]]) -> str:
    """An order-independent fingerprint of every stored record.

    Rows are consumed one at a time: each dataset contributes its row count
    and the sum of its rows' SHA-256 values, so no row list is kept.
    """
    sha = hashlib.sha256()
    for dataset in sorted(rows_by_dataset):
        count, summed = 0, 0
        for row in rows_by_dataset[dataset]:
            count += 1
            summed += int.from_bytes(hashlib.sha256(_row_key(row)).digest(), "big")
        sha.update(f"{dataset}:{count}:{summed % (1 << 256):064x}".encode())
    return sha.hexdigest()


def rows_fingerprint(rows: Iterable[dict]) -> dict:
    """``{"rows": count, "sha256": ...}`` of a row sequence, order included."""
    sha = hashlib.sha256()
    count = 0
    for row in rows:
        count += 1
        sha.update(_row_key(row))
    return {"rows": count, "sha256": sha.hexdigest()}


# --------------------------------------------------------------------------- #
# Generation outputs
# --------------------------------------------------------------------------- #
def point_in_polygon(x: float, y: float, vertices: Sequence[Tuple[float, float]],
                     edge_tol: float = 1e-6) -> bool:
    """Even-odd ray casting; a point within *edge_tol* of an edge is inside."""
    inside = False
    count = len(vertices)
    for i in range(count):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % count]
        dx, dy = x2 - x1, y2 - y1
        length2 = dx * dx + dy * dy
        u = 0.0 if length2 == 0 else max(0.0, min(1.0, ((x - x1) * dx + (y - y1) * dy) / length2))
        if math.hypot(x - (x1 + u * dx), y - (y1 + u * dy)) <= edge_tol:
            return True
        if (y1 > y) != (y2 > y):
            crossing = x1 + (y - y1) * dx / dy
            if x < crossing:
                inside = not inside
    return inside


def building_polygons(building) -> Dict[Tuple[int, str], List[Tuple[float, float]]]:
    """``(floor_id, partition_id) -> [(x, y), ...]`` of every partition."""
    polygons = {}
    for floor_id in building.floor_ids:
        for partition_id, partition in building.floor(floor_id).partitions.items():
            polygons[(floor_id, partition_id)] = [
                (vertex.x, vertex.y) for vertex in partition.polygon.vertices
            ]
    return polygons


def check_trajectory(trajectory: Sequence[Sample], polygons: dict,
                     period: float) -> List[str]:
    """Every sample lies in the partition it names; samples are *period* apart."""
    problems = []
    outside = [
        sample for sample in trajectory
        if (sample.floor_id, sample.partition_id) not in polygons
        or not point_in_polygon(
            sample.x, sample.y, polygons[(sample.floor_id, sample.partition_id)])
    ]
    if outside:
        first = outside[0]
        problems.append(
            f"{len(outside)} of {len(trajectory)} trajectory samples lie outside their "
            f"partition (first: {first.object_id} t={first.t} {first.partition_id} "
            f"({first.x:.3f}, {first.y:.3f}))"
        )
    last: Dict[str, float] = {}
    bad = 0
    for sample in trajectory:  # time order
        previous = last.get(sample.object_id)
        if previous is not None and abs(sample.t - previous - period) > 1e-6:
            bad += 1
        last[sample.object_id] = sample.t
    if bad:
        problems.append(f"{bad} consecutive trajectory samples are not {period} s apart")
    return problems


def positioning_error(trajectory: Sequence[Sample], estimates: Sequence[Sample]) -> dict:
    """Join estimates to the ground truth and measure the error.

    An estimate at time ``t`` (the middle of its positioning window) is
    compared with the object's true position linearly interpolated between
    its samples at ``floor(t)`` and ``ceil(t)``; estimates whose object has
    no sample on both sides are not joined.
    """
    truth = {(sample.object_id, sample.t): sample for sample in trajectory}
    errors, floor_hits, joined = [], 0, 0
    for estimate in estimates:
        t = estimate.t
        before = truth.get((estimate.object_id, float(math.floor(t))))
        after = truth.get((estimate.object_id, float(math.ceil(t))))
        if before is None or after is None:
            continue
        joined += 1
        same_floor = [row for row in (before, after) if row.floor_id == estimate.floor_id]
        if not same_floor:
            continue
        floor_hits += 1
        if len(same_floor) == 2:
            share = t - math.floor(t)
            x = before.x + share * (after.x - before.x)
            y = before.y + share * (after.y - before.y)
        else:
            x, y = same_floor[0].x, same_floor[0].y
        errors.append(math.hypot(estimate.x - x, estimate.y - y))
    return {
        "joined": joined,
        "median_error_m": statistics.median(errors) if errors else math.inf,
        "floor_hit": floor_hits / joined if joined else 0.0,
    }


def check_positioning(trajectory: Sequence[Sample], estimates: Sequence[Sample],
                      method: str) -> List[str]:
    """Positioning error stays inside the method's stated range."""
    low, high = ERROR_RANGE_M[method]
    error = positioning_error(trajectory, estimates)
    problems = []
    if error["joined"] < 0.9 * len(estimates):
        problems.append(
            f"only {error['joined']} of {len(estimates)} estimates join the ground truth")
    if not low <= error["median_error_m"] <= high:
        problems.append(
            f"{method} median error {error['median_error_m']:.2f} m outside [{low}, {high}] m"
        )
    if error["floor_hit"] < MIN_FLOOR_HIT:
        problems.append(f"{method} floor hit rate {error['floor_hit']:.3f} < {MIN_FLOOR_HIT}")
    return problems


# --------------------------------------------------------------------------- #
# Query answers (brute force over the exported rows)
# --------------------------------------------------------------------------- #
def _in_window(row: dict, t0: float, span: float, column: str = "t") -> bool:
    return t0 <= row[column] <= t0 + span


def _time_ordered(rows: Iterable[dict]) -> List[dict]:
    # Ties keep insertion (file) order, as the engines promise.
    return sorted(rows, key=lambda row: row["t"])


def _stats(values: List[float]) -> dict:
    return {"count": len(values), "mean": sum(values) / len(values), "min": min(values),
            "max": max(values), "sum": sum(values)}


def expected_answer(query: dict, data: Dict[str, List[dict]]):
    """The answer to one query of the mix, by brute force over *data*."""
    kind = query["kind"]
    trajectory = data["trajectory"]
    if kind == "window-count":
        return sum(1 for row in trajectory if _in_window(row, query["t0"], query["span"]))
    if kind == "floor-window-rows":
        return _time_ordered(
            row for row in trajectory
            if row["floor_id"] == query["floor"] and _in_window(row, query["t0"], query["span"])
        )
    if kind == "object-rows":
        return _time_ordered(row for row in trajectory if row["object_id"] == query["object"])
    if kind == "floor-window-limit":
        return _time_ordered(
            row for row in trajectory
            if row["floor_id"] == query["floor"] and _in_window(row, query["t0"], query["span"])
        )[: query["limit"]]
    if kind in ("snapshot", "knn"):
        t = query["t"]
        best: Dict[str, dict] = {}
        for row in trajectory:
            if abs(row["t"] - t) <= 1.0:
                current = best.get(row["object_id"])
                if current is None or abs(row["t"] - t) < abs(current["t"] - t):
                    best[row["object_id"]] = row
        if kind == "snapshot":
            return best
        scored = sorted(
            ((object_id, math.hypot(row["x"] - query["x"], row["y"] - query["y"]))
             for object_id, row in best.items() if row["floor_id"] == query["floor"]),
            key=lambda pair: (pair[1], pair[0]),
        )
        return scored[: query["k"]]
    if kind == "region-distinct":
        x0, y0, x1, y1 = query["box"]
        return sorted({
            row["object_id"] for row in trajectory
            if _in_window(row, query["t0"], query["span"])
            and x0 <= row["x"] <= x1 and y0 <= row["y"] <= y1
        })
    if kind == "rssi-stats-by-device":
        values = defaultdict(list)
        for row in data["rssi"]:
            if _in_window(row, query["t0"], query["span"]):
                values[row["device_id"]].append(row["rssi"])
        return {device: _stats(found) for device, found in values.items()}
    if kind == "visit-counts":
        visitors = defaultdict(set)
        for row in trajectory:
            if _in_window(row, query["t0"], query["span"]) and row["partition_id"]:
                visitors[row["partition_id"]].add(row["object_id"])
        return {partition: len(objects) for partition, objects in visitors.items()}
    if kind == "fallback-filter":
        return _time_ordered(
            row for row in data["rssi"]
            if _in_window(row, query["t0"], query["span"]) and row["device_id"] == query["device"]
            and row["rssi"] > -75.0
        )
    raise ValueError(f"unknown query kind {kind!r}")


#: Kinds whose answer is a row list, compared by ``rows_fingerprint``.
ROW_ANSWERS = ("floor-window-rows", "object-rows", "floor-window-limit", "fallback-filter")


def answer_fingerprint(kind: str, answer):
    """A small JSON-able stand-in for one query's answer.

    Row lists become their ``rows_fingerprint`` (a snapshot's rows in object
    order); every other answer is small and kept as it is.
    """
    if kind in ROW_ANSWERS:
        return rows_fingerprint(answer)
    if kind == "snapshot":
        return rows_fingerprint(answer[object_id] for object_id in sorted(answer))
    if kind == "visit-counts":
        return {key: value for key, value in answer.items() if key}
    return _plain(answer)


def _plain(value):
    """*value* as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def answers_match(kind: str, got, expected) -> bool:
    """Compare an engine's answer with the brute-force one's fingerprint."""
    got = answer_fingerprint(kind, got)
    if kind == "knn":
        return len(got) == len(expected) and all(
            g[0] == e[0] and _close(g[1], e[1]) for g, e in zip(got, expected)
        )
    if kind == "rssi-stats-by-device":
        return set(got) == set(expected) and all(
            got[key]["count"] == expected[key]["count"]
            and all(_close(got[key][name], expected[key][name])
                    for name in ("mean", "min", "max", "sum"))
            for key in expected
        )
    return got == expected


# --------------------------------------------------------------------------- #
# Monitor windows (brute force over [i*slide, i*slide + window])
# --------------------------------------------------------------------------- #
def expected_windows(kind: str, targets: dict, trajectory: Sequence[Sample]) -> List:
    """Every window value of one monitor kind, recomputed from scratch over
    time-ordered samples (``samples``)."""
    window, slide = targets["window"], targets["slide"]
    floor = targets["floor"]
    t_max = max(sample.t for sample in trajectory)
    # Per-object transitions are read in each object's own time order.
    events = []
    if kind == "flow":
        source, target = targets["flow"]
        previous: Dict[str, Optional[str]] = {}
        for sample in trajectory:
            last = previous.get(sample.object_id)
            previous[sample.object_id] = sample.partition_id
            if last == source and sample.partition_id == target:
                events.append(sample.t)
    elif kind == "geofence":
        x0, y0, x1, y1 = targets["region"]
        inside_before: Dict[str, bool] = {}
        for sample in trajectory:
            if sample.floor_id != floor:
                continue
            inside = x0 <= sample.x <= x1 and y0 <= sample.y <= y1
            if inside != inside_before.get(sample.object_id, False):
                events.append((sample.t, sample.object_id, "enter" if inside else "exit"))
            inside_before[sample.object_id] = inside

    values = []
    index = 0
    while index * slide <= t_max:
        start, end = index * slide, index * slide + window
        rows = [sample for sample in trajectory if start <= sample.t <= end]
        if kind == "density":
            values.append(len({row.object_id for row in rows if row.floor_id == floor}))
        elif kind == "flow":
            values.append(sum(1 for t in events if start <= t <= end))
        elif kind == "geofence":
            values.append(tuple(sorted(event for event in events if start <= event[0] <= end)))
        elif kind == "knn":
            px, py = targets["point"]
            best: Dict[str, float] = {}
            for row in rows:
                if row.floor_id == floor:
                    distance = math.hypot(row.x - px, row.y - py)
                    if distance < best.get(row.object_id, math.inf):
                        best[row.object_id] = distance
            ranked = sorted(best.items(), key=lambda item: (item[1], item[0]))
            values.append(tuple(ranked[: targets["k"]]))
        elif kind == "visit_counts":
            visitors = defaultdict(set)
            for row in rows:
                if row.partition_id:
                    visitors[row.partition_id].add(row.object_id)
            ranked = sorted(((p, len(o)) for p, o in visitors.items()), key=lambda i: (-i[1], i[0]))
            values.append(tuple(ranked[: targets["top_k"]]))
        index += 1
    return values


def windows_match(kind: str, got: Sequence, expected: Sequence) -> bool:
    """Compare window values, either side possibly read back from JSON."""
    got, expected = _plain(list(got)), _plain(list(expected))
    if len(got) != len(expected):
        return False
    if kind == "knn":
        return all(
            len(g) == len(e) and all(a[0] == b[0] and _close(a[1], b[1]) for a, b in zip(g, e))
            for g, e in zip(got, expected)
        )
    return got == expected
