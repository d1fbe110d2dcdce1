"""What each workload runs: buildings, sizes, the query mix and the monitors.

All sizes live here so that the README, the inputs and the workloads agree.
"""

from __future__ import annotations

from typing import Optional

#: The five standing monitor kinds, one monitor of each.
MONITOR_KINDS = ("density", "flow", "geofence", "knn", "visit_counts")
#: Sliding windows of every standing monitor (seconds).
MONITOR_WINDOW = {"window": 60.0, "slide": 30.0}

#: The query kinds of the mix.  A round issues each kind ``QUERY_DRAWS``
#: times, each time with its own parameters, against both backends.  Every
#: kind weighs the same: no source in the repository says how often a client
#: issues each kind, so the mix does not guess one.
QUERY_KINDS = (
    "window-count",
    "floor-window-rows",
    "object-rows",
    "floor-window-limit",
    "snapshot",
    "knn",
    "region-distinct",
    "rssi-stats-by-device",
    "visit-counts",
    "fallback-filter",
)
QUERY_DRAWS = 32

#: The four workloads.  ``kind`` selects the runner in ``workloads.py``.
WORKLOADS = {
    # ROADMAP item 1's canonical job: a multi-floor DBI file, Wi-Fi
    # trilateration, a sharded streaming run into an SQLite file.
    "generate": {
        "kind": "generate",
        "building": "office", "floors": 4, "decompose": False,
        "wifi_per_floor": 6,
        "objects": 24, "duration": 180.0,
        "method": "trilateration",
        "backend": "sqlite", "shards": 4, "flush_every": 1000,
        "monitors": False,
    },
    # Same pipeline, no trilateration and no SQLite: a decomposed mall, a
    # radio map surveyed during set-up, fingerprinting kNN into memory, and
    # the five standing monitors attached.
    "generate-fingerprint": {
        "kind": "generate",
        "building": "mall", "floors": 2, "decompose": True,
        "wifi_per_floor": 8,
        "objects": 32, "duration": 180.0,
        "method": "fingerprinting", "radio_map_spacing": 4.0, "radio_map_samples": 4,
        "backend": "memory", "shards": 4, "flush_every": 1000,
        "monitors": True,
    },
    # Read workloads: a dataset generated once (the canonical job at a
    # larger size) and exported, loaded into the backends during set-up.
    "query-mix": {
        "kind": "query-mix",
        "building": "office", "floors": 4, "decompose": False,
        "wifi_per_floor": 6,
        "objects": 40, "duration": 400.0,
        "method": "trilateration",
        "backend": "memory", "shards": 4, "flush_every": 5000,
        "monitors": False,
    },
    "monitor-replay": {
        "kind": "monitor-replay",
        "building": "office", "floors": 4, "decompose": False,
        "wifi_per_floor": 6,
        "objects": 40, "duration": 400.0,
        "method": "trilateration",
        "backend": "memory", "shards": 4, "flush_every": 5000,
        "monitors": False,
    },
}

#: Seconds between trajectory samples (every workload).
SAMPLING_PERIOD = 1.0
#: Seconds between positioning estimates (every workload).
POSITIONING_PERIOD = 5.0


def generation_config(spec: dict, seed: int, ifc_path: str, db_path: Optional[str] = None,
                      telemetry: bool = False) -> dict:
    """The ``VitaConfig`` dictionary of a generation run of *spec*."""
    positioning = {"method": spec["method"], "sampling_period": POSITIONING_PERIOD}
    if spec["method"] == "fingerprinting":
        positioning.update(
            algorithm="knn",
            radio_map_spacing=spec["radio_map_spacing"],
            radio_map_samples=spec["radio_map_samples"],
        )
    storage = {"backend": spec["backend"], "flush_every": spec["flush_every"]}
    if spec["backend"] == "sqlite":
        storage["path"] = db_path
    return {
        "environment": {"ifc_path": ifc_path, "decompose": spec["decompose"]},
        "devices": [{"type": "wifi", "count_per_floor": spec["wifi_per_floor"]}],
        "objects": {
            "count": spec["objects"],
            "duration": spec["duration"],
            "sampling_period": SAMPLING_PERIOD,
        },
        "positioning": positioning,
        "storage": storage,
        "telemetry": {"enabled": telemetry, "trace_capacity": 100000},
        "seed": seed,
        "workers": 1,
        "shards": spec["shards"],
    }
