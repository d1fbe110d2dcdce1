"""Make the benchmark's inputs from a workload seed.

Every input is made here, before anything is timed, and depends only on the
workload and the seed:

* ``building.ifc`` -- a DBI (IFC STEP) file written from a synthetic building,
  which the generate workloads import during their set-up;
* ``monitors.json`` -- the five standing monitors, aimed at partitions and
  regions of the imported building;
* ``dataset/`` -- for the read workloads, a dataset generated once by the
  program and exported to CSV with ``export_warehouse``;
* ``queries.json`` -- for ``query-mix``, the parameters of every query of one
  round of the mix, drawn from the seed and the exported data;
* ``expected.json`` -- for the read workloads, the brute-force answer to every
  query of the round (as ``checks.answer_fingerprint``) or every window of
  every monitor, computed here from the exported CSV rows.

The benchmark runs this file in a child process, so that the parent's peak
resident memory shows the workload and not the making of its inputs or of
the answers it checks against.  To make the inputs anew by hand::

    python3 perfbench/inputs.py --workload query-mix --seed 3 --out /tmp/pb
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

if __package__ in (None, ""):
    _ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from perfbench import checks  # noqa: E402
from perfbench.spec import (  # noqa: E402
    MONITOR_KINDS, MONITOR_WINDOW, QUERY_DRAWS, QUERY_KINDS, WORKLOADS, generation_config,
)


def write_building(spec: dict, directory: Path) -> Path:
    """Write the workload's synthetic building as a DBI file."""
    from repro.building.synthetic import building_by_name
    from repro.ifc.writer import write_ifc

    path = directory / "building.ifc"
    write_ifc(building_by_name(spec["building"], floors=spec["floors"]), str(path))
    return path


def monitor_targets(spec: dict, ifc_path: Path) -> dict:
    """Pick what the five monitors watch, from the building as imported.

    The building is read back through the program's own DBI import (with the
    workload's decomposition setting), so the partition ids are the ones the
    generated records carry.
    """
    from repro.geometry.decompose import DecompositionConfig
    from repro.ifc.extractor import DBIProcessor, DBIProcessorOptions

    options = DBIProcessorOptions(
        decompose_partitions=spec["decompose"], decomposition=DecompositionConfig()
    )
    building, _ = DBIProcessor(options).process_file(str(ifc_path))
    floor_id = building.floor_ids[0]
    floor = building.floor(floor_id)
    box = floor.bounding_box
    # The flow monitor watches the first interior door of the ground floor
    # (both sides walkable partitions), in a fixed order.
    doors = sorted(
        (door for door in floor.doors.values() if len(set(door.partitions)) == 2
         and all(p in floor.partitions for p in door.partitions)),
        key=lambda door: door.door_id,
    )
    from_partition, to_partition = doors[0].partitions
    width, height = box.max_x - box.min_x, box.max_y - box.min_y
    return {
        "floor": floor_id,
        "flow": [from_partition, to_partition],
        # Geofence: the central quarter of the floor, so objects cross it.
        "region": [box.min_x + width / 4, box.min_y + height / 4,
                   box.max_x - width / 4, box.max_y - height / 4],
        "point": [box.min_x + width / 2, box.min_y + height / 2],
        "k": 3,
        "top_k": 5,
        "window": MONITOR_WINDOW["window"],
        "slide": MONITOR_WINDOW["slide"],
    }


def export_dataset(spec: dict, seed: int, directory: Path) -> Path:
    """Generate the read workloads' dataset once and export it to CSV."""
    from repro.core.config import config_from_dict
    from repro.core.pipeline import VitaPipeline
    from repro.storage.export import export_warehouse

    ifc_path = write_building(spec, directory)
    config = config_from_dict(generation_config(spec, seed, str(ifc_path)))
    result = VitaPipeline(config).run_streaming()
    target = directory / "dataset"
    export_warehouse(result.warehouse, target)
    result.warehouse.close()
    return target


def read_dataset(dataset: Path) -> dict:
    """The exported dataset as plain typed rows, read without the program."""

    def read(name: str, convert) -> list:
        with (dataset / name).open(newline="", encoding="utf-8") as handle:
            return [convert(row) for row in csv.DictReader(handle)]

    return {
        "trajectory": read("raw_trajectories.csv", checks.trajectory_row),
        "rssi": read("raw_rssi.csv", checks.rssi_row),
        "positioning": read("positioning.csv", checks.positioning_row),
    }


#: The generator's default shortest object lifespan, and the longest query
#: window of the mix (seconds).
MIN_LIFESPAN_S = 300.0
QUIET_SPAN_S = 120.0


def query_parameters(seed: int, data: dict, floors: int) -> list:
    """One round of the query mix: ``[{"kind": ..., **params}, ...]``.

    Each kind appears ``QUERY_DRAWS`` times a round, each time with its own
    parameters, drawn from the seed over the exported data's extent; the
    round takes one query of each kind in turn.
    """
    rng = random.Random(seed * 7919 + 17)
    trajectory = data["trajectory"]
    t_max = max(row["t"] for row in trajectory)
    objects = sorted({row["object_id"] for row in trajectory})
    devices = sorted({row["device_id"] for row in data["rssi"]})
    xs = [row["x"] for row in trajectory if row["x"] is not None]
    ys = [row["y"] for row in trajectory if row["y"] is not None]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)

    def instant() -> float:
        # Samples lie on whole seconds, so a whole-second instant has an
        # exact sample and snapshot/kNN ties cannot arise.  Every object
        # lives at least ``MIN_LIFESPAN_S``, so windows starting before
        # ``QUIET_SPAN_S`` from its end see every object and a query's work
        # varies little with the seed.
        return float(rng.randint(0, max(0, int(min(t_max, MIN_LIFESPAN_S) - QUIET_SPAN_S))))

    def box(share: float) -> list:
        w, h = (x_hi - x_lo) * share, (y_hi - y_lo) * share
        x0, y0 = rng.uniform(x_lo, x_hi - w), rng.uniform(y_lo, y_hi - h)
        return [x0, y0, x0 + w, y0 + h]

    makers = {
        "window-count": lambda: {"t0": instant(), "span": 60.0},
        "floor-window-rows": lambda: {"floor": rng.randrange(floors), "t0": instant(),
                                      "span": 30.0},
        "object-rows": lambda: {"object": rng.choice(objects)},
        "floor-window-limit": lambda: {"floor": rng.randrange(floors), "t0": instant(),
                                       "span": 120.0, "limit": 20},
        "snapshot": lambda: {"t": instant()},
        "knn": lambda: {"floor": rng.randrange(floors), "t": instant(), "k": 5,
                        "x": rng.uniform(x_lo, x_hi), "y": rng.uniform(y_lo, y_hi)},
        "region-distinct": lambda: {"box": box(0.3), "t0": instant(), "span": 120.0},
        "rssi-stats-by-device": lambda: {"t0": instant(), "span": 60.0},
        "visit-counts": lambda: {"t0": instant(), "span": 120.0},
        "fallback-filter": lambda: {"t0": instant(), "span": 60.0,
                                    "device": rng.choice(devices)},
    }
    draws = {kind: [{"kind": kind, **makers[kind]()} for _ in range(QUERY_DRAWS)]
             for kind in QUERY_KINDS}
    # One query of each kind in turn, so that costly and cheap kinds are
    # spread evenly over the round.
    return [draws[kind][index] for index in range(QUERY_DRAWS) for kind in QUERY_KINDS]


def make_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write every input *workload* needs for *seed* into *directory*."""
    spec = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "generate":
        ifc_path = write_building(spec, directory)
    else:
        dataset = export_dataset(spec, seed, directory)
        ifc_path = directory / "building.ifc"
    targets = monitor_targets(spec, ifc_path)
    _write(directory / "monitors.json", targets)
    if workload == "query-mix":
        data = read_dataset(dataset)
        queries = query_parameters(seed, data, spec["floors"])
        _write(directory / "queries.json", queries)
        _write(directory / "expected.json", [
            checks.answer_fingerprint(query["kind"], checks.expected_answer(query, data))
            for query in queries
        ])
    elif workload == "monitor-replay":
        trajectory = checks.samples(read_dataset(dataset)["trajectory"])
        _write(directory / "expected.json", {
            kind: checks.expected_windows(kind, targets, trajectory) for kind in MONITOR_KINDS
        })


def _write(path: Path, value) -> None:
    path.write_text(json.dumps(value), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
