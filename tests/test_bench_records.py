"""Every committed ``BENCH_*.json`` holds what a speed claim needs.

A record compares a parent commit with a change on one machine.  It must
name the parent commit, the seed, the core count and the worker count,
and give the median and quartiles of each end-to-end metric on both sides
for every workload.  It must cover every workload and end-to-end metric
that ``BENCHMARK.json`` lists, over at least ten parent/change pairs, and
count the pairs each metric's change side won as ``k/pairs``.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_required_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record["parent_commit"], str) and record["parent_commit"]
    assert isinstance(record["seed"], int)
    machine = record["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    assert isinstance(machine["workers"], int) and machine["workers"] >= 1
    assert record["workloads"]
    for workload, result in record["workloads"].items():
        assert result["end_to_end"], workload
        for metric, sides in result["end_to_end"].items():
            for side in ("parent", "change"):
                stats = sides[side]
                q1, median, q3 = stats["q1"], stats["median"], stats["q3"]
                assert all(isinstance(v, (int, float)) and math.isfinite(v)
                           for v in (q1, median, q3)), (workload, metric, side)
                assert q1 <= median <= q3, (workload, metric, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_covers_the_benchmark(path):
    record = json.loads(path.read_text())
    pairs = record["pairs"]
    assert isinstance(pairs, int) and pairs >= 10
    for workload in BENCHMARK["workloads"]:
        end_to_end = record["workloads"][workload["name"]]["end_to_end"]
        for metric in BENCHMARK["end_to_end"]:
            wins = re.fullmatch(r"(\d+)/(\d+)", end_to_end[metric["name"]]["change_wins"])
            assert wins, (workload["name"], metric["name"])
            assert int(wins[2]) == pairs and int(wins[1]) <= pairs, (workload["name"],
                                                                     metric["name"])
