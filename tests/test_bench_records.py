"""Every committed BENCH record shares one layout.

A root ``BENCH_<workload>.json`` holds ``{workload, records}``, with one
record per titled change. A record names its command, host, run order and
claim, and holds, for each seed, the paired ``parent`` and ``change`` runs.
No timing is checked, so these tests cannot flake.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_bench_records_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_layout(path):
    data = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_")
    assert set(data) == {"workload", "records"}
    assert data["workload"] == workload and workload in WORKLOADS
    assert isinstance(data["records"], dict) and data["records"]
    for title, record in data["records"].items():
        assert title.strip(), path.name
        assert record.get("workload", workload) == workload, title
        for key in ("command", "host", "order", "claim"):
            assert isinstance(record.get(key), str) and record[key], (title, key)
        assert isinstance(record.get("seeds"), dict) and record["seeds"], title
        for seed, runs in record["seeds"].items():
            assert seed.isdecimal(), (title, seed)
            parent, change = runs["parent"], runs["change"]
            assert isinstance(parent, list) and isinstance(change, list), (title, seed)
            assert parent and len(parent) == len(change), (title, seed)
