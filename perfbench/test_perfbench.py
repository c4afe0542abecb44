"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import re
import sys

import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metrics(metrics: dict, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: metric["unit"] for name, metric in metrics.items()} == units
    assert all(isinstance(metric["value"], (int, float)) for metric in metrics.values())


def test_declared_metrics_have_valid_names_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and metric["unit"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False)["result"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = run.run_workload("serve-wide", seed=3, seconds=0, trace=True)
    assert out["result"]["correct"]
    check_metrics(out["result"]["metrics"], SPEC["per_layer"])
    parents = {(s["name"], s["parent"]) for s in out["report"]["spans"]}
    assert ("engine.deliver", "bench.round") in parents
    assert ("pda.PDA.symbol_positions", "engine.deliver") in parents


def test_corrupted_payload_counts_as_failure(monkeypatch):
    wl = WORKLOADS["serve-wide"](3, run.ROOT)
    wl.setup()
    wl.step()
    assert wl.attempted > 0 and wl.failed == 0

    engine = wl.m["engine"]
    deliver = engine.deliver

    def corrupted(state, demands):
        payload = deliver(state, demands)
        first = payload.blocks[0]
        return payload._replace(blocks=((first[0] ^ 1,) + first[1:],) + payload.blocks[1:])

    monkeypatch.setattr(engine, "deliver", corrupted)
    wl.step()
    assert wl.failed > 0
