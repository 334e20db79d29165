"""Self-tests of the benchmark's checks: each property accepts cosmo's value
and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest -p no:cacheprovider perfbench
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import worker
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_properties_accept_cosmo_and_reject_perturbed_values(name):
    assert workloads.make(name, seed=0).self_test() == []


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_every_round_has_the_same_make_up(name):
    workload = workloads.make(name, seed=3)
    rounds = [workload.round(i) for i in range(1, 4)]
    assert len({tuple(sorted(item.op for item in r)) for r in rounds}) == 1
    assert len({sum(item.known_fault for item in r) for r in rounds}) == 1


def test_same_seed_gives_same_inputs():
    a, b = workloads.make("surgery_sweep", seed=7), workloads.make("surgery_sweep", seed=7)
    assert [repr(i.call[2]) for i in a.round(0)] == [repr(i.call[2]) for i in b.round(0)]


def test_worker_reports_the_per_layer_metrics_benchmark_json_lists():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    reported = set(worker.per_layer(Counter(), Counter(), items=1, slowdown=1.0)) | {"tracing_overhead"}
    assert reported == {m["name"] for m in spec["per_layer"]}


def test_timing_sample_keeps_at_most_its_size():
    sample = worker.Sample(size=8, seed=1)
    for t in range(100):
        sample.add(t, t / 2)
    assert sample.count == 100 and sample.raw_sum == sum(range(100))
    assert len(sample.raw) == 8 and all(sample.scaled[i] == sample.raw[i] / 2 for i in range(8))
