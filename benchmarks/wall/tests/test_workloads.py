"""Generators are pure functions of the seed, and cost-neutral in it."""

import json

import pytest

from benchmarks.wall.workloads import COALLOC_COUNTS, GRAM_COUNTS, WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    load = max(1, workload.load // 4)
    first = json.dumps(workload.generate(7, load), sort_keys=True)
    again = json.dumps(workload.generate(7, load), sort_keys=True)
    other = json.dumps(workload.generate(8, load), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_op_count_does_not_depend_on_seed(workload):
    assert workload.generate(1, workload.load)["ops"] == workload.generate(2, workload.load)["ops"]


def test_every_coallocation_is_the_same_size():
    by_name = {w.name: w for w in WORKLOADS}
    inputs = by_name["coalloc_burst"].generate(3, 25)
    assert all(sorted(sizes) == sorted(COALLOC_COUNTS) for sizes in inputs["sizes"])
    assert len(set(inputs["rsl"])) > 1


def test_gram_jobs_share_counts_equally():
    by_name = {w.name: w for w in WORKLOADS}
    jobs = by_name["gram_fanout"].generate(3, 50)["jobs"]
    arrivals = [at for at, _, _ in jobs]
    assert arrivals == sorted(arrivals)
    for count in GRAM_COUNTS:
        assert sum(f"(count={count})" in rsl for _, _, rsl in jobs) == 10
