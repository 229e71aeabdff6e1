"""Benchmark: the profiling layer's own suite.

Runs the ``repro.prof`` scenario suite (the CI perf gate's workloads)
and asserts the Fig. 3 cost attribution and the determinism guarantee
that the gate relies on.
"""

import pathlib

import pytest

from repro.prof.bench import DEFAULT_SEED, SCENARIOS, run_bench
from repro.prof.cli import render_profile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"


def test_bench_prof(benchmark, publish):
    results = benchmark.pedantic(
        lambda: run_bench(seed=DEFAULT_SEED, baseline_dir=BASELINE_DIR),
        rounds=1,
        iterations=1,
    )
    assert [r.scenario.name for r in results] == sorted(SCENARIOS)

    profiles = {r.scenario.name: r.profile for r in results}
    publish("prof_fig3_profile", render_profile(profiles["fig3_gram"]))
    publish("prof_figure1_profile", render_profile(profiles["figure1"]))

    # The Fig. 3 attribution, via the profile's exclusive-time query.
    fig3 = profiles["fig3_gram"]
    assert fig3.exclusive_by_name("gram.initgroups") == pytest.approx(0.700)
    assert fig3.exclusive_by_name("gram.auth") == pytest.approx(0.504)
    assert fig3.exclusive_by_name("gram.misc") == pytest.approx(0.010)
    assert fig3.exclusive_by_name("gram.fork") == pytest.approx(0.001)

    # Every scenario gates clean against its checked-in baseline.
    for result in results:
        assert not result.missing_baseline, (
            f"{result.scenario.name}: no baseline; run "
            "`python -m repro.prof bench --update`"
        )
        assert not result.regressed, (
            f"{result.scenario.name} regressed: "
            f"{[e.path for e in result.diff.regressions]}"
        )

    # Determinism — the property the byte-compare CI step rests on.
    again = run_bench(seed=DEFAULT_SEED, baseline_dir=BASELINE_DIR)
    for first, second in zip(results, again):
        assert first.profile.dumps() == second.profile.dumps()
