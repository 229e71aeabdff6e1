"""Tests for the seeded benchmark suite (repro.prof.bench)."""

import functools

import pytest

from repro.errors import ReproError
from repro.prof.bench import (
    DEFAULT_SEED,
    SCENARIOS,
    run_bench,
    select_scenarios,
    update_baselines,
)


@pytest.fixture(scope="module")
def first_run():
    """``first_run(name)``: one ``DEFAULT_SEED`` profile per scenario,
    run on first request and shared by every test of the module — the
    shape tests read it, ``TestDeterminism`` compares a second run
    against it."""
    return functools.cache(lambda name: SCENARIOS[name].run(DEFAULT_SEED))


class TestFig3Acceptance:
    def test_fig3_gram_matches_the_paper_breakdown(self, first_run):
        # The acceptance numbers from results/fig3_gram_breakdown.txt:
        # the profile's exclusive attribution must reproduce Fig. 3.
        profile = first_run("fig3_gram")
        assert profile.exclusive_by_name("gram.initgroups") == pytest.approx(0.700)
        assert profile.exclusive_by_name("gram.auth") == pytest.approx(0.504)
        assert profile.exclusive_by_name("gram.misc") == pytest.approx(0.010)
        assert profile.exclusive_by_name("gram.fork") == pytest.approx(0.001)

    def test_fig3_paths_are_rooted_at_gram_submit(self, first_run):
        profile = first_run("fig3_gram")
        assert "gram.submit;gram.auth" in profile.paths
        assert profile.paths["gram.submit;gram.auth"].count == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_profiles_byte_identical_across_runs(self, name, first_run):
        assert first_run(name).dumps() == SCENARIOS[name].run(DEFAULT_SEED).dumps()

    def test_different_seed_still_builds(self):
        profile = SCENARIOS["fig3_gram"].run(7)
        assert profile.meta["seed"] == 7
        assert profile.paths


class TestScenarios:
    def test_figure1_profile_shape(self, first_run):
        profile = first_run("figure1")
        assert "duroc.request" in profile.paths
        assert "duroc.request;duroc.submit;gram.submit;gram.auth" in profile.paths
        assert profile.count_by_name("gram.submit") == 3
        assert profile.counters["sim.events_processed"] > 0

    def test_duroc_scaling_fans_out_six_sites(self, first_run):
        profile = first_run("duroc_scaling")
        assert profile.count_by_name("duroc.submit") == 6

    def test_campaign_baseline_carries_provenance(self, first_run):
        profile = first_run("campaign_baseline")
        assert profile.meta["scenario"] == "campaign_baseline"
        assert profile.meta["campaign"] == "baseline"
        assert profile.paths

    def test_select_scenarios_default_is_sorted_all(self):
        names = [s.name for s in select_scenarios()]
        assert names == sorted(SCENARIOS)

    def test_select_scenarios_unknown_raises(self):
        with pytest.raises(ReproError, match="nonesuch"):
            select_scenarios(["nonesuch"])


class TestHarness:
    def test_update_then_run_bench_is_clean(self, tmp_path):
        update_baselines(names=["fig3_gram"], baseline_dir=tmp_path)
        (result,) = run_bench(names=["fig3_gram"], baseline_dir=tmp_path)
        assert not result.missing_baseline
        assert not result.regressed

    def test_run_bench_without_baseline(self, tmp_path):
        (result,) = run_bench(names=["fig3_gram"], baseline_dir=tmp_path / "x")
        assert result.missing_baseline
        assert result.diff is None


class TestQueueTraceIdentity:
    """kernel_scale pins the op counters and the heap's own gauges."""

    def test_kernel_scale_counters_agree_with_the_heap(self, first_run):
        profile = first_run("kernel_scale")
        counters = profile.counters
        # One run, per-message delivery: the pulled op counts are the
        # heap's gauges under their profile names, and no key of a
        # deleted configuration (calendar queue, slotted delivery)
        # survives.
        assert counters["sim.heap_high_water"] == counters["queue.heap.high_water"]
        assert counters["sim.events_scheduled"] == counters["queue.heap.pushes"]
        assert counters["sim.events_processed"] == counters["queue.heap.pops"]
        assert counters["sim.messages_delivered"] == 80_000
        assert not any(
            key.startswith(("ref.", "queue.calendar.")) or "slots" in key
            for key in counters
        )
