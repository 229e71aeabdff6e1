"""The fault-campaign harness: determinism and degradation semantics."""

import pytest

from repro.core import SubjobState, SubjobType
from repro.errors import ReproError
from repro.resilience.campaign import (
    CAMPAIGNS,
    render_report,
    run_campaigns,
    run_trial,
)
from repro.workloads.scenarios import run


class TestDeterminism:
    def test_report_is_byte_identical_across_runs(self):
        """The ISSUE's acceptance bar: same seed, same bytes."""
        names = ["baseline", "message_loss"]
        first = render_report(run_campaigns(seed=42, trials=2, names=names))
        second = render_report(run_campaigns(seed=42, trials=2, names=names))
        assert first == second

    def test_different_seeds_differ(self):
        """The seed is actually load-bearing, not ignored."""
        names = ["message_loss"]
        a = render_report(run_campaigns(seed=42, trials=1, names=names))
        b = render_report(run_campaigns(seed=1042, trials=1, names=names))
        assert a != b

    def test_unknown_campaign_is_typed_error(self):
        with pytest.raises(ReproError, match="unknown campaign"):
            run_campaigns(seed=42, trials=1, names=["no_such_thing"])
        with pytest.raises(ReproError, match="trials"):
            run_campaigns(seed=42, trials=0)


class TestScenarios:
    def test_baseline_commits_cleanly(self):
        record = run_trial(CAMPAIGNS["baseline"], 42)
        assert record["success"]
        assert record["degradation"] == "none"
        assert record["retries_used"] == 0
        assert record["released_subjobs"] == record["requested_subjobs"] == 4

    def test_message_loss_commits_with_retries(self):
        """Figure-1 survives 10% Bernoulli loss, using >= 1 retry."""
        record = run_trial(CAMPAIGNS["message_loss"], 42)
        assert record["success"]
        assert record["retries_used"] >= 1
        assert record["released_subjobs"] == 4

    def test_partition_degrades_keeping_required(self):
        """A mid-submit partition drops the optional, keeps required."""
        record = run_trial(CAMPAIGNS["partition"], 42)
        assert record["success"]
        assert record["degradation"] == "degraded"
        assert record["released_subjobs"] < record["requested_subjobs"]

    def test_partition_slot_states(self):
        """Same scenario, inspected at the slot level: both required
        subjobs release; the partitioned optional does not."""
        _, (outcome, job) = run(CAMPAIGNS["partition"].scenario(), 42)
        assert outcome.success
        by_type = {}
        for slot in job.slots:
            by_type.setdefault(slot.spec.start_type, []).append(slot)
        assert all(
            slot.state is SubjobState.RELEASED
            for slot in by_type[SubjobType.REQUIRED]
        )
        assert any(
            slot.state is not SubjobState.RELEASED
            for slot in by_type[SubjobType.OPTIONAL]
        )

    def test_crash_substitutes_from_spare(self):
        record = run_trial(CAMPAIGNS["crash"], 42)
        assert record["success"]
        assert record["degradation"] == "substituted"
        assert record["substitutions"] >= 1
        assert record["released_subjobs"] == 4


class TestReportShape:
    def test_summary_fields(self):
        report = run_campaigns(seed=42, trials=1, names=["baseline"])
        assert report["seed"] == 42
        assert report["scenario"] == "figure1"
        (entry,) = report["campaigns"]
        assert entry["name"] == "baseline"
        assert entry["summary"]["success_rate"] == 1.0
        assert entry["summary"]["degradation_modes"] == {"none": 1}
        assert entry["records"][0]["seed"] == 42

    def test_render_ends_with_newline_and_sorts_keys(self):
        report = run_campaigns(seed=42, trials=1, names=["baseline"])
        text = render_report(report)
        assert text.endswith("\n")
        lines = [ln.strip() for ln in text.splitlines()]
        assert lines[0] == "{"
        assert any('"campaigns"' in ln for ln in lines[:2])
