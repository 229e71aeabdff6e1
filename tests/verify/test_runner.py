"""Campaign/example verification runs: clean, deterministic, validated."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.resilience.campaign import CAMPAIGNS, run_trial
from repro.verify import (
    render_verification_json,
    verify_campaigns,
    verify_example,
)


def test_baseline_campaign_is_clean():
    report = verify_campaigns(seed=42, trials=1, names=["baseline"])
    assert report["findings_total"] == 0
    (run,) = report["runs"]
    assert run["run"] == "baseline/seed42"
    assert run["events"] > 0
    assert run["loci"] > 0
    assert run["findings"] == []


def test_reports_are_byte_identical_across_runs():
    first = render_verification_json(
        verify_campaigns(seed=42, trials=1, names=["baseline", "crash"])
    )
    second = render_verification_json(
        verify_campaigns(seed=42, trials=1, names=["baseline", "crash"])
    )
    assert first == second
    assert first.endswith("\n")


def test_monitoring_does_not_perturb_the_simulation():
    campaign = CAMPAIGNS["message_loss"]
    bare = run_trial(campaign, seed=42)
    monitored = run_trial(campaign, seed=42, observe={"monitors"})
    assert bare == monitored


def test_quickstart_example_is_clean():
    report = verify_example("quickstart", seed=42)
    assert report["findings_total"] == 0
    (run,) = report["runs"]
    assert run["run"] == "quickstart/seed42"
    assert run["events"] > 0


def test_unknown_campaign_and_bad_trials_rejected():
    with pytest.raises(ReproError):
        verify_campaigns(names=["no-such-campaign"])
    with pytest.raises(ReproError):
        verify_campaigns(trials=0)
    with pytest.raises(ReproError):
        verify_example("no-such-example")
