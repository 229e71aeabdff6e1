"""Flight recorder riding the fault campaigns.

Satellite contract: a campaign run with the recorder attached reports
a ``flight_dump`` whose trigger names the injected fault, the recorder
never perturbs the campaign's own record, and two independent processes
produce byte-identical dump files, equal to the committed one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.resilience.campaign import CAMPAIGNS, run_campaigns, run_trial
from repro.resilience.cli import main


#: The crash campaign's seed-42 dump from a fresh process, as committed
#: (CI ``cmp``s it too).
PINNED_DUMP = Path(__file__).resolve().parents[2] / "results" / "flight_crash_42.json"


def _campaign(name):
    return CAMPAIGNS[name]


class TestFlightDumpField:
    def test_crash_campaign_names_the_injected_fault(self):
        record = run_trial(_campaign("crash"), seed=42, observe={"flightrec"})
        dump_info = record["flight_dump"]
        assert dump_info is not None
        assert dump_info["trigger"] == "fault"
        assert dump_info["reason"] == "fault.apply:HostCrash:RM3"
        assert dump_info["time"] == 1.0
        assert len(dump_info["digest"]) == 64

    def test_message_loss_campaign_names_the_injected_fault(self):
        record = run_trial(
            _campaign("message_loss"), seed=42, observe={"flightrec"}
        )
        dump_info = record["flight_dump"]
        assert dump_info is not None
        assert dump_info["trigger"] == "fault"
        assert dump_info["reason"].startswith("fault.apply:MessageLoss")

    def test_absent_without_recorder(self):
        record = run_trial(_campaign("crash"), seed=42)
        assert "flight_dump" not in record

    def test_recorder_does_not_perturb_the_campaign_record(self):
        bare = run_trial(_campaign("crash"), seed=42)
        recorded = run_trial(_campaign("crash"), seed=42, observe={"flightrec"})
        recorded.pop("flight_dump")
        assert recorded == bare

    def test_run_campaigns_writes_dump_files(self, tmp_path):
        report = run_campaigns(
            seed=42, trials=1, names=["crash"], flightrec=True,
            dump_dir=tmp_path,
        )
        record = report["campaigns"][0]["records"][0]
        filename = record["flight_dump"]["file"]
        assert filename == "crash_42.json"
        assert (tmp_path / filename).is_file()

    def test_dump_dir_requires_flightrec(self, tmp_path):
        with pytest.raises(ReproError):
            run_campaigns(seed=42, trials=1, names=["crash"], dump_dir=tmp_path)


class TestCliFlags:
    def test_dump_dir_without_flightrec_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--campaign", "crash", "--trials", "1",
                  "--dump-dir", str(tmp_path)])
        assert excinfo.value.code == 2


def _run_campaign_subprocess(tmp_path, tag):
    out = tmp_path / f"report_{tag}.json"
    dumps = tmp_path / f"dumps_{tag}"
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    subprocess.run(
        [sys.executable, "-m", "repro.resilience", "run",
         "--campaign", "crash", "--trials", "1", "--seed", "42",
         "--flightrec", "--dump-dir", str(dumps), "--out", str(out)],
        check=True, env=env, cwd=root, stdout=subprocess.DEVNULL,
    )
    return out.read_bytes(), (dumps / "crash_42.json").read_bytes()


class TestDeterminism:
    def test_two_processes_dump_identical_bytes(self, tmp_path):
        report_a, dump_a = _run_campaign_subprocess(tmp_path, "a")
        report_b, dump_b = _run_campaign_subprocess(tmp_path, "b")
        assert dump_a == dump_b
        # Two runs of one tree agree even when a change alters every
        # dump alike; the committed dump pins the bytes themselves.
        assert dump_a == PINNED_DUMP.read_bytes()
        assert report_a == report_b
        assert b"fault.apply:HostCrash:RM3" in dump_a

    def test_a_dump_does_not_depend_on_what_ran_earlier(self, tmp_path):
        """Reply ports and GSI sessions are numbered per world, so the
        pinned dump comes out of a process that already ran a world."""
        run_trial(_campaign("message_loss"), 7)
        run_campaigns(seed=42, trials=1, names=["crash"], flightrec=True,
                      dump_dir=str(tmp_path))
        assert (tmp_path / "crash_42.json").read_bytes() == PINNED_DUMP.read_bytes()
