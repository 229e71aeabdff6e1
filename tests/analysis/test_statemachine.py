"""State-machine rules against the repo's real transition tables."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.framework import Analyzer
from repro.analysis.statemachine import StateMachineChecker

from tests.analysis.conftest import rules_of


def test_tables_parse_from_real_sources():
    checker = StateMachineChecker()
    assert set(checker.tables) == {
        "JobState", "SubjobState", "RequestState", "QueuePhase",
        "AttemptPhase",
    }
    job = checker.tables["JobState"]
    assert "PENDING" in job.transitions["UNSUBMITTED"]
    assert job.transitions["DONE"] == set()
    req = checker.tables["RequestState"]
    assert req.transitions["COMMITTING"] == {"RELEASED", "ABORTED", "TERMINATED"}
    queue = checker.tables["QueuePhase"]
    assert queue.transitions["QUEUED"] == {"GRANTED", "WITHDRAWN", "REFUSED"}
    assert queue.transitions["GRANTED"] == set()


def test_corrupted_transition_sequence_caught(run_checker):
    """The acceptance fixture: DONE -> ACTIVE must be flagged."""
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.gram.states import JobState

        def corrupt(job):
            job.transition(JobState.DONE, 0.0)
            job.transition(JobState.ACTIVE, 0.0)
        """,
    )
    assert rules_of(findings) == {"sm-illegal-transition"}
    assert "DONE -> JobState.ACTIVE" in findings[0].message


def test_request_state_corruption_caught(run_checker):
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.core.states import RequestState

        def corrupt(self):
            self._transition(RequestState.DONE)
            self._transition(RequestState.RELEASED)
        """,
    )
    assert rules_of(findings) == {"sm-illegal-transition"}


def test_legal_sequence_clean(run_checker):
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.gram.states import JobState

        def lifecycle(job):
            job.transition(JobState.PENDING, 0.0)
            job.transition(JobState.ACTIVE, 1.0)
            job.transition(JobState.DONE, 2.0)
        """,
    )
    assert findings == []


def test_undeclared_member_flagged(run_checker):
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.gram.states import JobState

        def corrupt(job):
            job.transition(JobState.EXPLODED, 0.0)
        """,
    )
    assert rules_of(findings) == {"sm-bad-target"}
    assert "undeclared" in findings[0].message


def test_initial_only_state_flagged(run_checker):
    """No table rule enters UNSUBMITTED, so transitioning into it is wrong."""
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.gram.states import JobState

        def corrupt(job):
            job.transition(JobState.UNSUBMITTED, 0.0)
        """,
    )
    assert rules_of(findings) == {"sm-bad-target"}


def test_direct_state_assignment_flagged(run_checker):
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.core.states import SubjobState

        def hack(slot):
            slot.state = SubjobState.RELEASED
        """,
    )
    assert rules_of(findings) == {"sm-direct-assign"}


def test_mutators_may_assign_state(run_checker):
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.core.states import SubjobState

        class Slot:
            def __init__(self):
                self.state = SubjobState.PENDING

            def transition(self, new):
                self.state = new
        """,
    )
    assert findings == []


def test_branches_do_not_leak_knowledge(run_checker):
    """Each branch is analyzed independently; knowledge dies after the if."""
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.gram.states import JobState

        def drive(job, ok):
            if ok:
                job.transition(JobState.DONE, 0.0)
            else:
                job.transition(JobState.FAILED, 0.0)
            job.transition(JobState.FAILED, 1.0)
        """,
    )
    assert findings == []


def test_retry_loops_do_not_false_positive(run_checker):
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.core.states import SubjobState

        def retry(slots):
            for slot in slots:
                slot.transition(SubjobState.SUBMITTING, 0.0)
                slot.transition(SubjobState.SUBMITTED, 1.0)
        """,
    )
    assert findings == []


def test_corrupt_table_reports_sm_bad_table(write_file):
    table = write_file(
        "badstates.py",
        """
        from enum import Enum

        class Phase(str, Enum):
            START = "start"
            END = "end"

        TABLE = {
            Phase.START: frozenset({Phase.END, Phase.MISSING}),
            Phase.END: frozenset(),
        }
        """,
    )
    user = write_file(
        "baduser.py",
        """
        from badstates import Phase

        def drive(m):
            m.transition(Phase.END, 0.0)
        """,
    )
    checker = StateMachineChecker(table_files=[table])
    report = Analyzer([checker]).run([str(table), str(user)])
    assert rules_of(report.findings) == {"sm-bad-table"}
    assert "Phase.MISSING" in report.findings[0].message


def test_unreachable_state_reported_and_cleared(write_file):
    table_src = """
        from enum import Enum

        class Phase(str, Enum):
            START = "start"
            MID = "mid"
            END = "end"

        TABLE = {
            Phase.START: frozenset({Phase.MID, Phase.END}),
            Phase.MID: frozenset({Phase.END}),
            Phase.END: frozenset(),
        }
    """
    table = write_file("phase_states.py", table_src)
    user = write_file(
        "phase_user.py",
        """
        from phase_states import Phase

        def drive(m):
            m.transition(Phase.END, 0.0)
        """,
    )
    checker = StateMachineChecker(table_files=[table])
    report = Analyzer([checker]).run([str(table), str(user)])
    assert rules_of(report.findings) == {"sm-unreachable-state"}
    assert "Phase.MID" in report.findings[0].message
    # Entering MID somewhere clears the warning.
    user2 = write_file(
        "phase_user2.py",
        """
        from phase_states import Phase

        def drive(m):
            m.transition(Phase.MID, 0.0)
            m.transition(Phase.END, 1.0)
        """,
    )
    checker = StateMachineChecker(table_files=[table])
    report = Analyzer([checker]).run([str(table), str(user2)])
    assert report.findings == []


def test_unreachable_not_reported_without_table_in_paths(run_checker):
    """Fixture-only runs must not emit global unreachability noise."""
    findings = run_checker(
        StateMachineChecker(),
        """
        from repro.gram.states import JobState

        def lifecycle(job):
            job.transition(JobState.PENDING, 0.0)
        """,
    )
    assert findings == []


def test_real_tree_suppression_is_audited():
    """The SUSPENDED exemption stays documented in the source."""
    repo_root = Path(__file__).resolve().parents[2]
    states = (repo_root / "src" / "repro" / "gram" / "states.py").read_text()
    assert "repro: noqa sm-unreachable-state" in states
