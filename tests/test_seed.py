"""A negative root seed or a trial count below one is refused up front,
by the argument parser of every seeded CLI."""

import pytest

from repro.errors import ReproError
from repro.prof.cli import main as prof_main
from repro.resilience.cli import main as resilience_main
from repro.simcore.rng import RngRegistry
from repro.verify.cli import main as verify_main


def test_registry_refuses_a_negative_seed():
    with pytest.raises(ReproError, match="-1"):
        RngRegistry(-1)


@pytest.mark.parametrize(
    "main, argv",
    [
        (resilience_main, ["run", "--campaign", "baseline", "--trials", "1"]),
        (verify_main, ["--campaign", "baseline", "--trials", "1"]),
        (verify_main, ["--example", "quickstart"]),
        (prof_main, ["bench", "--scenario", "fig3_gram"]),
    ],
    ids=["resilience-run", "verify-campaign", "verify-example", "prof-bench"],
)
def test_negative_seed_is_a_usage_error(main, argv, capsys):
    assert _refused(main, [*argv, "--seed", "-1"], capsys) == "--seed"


@pytest.mark.parametrize("trials", ["0", "-2", "1.5"])
@pytest.mark.parametrize(
    "main, argv",
    [
        (resilience_main, ["run", "--campaign", "baseline"]),
        (verify_main, ["--campaign", "baseline"]),
    ],
    ids=["resilience-run", "verify-campaign"],
)
def test_a_bad_trial_count_is_a_usage_error(main, argv, trials, capsys):
    assert _refused(main, [*argv, "--trials", trials], capsys) == "--trials"


def _refused(main, argv, capsys):
    """Runs ``main(argv)``, which must exit 2 with one parser ``error:``
    line and no output; returns the option that line names."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in captured.err
    # The argparse type refuses the value, before anything runs.
    return errors[0].split("error: argument ", 1)[1].split(":", 1)[0]
