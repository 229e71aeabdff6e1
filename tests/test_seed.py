"""A negative root seed is refused up front, typed, by every seeded CLI."""

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
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--seed", "-1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "seed" in errors[0]
    assert "Traceback" not in captured.err
