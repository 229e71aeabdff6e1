"""The system under study never imports its tooling, and ``env`` is the
only instrumentation handle its components take."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.atomic import Grab
from repro.core.barrier import BarrierManager
from repro.core.coallocator import Duroc
from repro.gram.client import GramClient
from repro.gram.gatekeeper import Gatekeeper
from repro.gram.jobmanager import JobManager
from repro.gram.site import Site
from repro.machine.host import Machine
from repro.mpi.comm import MiniComm
from repro.net.network import Network
from repro.resilience import BreakerBoard, CircuitBreaker, RetryEpisode, retrying

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a bare ``import repro.gridenv`` must not load.
TOOLING = ("repro.obs", "repro.prof", "repro.verify", "repro.analysis")


def test_building_a_grid_imports_no_tooling():
    # A fresh interpreter: this process has long since imported it all.
    script = (
        "import repro.gridenv, sys; "
        f"print(*sorted(m for m in sys.modules if m.startswith({TOOLING!r})))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert loaded == []


@pytest.mark.parametrize(
    "component, keyword",
    [
        (Network, "metrics"),
        (Site, "tracer"),
        (Machine, "tracer"),
        (Gatekeeper, "tracer"),
        (JobManager, "tracer"),
        (GramClient, "tracer"),
        (Duroc, "tracer"),
        (Grab, "tracer"),
        (BarrierManager, "metrics"),
        (MiniComm, "metrics"),
        (RetryEpisode, "metrics"),
        (retrying, "metrics"),
        (CircuitBreaker, "metrics"),
        (BreakerBoard, "metrics"),
    ],
)
def test_components_take_no_tracer_or_metrics(component, keyword):
    # Python binds arguments before it runs any code, so the unexpected
    # keyword is reported whatever else is missing.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        component(**{keyword: None})
