"""Experiment harnesses regenerating every table and figure of the paper.

Each module runs one experiment and renders its table.  Which artifact
names exist, and which ``results/*.txt`` file or files each writes, is
one mapping, :data:`repro.experiments.__main__.ARTIFACTS`; ``python -m
repro.experiments --help`` prints the names.  :mod:`.ablations` and
:mod:`.mpi_startup` are left out of the imports below: every ``import
repro.experiments.<module>`` runs them, and those two would add the
MPI layer and more of the broker to each.
"""

from repro.experiments import (
    apps,
    fig2,
    fig3,
    fig4,
    fig5,
    forecast,
    model,
    queues,
    reservations,
)
from repro.experiments.report import format_table, format_timeline, linear_fit

__all__ = [
    "apps",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "forecast",
    "format_table",
    "format_timeline",
    "linear_fit",
    "model",
    "queues",
    "reservations",
]
