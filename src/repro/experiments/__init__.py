"""Experiment harnesses regenerating every table and figure of the paper.

Each module runs one experiment and renders its table.  Which artifact
names exist, and which ``results/*.txt`` file or files each writes, is
one mapping, :data:`repro.experiments.__main__.ARTIFACTS`; ``python -m
repro.experiments --help`` prints the names.  Only the table helpers
are imported here: every ``import repro.experiments.<module>`` runs
this file, so each experiment module is loaded by name, by whoever
needs it.
"""

from repro.experiments.report import format_table, format_timeline, linear_fit

__all__ = ["format_table", "format_timeline", "linear_fit"]
