"""Synthetic workload shapes for experiments."""

from __future__ import annotations


def split_processes(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal positive chunks."""
    if parts <= 0 or total < parts:
        raise ValueError(f"cannot split {total} processes into {parts} subjobs")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]
