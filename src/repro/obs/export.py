"""Trace and metrics exporters.

Traces are written as **JSONL**: one record per line, self-describing
and loss-free; the interchange format consumed by ``python -m
repro.obs`` and by :func:`load_jsonl`.  Records are sorted and
serialized with sorted keys, so two identical runs produce
byte-identical files.

Metrics snapshots are written as sorted-key JSON, and read back by
:func:`load_metrics`, which refuses a file of any other shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from repro.simcore.tracing import Mark, Span

#: JSONL format version, bumped on incompatible record changes.
FORMAT_VERSION = 1


@dataclass
class TraceDump:
    """A loaded (or in-memory) trace: just spans and marks.

    Structurally compatible with :class:`~repro.simcore.tracing.Tracer`
    for every read-only consumer in :mod:`repro.obs`.
    """

    spans: list[Span] = field(default_factory=list)
    marks: list[Mark] = field(default_factory=list)


#: Anything with ``.spans`` and ``.marks`` lists (Tracer, TraceDump).
TraceSource = Any


def _clean(value: Any) -> Any:
    """Make an attribute value JSON-representable, deterministically."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    return str(value)


def span_record(span: Span) -> dict[str, Any]:
    return {
        "record": "span",
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attrs": {k: _clean(v) for k, v in span.attrs.items()},
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
    }


def mark_record(mark: Mark) -> dict[str, Any]:
    return {
        "record": "mark",
        "name": mark.name,
        "time": mark.time,
        "attrs": {k: _clean(v) for k, v in mark.attrs.items()},
        "trace_id": mark.trace_id,
        "parent_id": mark.parent_id,
    }


def dumps_record(record: dict[str, Any]) -> str:
    """One record in the canonical JSONL byte form (no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_dumps = dumps_record


def export_jsonl(trace: TraceSource) -> str:
    """The JSONL export as a string (trailing newline included)."""
    meta = {
        "record": "meta",
        "version": FORMAT_VERSION,
        "spans": len(trace.spans),
        "marks": len(trace.marks),
    }
    span_lines = sorted(
        (_dumps(span_record(s)) for s in trace.spans),
        key=lambda line: (json.loads(line)["start"], line),
    )
    mark_lines = sorted(
        (_dumps(mark_record(m)) for m in trace.marks),
        key=lambda line: (json.loads(line)["time"], line),
    )
    return "\n".join([_dumps(meta), *span_lines, *mark_lines]) + "\n"


def write_jsonl(trace: TraceSource, path: Union[str, Path]) -> Path:
    """Write the JSONL export; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(export_jsonl(trace))
    return path


def load_jsonl(path: Union[str, Path]) -> TraceDump:
    """Load a JSONL export back into spans and marks."""
    dump = TraceDump()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}:{lineno}: expected an object, got "
                f"{type(record).__name__}"
            )
        kind = record.get("record")
        if kind == "meta":
            continue
        if kind == "span":
            dump.spans.append(
                Span(
                    record["name"],
                    record["start"],
                    record["end"],
                    record.get("attrs", {}),
                    trace_id=record.get("trace_id"),
                    span_id=record.get("span_id"),
                    parent_id=record.get("parent_id"),
                )
            )
        elif kind == "mark":
            dump.marks.append(
                Mark(
                    record["name"],
                    record["time"],
                    record.get("attrs", {}),
                    trace_id=record.get("trace_id"),
                    parent_id=record.get("parent_id"),
                )
            )
        else:
            raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return dump


# -- metrics -----------------------------------------------------------------


def metrics_json(snapshot: dict[str, Any]) -> str:
    """A metrics snapshot as deterministic, human-diffable JSON."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def write_metrics(snapshot: dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_json(snapshot))
    return path


#: Numeric fields of one snapshot value, by instrument type.
_VALUE_FIELDS: dict[str, tuple[str, ...]] = {
    "counter": ("value",),
    "gauge": ("value", "high_water"),
    "histogram": ("count", "sum", "min", "max"),
    "rate": ("window", "in_window", "rate", "total"),
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_bucket(bucket: Any) -> bool:
    return (
        isinstance(bucket, dict)
        and (bucket.get("le") == "+Inf" or _is_number(bucket.get("le")))
        and _is_number(bucket.get("count"))
    )


def _is_value(value: Any, kind: str) -> bool:
    if not (
        isinstance(value, dict)
        and isinstance(value.get("labels", {}), dict)
        and all(_is_number(value.get(field)) for field in _VALUE_FIELDS[kind])
    ):
        return False
    buckets = value.get("buckets")
    return kind != "histogram" or (
        isinstance(buckets, list) and all(map(_is_bucket, buckets))
    )


def _is_entry(entry: Any) -> bool:
    """One instrument's snapshot: a known type and its list of values."""
    return (
        isinstance(entry, dict)
        and entry.get("type") in _VALUE_FIELDS
        and isinstance(entry.get("values"), list)
        and all(_is_value(value, entry["type"]) for value in entry["values"])
    )


def load_metrics(path: Union[str, Path]) -> dict[str, Any]:
    """Load a snapshot written by :func:`write_metrics`.

    Raises :class:`ValueError` naming ``path`` when the file is not JSON
    or is not shaped like :meth:`MetricsRegistry.snapshot
    <repro.simcore.metrics.MetricsRegistry.snapshot>`, so a reader can
    trust every field it formats or sums.
    """
    try:
        snapshot = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    metrics = snapshot.get("metrics") if isinstance(snapshot, dict) else None
    if not isinstance(metrics, dict) or not _is_number(snapshot.get("time", 0.0)):
        raise ValueError(f"{path}: not a metrics snapshot")
    for name, entry in metrics.items():
        if not _is_entry(entry):
            raise ValueError(f"{path}: not a metrics snapshot: {name!r} is malformed")
    return snapshot

