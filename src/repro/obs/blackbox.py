"""Post-mortem analysis of flight-recorder dumps.

A dump (see :mod:`repro.obs.flightrec`) holds the last-N records of
every category — kernel ops, message ops, protocol events, spans — each
stamped with the recorder's global sequence number.  This module turns
one into a **merged causal timeline**: the four streams interleaved in
observation order around the trigger instant, filterable by simulated
time window and by node, rendered as text or JSON.  A ``diff`` mode
compares two dumps structurally (trigger, counts, first divergent
record per category) — the tool behind the repository's
"byte-identical across runs" claims when they ever fail.

CLI: ``python -m repro.obs blackbox DUMP [--diff OTHER]``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.flightrec import FIELDS, FLIGHT_FORMAT

#: Category name -> single-letter tag used in the text timeline.
_TAGS = {"kernel": "K", "message": "M", "proto": "P", "span": "S"}


def load_dump(path: Union[str, Path]) -> dict[str, Any]:
    """Load and validate a flight dump; raises ``ValueError`` if unfit."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("not a flight dump (top level is not an object)")
    if data.get("format") != FLIGHT_FORMAT:
        raise ValueError(
            f"not a {FLIGHT_FORMAT} dump "
            f"(format={data.get('format')!r})"
        )
    trigger = data.get("trigger")
    records = data.get("records")
    if not isinstance(trigger, dict) or not isinstance(records, dict):
        raise ValueError("truncated flight dump: missing trigger/records")
    if not (
        isinstance(trigger.get("trigger"), str)
        and isinstance(trigger.get("reason"), str)
        and _is_number(trigger.get("time"))
        and _is_int(trigger.get("seq"))
    ):
        raise ValueError(
            "malformed flight dump: trigger needs trigger/reason strings, "
            "a numeric time and an int seq"
        )
    counts = data.get("counts", {})
    if not isinstance(counts, dict) or not all(
        isinstance(counts.get(category, {}), dict) for category in FIELDS
    ):
        raise ValueError(
            "malformed flight dump: counts must map each category to an object"
        )
    for category, fields in FIELDS.items():
        if not isinstance(records.get(category), list):
            raise ValueError(
                f"truncated flight dump: missing {category!r} records"
            )
        for index, record in enumerate(records[category]):
            if not (
                isinstance(record, dict)
                and all(field in record for field in fields)
                and _is_int(record["seq"])
                and _is_number(record["time"])
            ):
                raise ValueError(
                    f"malformed flight dump: {category} record {index} is not "
                    f"an object with {', '.join(fields)} (int seq, numeric time)"
                )
    return data


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _names_node(value: Optional[str], node: str) -> bool:
    """True when an address names the node — exactly, or as its host.

    Message endpoints read ``host:port`` (``RM3:gatekeeper``) and
    protocol loci ``name@site`` (``duroc1@client``); ``--node RM3``
    must match both shapes, not just the bare string.
    """
    if value is None:
        return False
    if value == node:
        return True
    if value.split(":", 1)[0] == node:
        return True
    return value.rsplit("@", 1)[-1] == node


def _record_node_match(category: str, record: dict[str, Any], node: str) -> bool:
    if category == "proto":
        return _names_node(record.get("node"), node)
    if category == "message":
        return _names_node(record.get("src"), node) or _names_node(
            record.get("dst"), node
        )
    # Kernel and span records carry no node identity.
    return False


def merge_timeline(
    dump: dict[str, Any],
    window: Optional[float] = None,
    node: Optional[str] = None,
) -> list[dict[str, Any]]:
    """The dump's four record streams merged in observation order.

    Every entry is the record dict plus a ``"category"`` key.  The
    recorder's global ``seq`` totally orders records across categories,
    so the merge *is* the causal order the probe observed.  ``window``
    restricts to records within that many simulated seconds before the
    trigger instant; ``node`` restricts to records naming that node
    (protocol events at it, messages to or from it).
    """
    trigger = dump["trigger"]
    horizon = (
        float(trigger["time"]) - window if window is not None else None
    )
    entries: list[dict[str, Any]] = []
    for category in FIELDS:
        for record in dump["records"][category]:
            if horizon is not None and float(record["time"]) < horizon:
                continue
            if node is not None and not _record_node_match(
                category, record, node
            ):
                continue
            entries.append({"category": category, **record})
    entries.sort(key=lambda entry: entry["seq"])
    return entries


def _describe(category: str, record: dict[str, Any]) -> str:
    op = record.get("op", "?")
    if category == "kernel":
        if op == "schedule":
            return (
                f"schedule when={record.get('when')} "
                f"queue={record.get('queue_size')}"
            )
        return f"step when={record.get('when')}"
    if category == "message":
        text = (
            f"{op} #{record.get('msg')} {record.get('kind')} "
            f"{record.get('src')} -> {record.get('dst')}"
        )
        if record.get("corr_id") is not None:
            text += f" corr={record['corr_id']}"
        if record.get("trace_id") is not None:
            text += f" trace={record['trace_id']}/{record.get('span_id')}"
        if record.get("reason") is not None:
            text += f" reason={record['reason']}"
        return text
    if category == "proto":
        attrs = record.get("attrs") or {}
        text = f"{op} {record.get('node')} {record.get('name')}"
        if attrs:
            text += " " + json.dumps(attrs, sort_keys=True)
        return text
    # span
    text = f"{op} {record.get('name')}"
    if record.get("trace_id") is not None:
        text += f" trace={record['trace_id']}/{record.get('span_id')}"
    if record.get("parent_id") is not None:
        text += f" parent={record['parent_id']}"
    return text


def render_timeline(
    dump: dict[str, Any], entries: list[dict[str, Any]]
) -> str:
    """Text rendering: a header block, then one line per record."""
    trigger = dump["trigger"]
    lines = [
        f"flight dump — trigger={trigger.get('trigger')} "
        f"reason={trigger.get('reason')}",
        f"  at t={trigger.get('time'):g} seq={trigger.get('seq')}",
    ]
    counts = dump.get("counts", {})
    parts = []
    for category in FIELDS:
        entry = counts.get(category, {})
        parts.append(
            f"{category} {entry.get('live', '?')}/{entry.get('pushed', '?')}"
            f" (-{entry.get('evicted', '?')})"
        )
    lines.append("  live/pushed (-evicted): " + ", ".join(parts))
    suppressed = dump.get("dumps_suppressed", 0)
    if suppressed:
        lines.append(f"  later trips suppressed: {suppressed}")
    lines.append("")
    if not entries:
        lines.append("(no records in the selected window)")
        return "\n".join(lines)
    for entry in entries:
        lines.append(
            f"[{float(entry['time']):>12.6f}] "
            f"{_TAGS.get(entry['category'], '?')} "
            f"{_describe(entry['category'], entry)}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


def diff_dumps(
    a: dict[str, Any], b: dict[str, Any]
) -> dict[str, Any]:
    """A structural comparison of two dumps.

    Returns ``{"identical": bool, ...}`` where the remaining keys name
    what diverged: the trigger block, per-category counts, and — per
    category — the index of the first differing record plus the surplus
    record counts on either side.
    """
    out: dict[str, Any] = {"identical": True}
    if a.get("trigger") != b.get("trigger"):
        out["identical"] = False
        out["trigger"] = {"a": a.get("trigger"), "b": b.get("trigger")}
    counts: dict[str, Any] = {}
    records: dict[str, Any] = {}
    for category in FIELDS:
        ca = (a.get("counts") or {}).get(category)
        cb = (b.get("counts") or {}).get(category)
        if ca != cb:
            counts[category] = {"a": ca, "b": cb}
        ra = (a.get("records") or {}).get(category) or []
        rb = (b.get("records") or {}).get(category) or []
        first: Optional[int] = None
        for idx, (left, right) in enumerate(zip(ra, rb)):
            if left != right:
                first = idx
                break
        if first is not None or len(ra) != len(rb):
            records[category] = {
                "first_divergence": first,
                "only_a": max(0, len(ra) - len(rb)),
                "only_b": max(0, len(rb) - len(ra)),
            }
    if counts:
        out["identical"] = False
        out["counts"] = counts
    if records:
        out["identical"] = False
        out["records"] = records
    return out


def render_diff(diff: dict[str, Any]) -> str:
    """Text rendering of a :func:`diff_dumps` result."""
    if diff["identical"]:
        return "dumps are identical"
    lines = ["dumps differ:"]
    trigger = diff.get("trigger")
    if trigger:
        lines.append(
            f"  trigger: a={trigger['a']!r}"
        )
        lines.append(f"           b={trigger['b']!r}")
    for category, entry in sorted(diff.get("counts", {}).items()):
        lines.append(
            f"  counts[{category}]: a={entry['a']!r} b={entry['b']!r}"
        )
    for category, entry in sorted(diff.get("records", {}).items()):
        where = entry["first_divergence"]
        detail = (
            f"first divergence at record {where}"
            if where is not None
            else "common prefix identical"
        )
        lines.append(
            f"  records[{category}]: {detail}; "
            f"+{entry['only_a']} only in a, +{entry['only_b']} only in b"
        )
    return "\n".join(lines)
