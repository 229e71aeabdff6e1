"""Read one metric series the way every export does: off a snapshot."""

from typing import Any, Optional


def series(registry: Any, name: str, **labels: Any) -> Optional[dict]:
    """The snapshot entry of ``name``'s series labelled exactly ``labels``.

    ``None`` when the series was never written.
    """
    wanted = {key: str(value) for key, value in labels.items()}
    entry = registry.snapshot()["metrics"].get(name, {"values": []})
    for value in entry["values"]:
        if value["labels"] == wanted:
            return value
    return None


def value(registry: Any, name: str, **labels: Any) -> float:
    """A counter or gauge series' value; 0.0 for one never written."""
    found = series(registry, name, **labels)
    return found["value"] if found is not None else 0.0
