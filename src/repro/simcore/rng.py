"""Deterministic random-number streams for simulations.

Every stochastic component draws from its own named substream derived
from a single root seed, so adding a new random component never perturbs
the draws of existing ones — a requirement for reproducible experiments
and for the repository's determinism tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, cast

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class _Stream:
    """A named stream whose ``numpy.random.Generator`` is built on the
    first attribute read, so a stream nobody draws from imports no numpy.

    Every attribute read through it is then kept on the instance:
    ``stream.random`` is the generator's own bound method, and a draw
    costs no frame beyond the generator's.
    """

    def __init__(self, words: list[int]) -> None:
        self._words = words
        self._gen: Optional[np.random.Generator] = None

    def __getattr__(self, attr: str) -> Any:
        # Only reached for a name not yet kept on the instance.  Dunder
        # probes (copy, pickle) see a plain object, not the generator.
        if attr.startswith("__"):
            raise AttributeError(attr)
        gen = self._gen
        if gen is None:
            import numpy as np

            gen = self._gen = np.random.default_rng(np.random.SeedSequence(self._words))
        value = self.__dict__[attr] = getattr(gen, attr)
        return value


class RngRegistry:
    """Factory of independent, named ``numpy.random.Generator`` streams.

    Streams are derived with ``SeedSequence.spawn``-style keying: the
    stream named ``"gram.hostA"`` is a function of (root seed, name)
    only.  The root seed is a non-negative integer (``SeedSequence``
    entropy); a negative one is a :class:`~repro.errors.SimulationError`.

    A stream builds its generator on its first draw, from the same
    ``SeedSequence([seed, *map(ord, name)])``, so its draws do not depend
    on when it was asked for, and importing :mod:`repro` loads no numpy:
    a run that draws nothing never does.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Hash the name into entropy words deterministically.
            words = [self.seed] + [ord(c) for c in name]
            gen = self._streams[name] = cast("np.random.Generator", _Stream(words))
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"

