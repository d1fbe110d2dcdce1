"""Wall time scaled to a reference speed of the host.

The host this benchmark was tuned on does not run at one speed: a fixed
pure-Python loop takes anywhere from 26 to 60 ms, switching between a fast
and a slow state every few seconds and drifting over minutes, because the
machine is shared.  Raw repetition times of identical code moved by 20-40%
between runs, and no statistic over raw times (median, best decile) held
still.

So every measured operation is bracketed by a short fixed reference loop,
and its time is reported at the reference speed: ``raw * REFERENCE_S /
loop``, with ``loop`` the mean of the reference loops just before and just
after the operation.  A host that is twice as slow for a moment doubles both
the operation and the loop, and the scaled time stays put.  The reference
loop is fixed benchmark code and never changes, so a change to the program
moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import time

#: Iterations of the reference loop (about 26 ms on the tuning host's fast
#: state, 50 ms on its slow one).
REFERENCE_ITERATIONS = 200_000
#: Seconds the reference loop is defined to take at the reference speed.
REFERENCE_S = 0.025


def reference_loop() -> float:
    """Seconds one run of the fixed reference loop takes right now."""
    began = time.perf_counter()
    table = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += (i * i) % 7
        table[i & 1023] = total
    return time.perf_counter() - began


class ReferenceClock:
    """The scale factor of one operation.

    Call :meth:`start` right before the operation and :meth:`factor` right
    after it; ``factor`` returns ``REFERENCE_S`` over the mean of the two
    reference loops.  The loop ``factor`` runs also starts the next
    interval, so back-to-back slices of work need one loop each.
    """

    def __init__(self) -> None:
        self._before = 0.0

    def start(self) -> None:
        self._before = reference_loop()

    def leading(self) -> float:
        """The factor from the loop that started the interval alone: for work
        at the very start of a longer operation."""
        return REFERENCE_S / self._before

    def factor(self) -> float:
        after = reference_loop()
        factor = REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
        return factor


def scaled(raw: dict, factor: float) -> dict:
    """Scale a repetition's samples: times (a name part ending ``_s`` or
    ``_ms``) by *factor*, rates (``_per_s``) by its inverse; counts, sizes
    and ratios stay as they are."""
    out = {}
    for name, value in raw.items():
        parts = name.split(".")
        if any(part.endswith("_per_s") for part in parts):
            out[name] = value / factor
        elif any(part.endswith(("_s", "_ms")) for part in parts):
            out[name] = value * factor
        else:
            out[name] = value
    return out
