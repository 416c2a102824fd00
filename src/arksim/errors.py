"""The error every internal invariant raises.

An invariant is a property the simulator itself guarantees (the calibrated
shapes, a funding that spends no reserved connector), not a check of its
input.  It raises `InvariantError` rather than resting on `assert`, so it
still holds under `python -O`.  The protocol's invariants over a whole
state are checked in one place, `harness.audit`.
"""


class InvariantError(Exception):
    """An internal invariant does not hold: a fault in the simulator."""
