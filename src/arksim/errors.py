"""The error every internal invariant raises.

An invariant is a property the simulator itself guarantees (the state
partition, value conservation, the calibrated shapes), not a check of its
input.  It raises `InvariantError` rather than resting on `assert`, so it
still holds under `python -O`.
"""


class InvariantError(Exception):
    """An internal invariant does not hold: a fault in the simulator."""
