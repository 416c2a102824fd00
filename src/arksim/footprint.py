"""Virtual-size model calibrated to measured taproot transaction shapes,
plus unilateral-exit cost reporting.

The model is linear in input/output counts.  Constants are fixed by
solving the three reference shapes (commitment 197 vB, tree node 150 vB,
tree leaf 107 vB) given the standard 10.5 vB transaction overhead and
43 vB per P2TR output; `calibrate` re-derives and re-checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List

from .errors import InvariantError


@dataclass(frozen=True)
class SizeModel:
    tx_overhead: Fraction = Fraction(21, 2)           # 10.5
    vb_per_keypath_input: Fraction = Fraction(115, 2)  # 57.5
    vb_per_scriptpath_input: Fraction = Fraction(81, 2)  # 40.5
    vb_per_p2tr_output: Fraction = Fraction(43)
    vb_per_anchor_output: Fraction = Fraction(13)


@dataclass(frozen=True)
class TxShape:
    keypath_ins: int = 0
    scriptpath_ins: int = 0
    p2tr_outs: int = 0
    anchor_outs: int = 0


COMMITMENT_SHAPE = TxShape(keypath_ins=1, p2tr_outs=3)
NODE_SHAPE = TxShape(scriptpath_ins=1, p2tr_outs=2, anchor_outs=1)
LEAF_SHAPE = TxShape(scriptpath_ins=1, p2tr_outs=1, anchor_outs=1)


def calibrate(overhead: Fraction = Fraction(21, 2), p2tr: Fraction = Fraction(43),
              anchor: Fraction = Fraction(13)) -> SizeModel:
    """Solve the three reference-shape equations for the input constants
    and verify the solution reproduces all three totals."""
    key_in = Fraction(197) - overhead - 3 * p2tr
    script_in = Fraction(150) - overhead - 2 * p2tr - anchor
    model = SizeModel(overhead, key_in, script_in, p2tr, anchor)
    for shape, want in ((COMMITMENT_SHAPE, 197), (NODE_SHAPE, 150), (LEAF_SHAPE, 107)):
        got = vbytes(shape, model)
        if got != want:
            raise InvariantError(f"{shape} weighs {got} vB under the calibration, not {want}")
    return model


DEFAULT_MODEL = SizeModel()


def vbytes(shape: TxShape, model: SizeModel = DEFAULT_MODEL) -> int:
    if shape.keypath_ins < 0 or shape.scriptpath_ins < 0:
        raise ValueError("negative input count")
    if shape.keypath_ins + shape.scriptpath_ins < 1:
        raise ValueError("a transaction needs at least one input")
    total = (model.tx_overhead
             + shape.keypath_ins * model.vb_per_keypath_input
             + shape.scriptpath_ins * model.vb_per_scriptpath_input
             + shape.p2tr_outs * model.vb_per_p2tr_output
             + shape.anchor_outs * model.vb_per_anchor_output)
    return math.ceil(total)


def exit_depth(n: int) -> int:
    if n < 1:
        raise ValueError("batch size must be positive")
    return math.ceil(math.log2(n)) if n > 1 else 0


def exit_vbytes(n: int) -> int:
    """Unilateral exit footprint for a binary batch of n VTXOs."""
    return exit_depth(n) * vbytes(NODE_SHAPE) + vbytes(LEAF_SHAPE)


def exit_cost(n: int, fee_rate: int) -> int:
    return fee_rate * exit_vbytes(n)


def cost_table(ns: Iterable[int], fee_rate: int) -> List[dict]:
    rows = []
    for n in ns:
        d = exit_depth(n)
        rows.append({"n": n, "depth": d, "vbytes": exit_vbytes(n),
                     "sats": exit_cost(n, fee_rate)})
    return rows


def cost_table_csv(ns: Iterable[int], fee_rate: int) -> str:
    lines = ["n,depth,vbytes,sats"]
    for row in cost_table(ns, fee_rate):
        lines.append(f"{row['n']},{row['depth']},{row['vbytes']},{row['sats']}")
    return "\n".join(lines) + "\n"
