"""Per-layer tracing of arksim from outside the package.

`Tracer` wraps the public functions and methods listed in `TRACED`, one
layer per arksim module.  A plain function is replaced in every module
namespace that holds it, so both `crypto.sign(...)` and a name imported
with `from .crypto import sign` reach the wrapper; a method is replaced
on its class.  Each call records a span (name, start, end, parent span)
in memory.  While the calls run, the tracer also sums per-name counts and
inclusive times and each layer's self time: the time spent in the layer
minus the time spent in wrapped calls into other layers.  `close()`
restores every original object.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from arksim import crypto

# layer (= arksim module) -> wrapped public functions and Class.method names
TRACED: Dict[str, Tuple[str, ...]] = {
    "crypto": ("point_mul", "keygen", "sign", "verify", "aggregate",
               "aggregate_secret", "cosign", "extract_secret",
               "SecretKey.public"),
    "script": ("evaluate", "taproot"),
    "ledger": ("Chain.grant", "Chain.view", "Chain.submit",
               "Chain.submit_package", "Chain.advance_round"),
    "arkcore": ("vtxo_lock", "batch_lock", "boarding_lock", "classify_paths",
                "collab_aggregate", "build_vtxt", "check_vtxt",
                "build_connector", "boarding_tx", "reset_tx", "ark_tx",
                "forfeit_tx"),
    "operator_node": ("Operator.fund", "Operator.verify_boarding",
                      "Operator.verify_batch_swap", "Operator.verify_exit",
                      "Operator.verify_ark_request",
                      "Operator.assemble_commitment", "Operator.run_signing",
                      "Operator.submit_and_track", "Operator.sweep",
                      "Operator.watch_step"),
    "wallet": ("Wallet.make_boarding", "Wallet.make_swap", "Wallet.make_exit",
               "Wallet.make_ark_request", "Wallet.verify_commitment",
               "Wallet.on_commitment_confirmed", "Wallet.on_payment_sent",
               "Wallet.receive_payment", "Wallet.unilateral_exit",
               "Wallet.spend_policy_step", "Wallet.balance"),
    "fastfinality": ("setup_collateral", "burn_collateral",
                     "FfOperator.fresh_nonce", "FfOperator.sign_nonce_bound",
                     "FfCoordinator.make_ff_payment", "FfCoordinator.ff_send",
                     "FfCoordinator.step", "FfCoordinator.extract_and_burn",
                     "FfCoordinator.monitor_step"),
    "harness": ("derive_state", "tx_vbytes", "exit_race",
                "ff_double_spend_trace", "Simulation.add_wallet",
                "Simulation.tick", "Simulation.board",
                "Simulation.settle_commitment", "Simulation.ark_pay",
                "Simulation.state", "Simulation.book_projection",
                "Simulation.balances"),
    "footprint": ("vbytes",),
}

# inclusive times reported as `<layer>.<function>_s`
TIMED = {
    "crypto": ("point_mul", "verify", "aggregate", "cosign"),
    "script": ("evaluate", "taproot"),
    "ledger": ("submit", "advance_round"),
    "arkcore": ("build_vtxt", "build_connector"),
    "operator_node": ("assemble_commitment", "run_signing",
                      "verify_ark_request", "watch_step"),
    "wallet": ("verify_commitment", "receive_payment", "unilateral_exit"),
    "fastfinality": ("step", "make_ff_payment", "extract_and_burn"),
    "harness": ("tick", "exit_race"),
}

# call counts reported as `<layer>.<function>`
COUNTED = {
    "crypto": ("sign", "verify", "aggregate"),
    "script": ("evaluate", "taproot"),
    "ledger": ("submit", "advance_round"),
}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []   # (name id, start, end, parent)
        self.names: List[str] = []
        self.calls: List[int] = []
        self.inclusive: List[float] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in TRACED}
        self.counters: Dict[str, int] = {
            "point_mul_G": 0, "point_mul_var": 0, "pubkey_hits": 0,
            "aggregate_hits": 0, "submit_queued": 0, "mempool_peak": 0,
            "txs_confirmed": 0, "vtxt_txs": 0, "rounds_aborted": 0}
        self.verified: set = set()
        self._stack: List[list] = []   # [layer, foreign seconds, span id, point_mul count]
        self._restore: List[Tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "arksim" or name.startswith("arksim.")]
        for layer, qualnames in TRACED.items():
            module = sys.modules[f"arksim.{layer}"]
            for qualname in qualnames:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._replace(owner, attr, original,
                                  self._wrap(original, f"{layer}.{attr}", layer))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(original, f"{layer}.{qualname}", layer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, original, wrapper)
        return self

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # --- the wrapper -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.inclusive.append(0.0)
        observe = self._observer(name)
        stack, spans, calls, inclusive = (self._stack, self.spans, self.calls,
                                          self.inclusive)
        self_s, counters, clock = self.self_s, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans)
            spans.append(None)
            frame = [layer, 0.0, span_id,
                     counters["point_mul_G"] + counters["point_mul_var"]]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                spans[span_id] = (name_id, start, end,
                                  parent[2] if parent is not None else -1)
                calls[name_id] += 1
                inclusive[name_id] += spent
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    self_s[layer] += spent - frame[1]
                    if parent is not None:
                        parent[1] += spent
                if observe is not None:
                    observe(frame, args, result, exc)

        return functools.wraps(fn)(traced)

    def _observer(self, name: str):
        """Counters measured at the call boundary of one wrapped name."""
        c = self.counters

        def muls_inside(frame) -> int:
            return c["point_mul_G"] + c["point_mul_var"] - frame[3]

        def point_mul(frame, args, result, exc):
            c["point_mul_G" if args[0] == crypto.G else "point_mul_var"] += 1

        def public(frame, args, result, exc):
            c["pubkey_hits"] += muls_inside(frame) == 0

        def aggregate(frame, args, result, exc):
            c["aggregate_hits"] += exc is None and muls_inside(frame) == 0

        def verify(frame, args, result, exc):
            pk, m, sig = args
            self.verified.add((pk.point, m, sig.R, sig.s))

        def submit(frame, args, result, exc):
            c["submit_queued"] += result is True
            c["mempool_peak"] = max(c["mempool_peak"], len(args[0].mempool))

        def advance_round(frame, args, result, exc):
            if exc is None:
                c["txs_confirmed"] += len(args[0].blocks[-1])

        def build_vtxt(frame, args, result, exc):
            if exc is None:
                c["vtxt_txs"] += len(result[0].txs)

        def run_signing(frame, args, result, exc):
            c["rounds_aborted"] += isinstance(exc, crypto.SessionAborted)

        return {"crypto.point_mul": point_mul, "crypto.public": public,
                "crypto.aggregate": aggregate, "crypto.verify": verify,
                "ledger.submit": submit, "ledger.advance_round": advance_round,
                "arkcore.build_vtxt": build_vtxt,
                "operator_node.run_signing": run_signing}.get(name)

    # --- results -----------------------------------------------------------

    def _stat(self, name: str) -> Tuple[int, float]:
        i = self.names.index(name)
        return self.calls[i], self.inclusive[i]

    def metrics(self) -> Dict[str, float]:
        """Per-layer counts, inclusive times and self times."""
        c = self.counters
        out: Dict[str, float] = {
            "crypto.point_mul_G": c["point_mul_G"],
            "crypto.point_mul_var": c["point_mul_var"],
            "crypto.pubkey_hit_ratio": _ratio(
                c["pubkey_hits"], self._stat("crypto.public")[0]),
            "crypto.aggregate_hit_ratio": _ratio(
                c["aggregate_hits"], self._stat("crypto.aggregate")[0]),
            "crypto.verify_unique_ratio": _ratio(
                len(self.verified), self._stat("crypto.verify")[0]),
            "ledger.submit_queued_ratio": _ratio(
                c["submit_queued"], self._stat("ledger.submit")[0]),
            "ledger.mempool_peak": c["mempool_peak"],
            "ledger.txs_confirmed": c["txs_confirmed"],
            "arkcore.vtxt_txs": c["vtxt_txs"],
            "operator_node.rounds_aborted": c["rounds_aborted"],
        }
        for layer, names in COUNTED.items():
            for fn in names:
                out[f"{layer}.{fn}"] = self._stat(f"{layer}.{fn}")[0]
        for layer, names in TIMED.items():
            for fn in names:
                out[f"{layer}.{fn}_s"] = self._stat(f"{layer}.{fn}")[1]
        for layer, seconds in self.self_s.items():
            out[f"{layer}.self_s"] = seconds
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, summary_path: str, spans_path: str, extra: dict) -> None:
        """Write the per-name summary and the spans, after the run."""
        summary = dict(extra)
        summary["calls"] = {n: {"count": k, "inclusive_s": s}
                            for n, k, s in zip(self.names, self.calls,
                                               self.inclusive) if k}
        summary["self_s"] = dict(self.self_s)
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        with gzip.open(spans_path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write("%d %.9f %.9f %d\n" % span)
