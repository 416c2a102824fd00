"""Deterministic desk-scale simulator for an Ark-style commit chain:
a simulated UTXO ledger with k-deep stability, Schnorr key/signature
aggregation, presigned transaction trees, an operator and wallet state
machine, and a fast-finality overlay with nonce-reuse key extraction.
"""

from .crypto import (
    AggregateKey,
    PublicKey,
    SecretKey,
    SessionAborted,
    Signature,
    aggregate,
    cosign,
    extract_secret,
    keygen,
    sign,
    verify,
)
from .errors import InvariantError
from .ledger import Adversary, Chain, MaxDelay, OutPoint, Output, Params, Tx
from .script import KEY_PATH, LockScript, Witness, taproot

__all__ = [
    "AggregateKey", "PublicKey", "SecretKey", "SessionAborted", "Signature",
    "aggregate", "cosign", "extract_secret", "keygen", "sign", "verify",
    "Adversary", "Chain", "MaxDelay", "OutPoint", "Output", "Params", "Tx",
    "KEY_PATH", "LockScript", "Witness", "taproot", "InvariantError",
]

__version__ = "0.1.0"
