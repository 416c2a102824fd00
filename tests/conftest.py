import functools

import pytest

from arksim import crypto


@pytest.fixture
def point_mul_calls(monkeypatch):
    """Count point multiplications, starting from empty public-key,
    signing and verification memos."""
    calls = []
    real = crypto.point_mul

    def counting(p, n):
        calls.append(p)
        return real(p, n)

    monkeypatch.setattr(crypto, "point_mul", counting)
    monkeypatch.setattr(crypto, "_public_point", functools.lru_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._public_point.__wrapped__))
    monkeypatch.setattr(crypto, "_signature", functools.lru_cache(
        maxsize=crypto._SIGN_CACHE_SIZE)(crypto._signature.__wrapped__))
    # the verify memo also takes the verdicts of crypto.verify_batch
    monkeypatch.setattr(crypto, "_verified", crypto._insertable_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._verified.__wrapped__))
    return calls
