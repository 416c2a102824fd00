import functools

import pytest

from arksim import crypto


@pytest.fixture
def point_mul_calls(monkeypatch):
    """Count point multiplications, starting from empty public-key and
    verification memos."""
    calls = []
    real = crypto.point_mul

    def counting(p, n):
        calls.append(p)
        return real(p, n)

    monkeypatch.setattr(crypto, "point_mul", counting)
    for name in ("_public_point", "_verified"):
        fresh = functools.lru_cache(maxsize=crypto._CACHE_SIZE)(
            getattr(crypto, name).__wrapped__)
        monkeypatch.setattr(crypto, name, fresh)
    return calls
