import signal

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
    # memos of the same kind: the public-key and signing memos also take
    # the results of crypto.sign_batch, and the verify memo the verdicts of
    # crypto.verify_batch
    for name, bound in (("_public_point", crypto._CACHE_SIZE),
                        ("_signature", crypto._SIGN_CACHE_SIZE),
                        ("_verified", crypto._CACHE_SIZE)):
        monkeypatch.setattr(crypto, name, crypto._insertable_cache(
            maxsize=bound)(getattr(crypto, name).__wrapped__))
    return calls


@pytest.fixture
def no_hang():
    """Fail the test, instead of hanging, if it runs longer than 10 s: a
    walk that never ends raises `TimeoutError` out of its loop."""
    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)
