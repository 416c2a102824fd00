import signal
from types import SimpleNamespace

import pytest

from arksim import InvariantError, crypto, harness


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
def multi_mul_terms(monkeypatch):
    """The number of terms in each batch equation's `crypto._multi_mul`
    call: one per R_i, and two GLV halves per key."""
    sizes = []
    real = crypto._multi_mul

    def counting(terms):
        sizes.append(len(terms))
        return real(terms)

    monkeypatch.setattr(crypto, "_multi_mul", counting)
    return sizes


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


@pytest.fixture
def audited(monkeypatch):
    """Audit each simulation the test makes after every watcher step, and
    raise `InvariantError` naming the first violation not in `exempt`, a
    set the test may add to; `steps` lists each audited step's height."""
    seen = SimpleNamespace(exempt=set(), steps=[])
    real_init = harness.Simulation.__init__

    def init(sim, *args, **kwargs):
        real_init(sim, *args, **kwargs)
        watch = sim.operator.watch_step

        def audited_watch():
            submitted = watch()
            seen.steps.append(sim.chain.height)
            found = [v for v in harness.audit(sim) if v.invariant not in seen.exempt]
            if found:
                raise InvariantError(str(found[0]))
            return submitted

        sim.operator.watch_step = audited_watch

    monkeypatch.setattr(harness.Simulation, "__init__", init)
    return seen
