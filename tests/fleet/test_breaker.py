"""Circuit breaker: open/cooldown semantics and strict half-open probing."""

import threading

import pytest

from repro.errors import EvaluationError, TransportError
from repro.fleet.breaker import BreakerOpenError, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock():
    return FakeClock()


def _tripped(clock, threshold=3, cooldown_s=10.0) -> CircuitBreaker:
    breaker = CircuitBreaker("svc", threshold, cooldown_s, now=clock)
    for _ in range(threshold):
        breaker.record(False)
    return breaker


class TestStates:
    def test_closed_until_threshold(self, clock):
        breaker = CircuitBreaker("svc", 3, 10.0, now=clock)
        breaker.record(False)
        breaker.record(False)
        assert not breaker.is_open()
        breaker.check()  # still closed

    def test_opens_on_threshold(self, clock):
        breaker = CircuitBreaker("svc", 3, 10.0, now=clock)
        assert breaker.record(False) is False
        assert breaker.record(False) is False
        assert breaker.record(False) is True  # the opening transition
        assert breaker.is_open()
        with pytest.raises(BreakerOpenError):
            breaker.check()
        assert breaker.num_rejections == 1

    def test_success_resets_consecutive_count(self, clock):
        breaker = CircuitBreaker("svc", 3, 10.0, now=clock)
        breaker.record(False)
        breaker.record(False)
        breaker.record(True)
        breaker.record(False)
        assert not breaker.is_open()

    def test_breaker_error_is_transport_and_evaluation_error(self, clock):
        breaker = _tripped(clock)
        with pytest.raises(TransportError):
            breaker.check()
        with pytest.raises(EvaluationError):
            breaker.check()

    def test_reset_closes(self, clock):
        breaker = _tripped(clock)
        breaker.reset()
        breaker.check()
        assert not breaker.is_open()

    def test_bad_threshold_rejected(self, clock):
        with pytest.raises(EvaluationError):
            CircuitBreaker("svc", 0, 1.0, now=clock)


class TestHalfOpen:
    def test_cooldown_expiry_admits_probe(self, clock):
        breaker = _tripped(clock, cooldown_s=10.0)
        clock.t = 10.1
        assert not breaker.is_open()  # eligible again
        breaker.check()  # the probe is admitted

    def test_failed_probe_reopens_full_cooldown(self, clock):
        breaker = _tripped(clock, cooldown_s=10.0)
        clock.t = 10.1
        breaker.check()
        assert breaker.record(False) is True  # re-opened
        clock.t = 15.0  # fresh cooldown from t=10.1, still open
        with pytest.raises(BreakerOpenError):
            breaker.check()

    def test_successful_probe_closes(self, clock):
        breaker = _tripped(clock, cooldown_s=10.0)
        clock.t = 10.1
        breaker.check()
        breaker.record(True)
        breaker.check()  # closed: everyone flows again
        assert breaker.failures == 0

    def test_single_probe_under_concurrency(self, clock):
        """Exactly one of many concurrent callers becomes the probe."""
        breaker = _tripped(clock, cooldown_s=10.0)
        clock.t = 10.1
        admitted, rejected = [], []
        barrier = threading.Barrier(8)

        def contender(i):
            barrier.wait()
            try:
                breaker.check()
            except BreakerOpenError:
                rejected.append(i)
            else:
                admitted.append(i)

        threads = [
            threading.Thread(target=contender, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        assert len(rejected) == 7
        # the probe reports success -> breaker closes for everyone
        breaker.record(True)
        breaker.check()
