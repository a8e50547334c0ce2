"""Per-test time limit: a hang fails its own test instead of stalling the run."""

import signal

import pytest

# Above every acceptance budget (the largest is 180 s); the slowest test
# takes a few seconds.
TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(Exception):
    pass


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no timer signal on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
