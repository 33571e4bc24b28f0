import random
import signal

import pytest

PRIMES = (3, 5, 7)

# a test that runs this long has hung: it fails with a traceback of where it
# stood instead of stalling the whole run
WATCHDOG_S = 300


@pytest.fixture
def rng():
    return random.Random(0x1A5A)


@pytest.fixture(autouse=True)
def watchdog():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {WATCHDOG_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
