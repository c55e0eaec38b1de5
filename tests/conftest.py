import faulthandler
import os

import pytest

# A copy of stderr taken before any test runs. During a test, fd 2 is
# pytest's capture file, which is lost when the process exits.
_STDERR = pytest.StashKey[int]()

# Seconds a worker test may take before the run ends; they take 1 to 10.
STALL_SECONDS = 120


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture
def stall_guard(request):
    """End the run with every thread's traceback on stderr if the test
    stalls, instead of hanging: tests that run sweep workers or a child
    process could otherwise wait forever on a lost worker."""
    faulthandler.dump_traceback_later(
        STALL_SECONDS, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
