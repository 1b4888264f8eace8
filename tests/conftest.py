import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail any test that leaves a new live thread, such as an RNG prefetch
    helper its cloud did not shut down."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def traced_peak():
    """A function that calls fn(*args, **kwargs) and returns the peak of the
    memory tracemalloc saw allocated during the call, in bytes; numpy reports
    its array buffers to tracemalloc."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
