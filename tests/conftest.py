import sys
import threading
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
