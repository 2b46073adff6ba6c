import multiprocessing
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_live_child():
    """Fail any test that leaves a child process running."""
    yield
    assert multiprocessing.active_children() == []
