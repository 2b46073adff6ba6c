import multiprocessing
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_live_child():
    """Fail any test that leaves a child process or a second thread running."""
    yield
    assert multiprocessing.active_children() == []
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=1.0)  # a cancelled timer's thread ends on its own
    assert threading.enumerate() == [threading.main_thread()]
