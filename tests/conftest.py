"""Fixtures shared by the test modules.

``no_segment_leaks`` fails a test that leaves a ``repro_<pid>_…``
shared-memory segment behind.  It counts only segments this test run
can have made (:func:`repro.exec.shm.own_segments`), so a pool some
other process on the machine is running meanwhile is not a leak of
this test.
"""

import pytest

from repro.exec.shm import own_segments


@pytest.fixture
def no_segment_leaks():
    before = own_segments()
    yield
    assert own_segments() == before, "test leaked shared-memory segments"
