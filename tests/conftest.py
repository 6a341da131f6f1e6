"""Fixtures shared by the tier-1 tests."""

import pytest

from circulant3 import sos


@pytest.fixture(autouse=True)
def _fresh_breakpoint_certificates():
    # the order's breakpoint certificates are cached across calls, and a
    # test that stubs is_sos or sdp.solve would otherwise read the ones an
    # earlier test left there, or leave its stub's answers to the next
    # test; each test starts with none cached, so the solves it counts are
    # its own
    sos._breakpoint_gram.cache_clear()
