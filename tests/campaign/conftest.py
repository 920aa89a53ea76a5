"""Shared fixtures of the campaign tests."""

import pytest

from repro.campaign import engine


@pytest.fixture
def quick_retries(monkeypatch):
    """Retry an infrastructure failure after 10 ms instead of the
    shipped 250 ms base delay."""
    monkeypatch.setattr(engine, "RETRY_BACKOFF", 0.01)
