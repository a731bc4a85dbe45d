"""Fixtures shared by the test modules."""

import pytest

from gestemo import snn


@pytest.fixture
def two_cpus(monkeypatch):
    """A second CPU, whatever the machine, so the SNN's worker thread and the
    LSTM's helper process run."""
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
