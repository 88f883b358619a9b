import pytest

from netlearn import dynamics


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the ensemble's process pool with one that maps in this
    process; returns the list of pool sizes asked for."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", FakePool)
    return sizes
