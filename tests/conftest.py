import concurrent.futures
import pickle

import pytest

from netlearn import dynamics


class PoolLog(list):
    """The pool sizes asked for, and ``task_bytes``: each task's pickled
    size."""

    def __init__(self):
        super().__init__()
        self.task_bytes = []


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the ensemble's process pool with one that maps in this
    process; returns a PoolLog.  Like a spawned pool, it runs the
    initializer once, on a pickled copy of its arguments, and pickles each
    task."""
    log = PoolLog()
    monkeypatch.setattr(dynamics, "_worker_args", None)

    class FakePool:
        def __init__(self, max_workers, mp_context=None, initializer=None,
                     initargs=()):
            log.append(max_workers)
            if initializer is not None:
                initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            tasks = [pickle.dumps((fn, item)) for item in items]
            log.task_bytes.extend(map(len, tasks))
            return (f(item) for f, item in map(pickle.loads, tasks))

    # run_ensemble imports the pool class when it needs one, so it reads
    # this attribute at call time
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return log
