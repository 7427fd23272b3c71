import pickle

import pytest
from hypothesis import given, strategies as st

from dualdep import _parallel, exceptions
from dualdep.cli import main
from dualdep.mle import StartDiagnostics
from dualdep.model import ModelParams


def tagged(block, tag):
    """A ``run_blocks`` worker: each item of ``block`` with the block's size
    and ``tag``."""
    return [(item, len(block), tag) for item in block]


@given(count=st.integers(0, 2000), width=st.integers(1, 400), threads=st.integers(1, 64),
       cpus=st.integers(1, 64))
def test_blocks_cover_every_index_once_in_order_within_the_budget(count, width, threads, cpus):
    import concurrent.futures

    items = [f"item {k}" for k in reversed(range(count))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_parallel, "cpus", lambda: cpus)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        parts = _parallel.blocks(count, width, threads)
        results = _parallel.run_blocks(tagged, items, width, threads, "shared")
    assert [i for part in parts for i in part] == list(range(count))
    # one result per item, in item order, from the blocks of uneven sizes
    assert results == [(items[i], len(part), "shared") for part in parts for i in part]
    budget = max(1, _parallel.BLOCK_COLUMNS // width)
    assert all(1 <= len(part) <= budget for part in parts)
    # items that fit in one block stay in one; more are spread over the workers
    assert len(parts) == 1 if 0 < count <= budget else len(parts) >= min(threads, cpus, count)
    if parts:
        assert max(map(len, parts)) - min(map(len, parts)) <= 1  # near-equal


def test_seeds_above_2_63_keep_every_bit():
    # the key used to pass through float64 above 2**63, where neighbouring
    # seeds round to the same key
    for key in (0, 1, (3 << 32) | 7):
        high = [_parallel.stream(seed, key).random(4).tolist()
                for seed in (2**63 + 5, 2**63 + 6)]
        assert high[0] != high[1]
        assert _parallel.stream(2**64 - 1, key).random(4).tolist() != \
            _parallel.stream(0, key).random(4).tolist()  # and warns not (warnings are errors)


def test_a_stream_is_keyed_modulo_2_64():
    for seed, key in ((-1, 3), (2**64 + 5, -2), (3 * 2**64 - 1, 2**64 + 9)):
        wrapped = _parallel.stream(seed % 2**64, key % 2**64).random(3).tolist()
        assert _parallel.stream(seed, key).random(3).tolist() == wrapped
        assert _parallel.Streams(seed).at(key).random(3).tolist() == wrapped


def test_blocks_are_cut_by_solver_width():
    # an item of width 1 is a one-start fit, of width 12 a fit from the
    # default starting grid: a block holds BLOCK_COLUMNS // width items
    assert _parallel.blocks(0, 1) == []
    assert _parallel.blocks(100, 1) == [range(100)]
    assert _parallel.blocks(500, 1) == [range(250), range(250, 500)]
    assert _parallel.blocks(500, 12) == [range(k, k + 25) for k in range(0, 500, 25)]
    assert _parallel.blocks(3, 1000) == [range(0, 1), range(1, 2), range(2, 3)]


@pytest.mark.parametrize("threads", [0, -2])
def test_a_thread_count_below_one_is_refused(q1, threads):
    from dualdep import inference, simulate
    from dualdep.exceptions import ValidationError
    from dualdep.mle import fit

    parent = fit(q1)
    config = simulate.study1_config(replicates=2)
    calls = [
        lambda: _parallel.check_threads(threads),
        lambda: inference.bootstrap(q1, parent, n_replicates=2, threads=threads),
        lambda: inference.uncertainty_report(q1, parent, ("hessian",), threads=threads),
        lambda: simulate.run_study1(config, threads=threads),
        lambda: simulate.run_coverage(config, threads=threads),
        lambda: simulate.run_study2(1, grid=(0.15,), replicates=2, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=f"^threads must be >= 1, got {threads}$"):
            call()
    _parallel.check_threads(1)


def test_only_items_that_fill_several_blocks_are_spread_over_workers(monkeypatch):
    monkeypatch.setattr(_parallel, "cpus", lambda: 8)
    assert _parallel.blocks(5, 1, threads=8) == [range(5)]  # a small bootstrap: in process
    assert _parallel.blocks(16, 12, threads=2) == [range(16)]  # 16 grid fits: one block
    assert len(_parallel.blocks(301, 1, threads=8)) == 8
    assert len(_parallel.blocks(26, 12, threads=8)) == 8


class RecordingPool:
    """A ``ProcessPoolExecutor`` stand-in that records ``max_workers`` and
    runs the tasks in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, worker, tasks):
        return map(worker, tasks)


@pytest.fixture
def two_cpus(monkeypatch):
    import concurrent.futures

    RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(_parallel, "cpus", lambda: 2)
    return RecordingPool.sizes


def test_pool_never_exceeds_the_cpus(two_cpus):
    assert _parallel.run_indexed(abs, [-k for k in range(700)], threads=64) == list(range(700))
    assert two_cpus == [2]
    assert len(_parallel.blocks(400, 1, threads=64)) == 2


def test_pool_runs_serially_on_one_thread_or_one_task(two_cpus):
    assert _parallel.run_indexed(abs, [-1, -2], threads=1) == [1, 2]
    assert _parallel.run_indexed(abs, [-1], threads=64) == [1]
    assert two_cpus == []


def test_study2_on_64_threads_starts_no_more_workers_than_cpus(tmp_path, two_cpus):
    # the default 35-point grid: 70 fits in three blocks
    assert main(["simulate", "study2", "--scenario", "1", "--replicates", "2",
                 "--threads", "64", "--output", str(tmp_path / "s")]) == 0
    assert two_cpus == [2]


def test_every_package_error_crosses_a_process_boundary_whole():
    # a pool worker returns its tables' package errors: each comes back with
    # its type, text and fields, EvaluationError rebuilt from its term and
    # detail rather than from its message
    start = StartDiagnostics(ModelParams(50000.0, 20000.0, 0.05, 0.15, 0.05, 0.15), -1.5, 0.1,
                             False, 3, "iteration cap reached")
    samples = {
        exceptions.EvaluationError: [exceptions.EvaluationError("p11A", "probability 0"),
                                     exceptions.EvaluationError("N_B - x0B")],
        exceptions.NonConvergenceError: [
            exceptions.NonConvergenceError("no starting point reached", [start])],
    }
    classes = [value for value in vars(exceptions).values()
               if isinstance(value, type) and issubclass(value, exceptions.DualdepError)]
    assert len(classes) == 8
    for cls in classes:
        for error in samples.get(cls, [cls("a message")]):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is cls
            assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))
