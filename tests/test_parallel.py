import ctypes
import logging
import multiprocessing
import os
import pickle

import numpy as np
import pytest

import ecoprod.spectral  # noqa: F401 - loads scipy's OpenBLAS beside numpy's
from ecoprod import cli, dea, errors, parallel
from ecoprod.errors import ClusteringError, PipelineStageError, TrainingDivergenceError

from test_causal import use_cpus


def thread_counts():
    """Each loaded OpenBLAS's thread count, as its own public getter reports it."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None) or lib.scipy_openblas_get_num_threads
        getter.argtypes, getter.restype = [], ctypes.c_int
        counts.append(getter())
    return counts


@pytest.fixture
def two_parent_threads():
    """Run the test with every OpenBLAS of this process at 2 threads, so that
    a pin to 1 which is not undone shows; the original counts come back after."""
    counts = parallel.openblas_thread_counts()
    original = [count.value for _, count in counts]
    for _, count in counts:
        count.value = 2
    assert thread_counts() == [2, 2]
    yield
    for (_, count), value in zip(counts, original):
        count.value = value


def test_both_openblas_copies_are_found():
    names = [name for name, _ in parallel.openblas_thread_counts()]
    assert len(names) == 2 and all("openblas" in name for name in names)


def test_results_come_back_in_index_order_from_forked_workers(monkeypatch):
    use_cpus(monkeypatch, 2)
    results = parallel.fork_map(lambda i: (i * i, os.getpid()), 7)
    assert [square for square, _ in results] == [i * i for i in range(7)]
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [ClusteringError("could not populate all 3 clusters"),
                                   TypeError("not a data-driven failure"),
                                   TrainingDivergenceError("loss became nan", 7)])
def test_a_task_error_comes_back_as_itself_and_no_worker_outlives_it(monkeypatch, error):
    use_cpus(monkeypatch, 2)

    def task(i):
        if i == 3:
            raise error
        return i

    with pytest.raises(type(error)) as raised:
        parallel.fork_map(task, 6)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert vars(raised.value) == vars(error)
    assert multiprocessing.active_children() == []


def test_every_library_reports_one_thread_inside_a_worker(monkeypatch, two_parent_threads):
    use_cpus(monkeypatch, 2)
    inside = parallel.fork_map(lambda i: (os.getpid(), thread_counts()), 2)
    assert os.getpid() not in {pid for pid, _ in inside}
    assert [counts for _, counts in inside] == [[1, 1], [1, 1]]
    assert thread_counts() == [2, 2]


def test_one_worker_runs_in_process_pinned_and_restores_the_count(monkeypatch, two_parent_threads):
    use_cpus(monkeypatch, 1)
    inside = parallel.fork_map(lambda i: (os.getpid(), thread_counts()), 3)
    assert inside == [(os.getpid(), [1, 1])] * 3
    assert thread_counts() == [2, 2]

    def fails(i):
        raise ClusteringError("k=9 outside [1, 4]")

    with pytest.raises(ClusteringError):
        parallel.fork_map(fails, 3)
    assert thread_counts() == [2, 2]


def test_no_tasks_give_an_empty_list_without_a_pool(monkeypatch):
    use_cpus(monkeypatch, 2)
    assert parallel.fork_map(lambda i: i, 0) == []
    assert ecoprod.spectral.wcss_curve(np.zeros((4, 2)), 0, seed=0).shape == (0,)
    assert multiprocessing.active_children() == []


def test_a_call_inside_a_task_runs_in_that_task_process(monkeypatch):
    use_cpus(monkeypatch, 2)
    outer = parallel.fork_map(lambda i: (os.getpid(), parallel.fork_map(lambda j: os.getpid(), 3)), 2)
    for pid, inner in outer:
        assert pid != os.getpid() and inner == [pid] * 3
    assert multiprocessing.active_children() == []


def test_without_openblas_the_tasks_run_in_process(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(parallel, "openblas_thread_counts", lambda: [])
    assert parallel.fork_map(lambda i: os.getpid(), 3) == [os.getpid()] * 3


def test_a_command_runs_on_one_thread_and_restores_the_counts_on_return(tmp_path, monkeypatch, two_parent_threads):
    (tmp_path / "provinces.csv").write_text("id,name,in1,in2,gdp_output\n1,A,2,3,10\n2,B,4,1,8\n3,C,4,4,6\n4,D,6,5,7\n")
    args = ["dea", "--provinces", str(tmp_path / "provinces.csv"), "--out", str(tmp_path / "out")]
    seen = []
    original = dea.dea_scores

    def recording(*a, **kw):
        seen.append(thread_counts())
        return original(*a, **kw)

    monkeypatch.setattr(dea, "dea_scores", recording)
    assert cli.main(args) == 0
    assert seen == [[1, 1], [1, 1]]
    assert thread_counts() == [2, 2]

    def fails(*a, **kw):
        seen.append(thread_counts())
        raise ClusteringError("a stage failure")

    monkeypatch.setattr(dea, "dea_scores", fails)
    assert cli.main(args) == 1
    assert seen[-1] == [1, 1]
    assert thread_counts() == [2, 2]


def test_each_call_logs_its_tasks_workers_and_pins(monkeypatch, caplog, two_parent_threads):
    names = [name for name, _ in parallel.openblas_thread_counts()]
    with caplog.at_level(logging.DEBUG, logger="ecoprod.parallel"):
        use_cpus(monkeypatch, 2)
        parallel.fork_map(lambda i: i, 5)
        use_cpus(monkeypatch, 1)
        parallel.fork_map(lambda i: i, 5)
    lines = [r.getMessage() for r in caplog.records if r.name == "ecoprod.parallel"]
    assert len(lines) == 2
    assert lines[0].startswith("5 tasks on 2 worker(s); OpenBLAS pinned to 1 thread: ")
    assert lines[1].startswith("5 tasks on 1 worker(s) in-process; OpenBLAS pinned to 1 thread: ")
    assert all(f"{name} (was 2)" in line for line in lines for name in names)


def error_classes():
    return [value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.EcoprodError)]


def test_every_package_error_survives_a_pickle_round_trip():
    special = {TrainingDivergenceError: ("loss became nan", 7), PipelineStageError: ("cluster", "k too large")}
    classes = error_classes()
    assert errors.EcoprodError in classes and set(special) <= set(classes)
    for cls in classes:
        original = cls(*special.get(cls, (f"{cls.__name__} message",)))
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is cls
        assert str(copy) == str(original) and copy.args == original.args
        assert vars(copy) == vars(original)
    assert pickle.loads(pickle.dumps(TrainingDivergenceError("loss became nan", 7))).epoch == 7
    copy = pickle.loads(pickle.dumps(PipelineStageError("cluster", "k too large")))
    assert copy.stage == "cluster" and str(copy) == "stage 'cluster' failed: k too large"
