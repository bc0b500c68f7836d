"""Job entrypoints: importable, documented, and argument-parsing sanity."""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"
JOB_FILES = sorted(p.name for p in JOBS.glob("*.py") if p.name != "common.py")


def _load(name):
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name, JOBS / name)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(JOBS))


def test_one_job_per_experiment_table():
    expected = {
        "table1_datasets.py",
        "scheduling_experiment.py",
        "query_scalability.py",
        "datasize_scalability.py",
        "throughput.py",
        "index_size.py",
        "replication_tradeoff.py",
        "index_scalability.py",
        "competitors.py",
        "knn_experiment.py",
        "dtw_experiment.py",
    }
    assert expected == set(JOB_FILES)


@pytest.mark.parametrize("name", JOB_FILES)
def test_job_importable_with_main(name):
    mod = _load(name)
    assert callable(mod.main)
    assert mod.__doc__ and "spark-submit" in mod.__doc__


def test_table1_job_runs_without_spark(capsys):
    mod = _load("table1_datasets.py")
    old_argv = sys.argv
    sys.argv = ["table1_datasets.py", "--sf", "0.05"]
    try:
        mod.main()
    finally:
        sys.argv = old_argv
    out = capsys.readouterr().out
    assert "Seismic" in out and "Random" in out


#: each job's harness function, and the arguments a job passes it besides
#: ``spark`` when run with ``ARGV``: its own flags and nothing else
TABLES = {
    "table1_datasets.py": ("dataset_table", {"sf": 0.5}),
    "scheduling_experiment.py": ("scheduling_experiment", {"seed": 3}),
    "query_scalability.py": ("query_scalability", {"seed": 3}),
    "datasize_scalability.py": ("datasize_scalability", {"seed": 3}),
    "throughput.py": ("throughput", {"seed": 3}),
    "index_size.py": ("index_size_table", {}),
    "replication_tradeoff.py": ("replication_tradeoff", {"seed": 3}),
    "index_scalability.py": ("index_scalability", {"seed": 3}),
    "competitors.py": ("competitors", {"seed": 3}),
    "knn_experiment.py": ("knn_experiment", {"seed": 3}),
    "dtw_experiment.py": ("dtw_experiment", {"seed": 3}),
}
ARGV = {"table1_datasets.py": ["--sf", "0.5"], "index_size.py": []}


@pytest.mark.parametrize("name", JOB_FILES)
def test_job_runs_its_table_configuration(name, monkeypatch):
    """A job runs its harness function with the function's defaults, the
    configuration of its committed table: it passes ``spark`` and its own
    flags only (recorded here in place of Spark and the function)."""
    fn, expected = TABLES[name]
    mod = _load(name)
    calls = []
    spark = SimpleNamespace(stop=lambda: None)
    monkeypatch.setattr(mod, fn, lambda *args, **kwargs: calls.append((args, kwargs)))
    if hasattr(mod, "get_spark"):
        monkeypatch.setattr(mod, "get_spark", lambda app_name: spark)
    monkeypatch.setattr(sys, "argv", [name, *ARGV.get(name, ["--seed", "3"])])
    mod.main()
    args = () if name == "table1_datasets.py" else (spark,)
    assert calls == [(args, expected)]
