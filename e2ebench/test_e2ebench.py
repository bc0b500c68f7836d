"""Tests of the benchmark itself: references, answer check, names, smoke runs.

    python3 -m pytest e2ebench -q
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.dtw import dtw_distance  # noqa: E402

from e2ebench import reference  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("r", [1, 3, 8])
def test_dtw_reference_agrees_with_dtw_distance(r):
    g = np.random.default_rng(r)
    queries, data = g.standard_normal((3, 24)), g.standard_normal((7, 24))
    got = reference.dtw_matrix(queries, data, r)
    want = np.array([[dtw_distance(q, x, r) for x in data] for q in queries])
    np.testing.assert_array_equal(got, want)


def test_ed_reference_is_exact_with_ties():
    g = np.random.default_rng(0)
    data = np.vstack([g.standard_normal((50, 16))] * 2)  # every series twice
    queries = data[:5] + 0.01 * g.standard_normal((5, 16))
    dists, ids = reference.ed_knn(data, queries, 4)
    for q, d, i in zip(queries, dists, ids):
        full = np.sqrt(((data - q) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(len(data)), full))[:4]
        np.testing.assert_array_equal(i, order)
        np.testing.assert_allclose(d, full[order], rtol=1e-12)
    assert ids[0][0] + 50 == ids[0][1]  # the tie goes to the smaller id first


def _answers(dists, ids):
    k = ids.shape[1]
    rows = [(q, r + 1, dists[q, r], ids[q, r]) for q in range(len(ids)) for r in range(k)]
    df = pd.DataFrame(rows, columns=["query_id", "rank", "nn_dist", "nn_id"])
    return df if k > 1 else df.drop(columns="rank")


@pytest.mark.parametrize("k", [1, 3])
def test_corrupted_answer_raises_error_rate(k):
    g = np.random.default_rng(k)
    data, queries = g.standard_normal((200, 16)), g.standard_normal((6, 16))
    ref_d, ref_i = reference.ed_knn(data, queries, k)
    good = _answers(ref_d, ref_i)
    assert reference.count_wrong(good, ref_d, ref_i) == 0

    wrong_id = good.copy()
    wrong_id.loc[0, "nn_id"] += 1
    farther = good.copy()
    farther.loc[len(good) - 1, "nn_dist"] *= 1.001
    missing = good[good["query_id"] != 2]
    for bad in (wrong_id, farther, missing):
        error_rate = reference.count_wrong(bad, ref_d, ref_i) / len(queries)
        assert error_rate > 0


def test_names_follow_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert names == list(WORKLOADS)
    assert len(set(names + metrics)) == len(names + metrics)
    for name in names + metrics:
        assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_of_every_workload(trace, kind):
    out = _run("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "0.02")
    assert out.returncode == 0, out.stderr[-3000:]
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    want = {m["name"] for m in SPEC[kind]}
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == want
    assert out.stdout.rstrip().splitlines()[-1].startswith("{")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "ed-split", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
