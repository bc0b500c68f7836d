"""Driver-side spans around the calls into each layer, and the per-layer
table derived from them.

Spans live in memory (``Tracer.spans``) and are written out once, when
the run ends. While a traced iteration runs, ``Tracer.patched`` swaps the
engine's module attributes that ``distributed_search`` looks up at call
time (the two ``chunk_search`` passes, the seed reduce and the merge)
for timing wrappers. In-worker numbers come from the per-(chunk, query)
stats frames ``chunk_search`` returns, which the wrapper keeps a copy of.
"""
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pandas as pd

from repro.experiments.harness import UNIT, fit_chunk_predictors

# engine attribute -> span name; chunk_search is named by its pass
ENGINE_TARGETS = {
    "chunk_search": None,
    "_seeds_from_approx": "engine.seed_reduce",
    "_merge_answers": "engine.merge",
}


class NullTracer:
    """Untraced iterations: spans cost one ``nullcontext``."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.frames: list[tuple[int, str, pd.DataFrame]] = []  # (iteration, pass, stats)
        self.missing: set[str] = set()
        self.iteration: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, attr: str, fn):
        if attr == "chunk_search":

            def chunk_search(*args, **kwargs):
                name = "engine.pass1" if kwargs.get("approx_only") else "engine.pass2"
                with self.span(name):
                    out = fn(*args, **kwargs)
                # distributed_search later folds pass 1 into these columns
                self.frames.append((self.iteration, name, out.copy()))
                return out

            return chunk_search
        name = ENGINE_TARGETS[attr]

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self, module):
        """Wrap ``module``'s engine targets for the duration of the block.
        A target the module no longer has is recorded as missing."""
        saved = {}
        for attr in ENGINE_TARGETS:
            if not hasattr(module, attr):
                self.missing.add(f"{module.__name__}.{attr}")
                continue
            saved[attr] = getattr(module, attr)
            setattr(module, attr, self._wrap(attr, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def span_seconds(self, iteration: int, name: str) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["iteration"] == iteration and s["name"] == name
        )

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": sorted(self.missing)}


def _per_chunk(frames: list[pd.DataFrame], col: str) -> float:
    """Sum a chunk-level column (repeated on each query row) once per chunk."""
    return sum(float(f.groupby("chunk_id")[col].first().sum()) for f in frames)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 2 or np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def iteration_layers(tracer: Tracer, iteration: int, it, scan_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (``it``: IterationResult;
    ``scan_s``: the reference scan of the same batch)."""
    sec = lambda name: tracer.span_seconds(iteration, name)  # noqa: E731
    p1 = [f for i, n, f in tracer.frames if i == iteration and n == "engine.pass1"]
    p2 = [f for i, n, f in tracer.frames if i == iteration and n == "engine.pass2"]
    pass1_s, pass2_s = sec("engine.pass1"), sec("engine.pass2")
    build_s = _per_chunk(p1 + p2, "build_elapsed")
    search_s = sum(float(f["elapsed"].sum()) for f in p2)
    worker_s = build_s + search_s + sum(float(f["elapsed"].sum()) for f in p1)
    nq = sum(f["query_id"].nunique() for f in p2)
    scanned = sum(f["query_id"].nunique() * _per_chunk([f], "n_series") for f in p2)
    rows = pd.concat(p2) if p2 else pd.DataFrame(columns=["elapsed", "total_cost"])
    per_q = lambda col: float(rows[col].sum()) / nq if nq else 0.0  # noqa: E731
    fit_s, r2 = sec("predictor.fit") + sec("predictor.predict"), it.predictor_r2
    if r2 is None:
        # the workload schedules without predictions: probe the predictor
        # layer on the run batch, after the iteration's timing has ended
        t = time.perf_counter()
        predictors = fit_chunk_predictors(it.searches["run"])
        fit_s = time.perf_counter() - t
        r2 = float(np.mean([p.r2 for p in predictors.values()]))
    return {
        "pass1_s": pass1_s,
        "seed_reduce_s": sec("engine.seed_reduce"),
        "pass2_s": pass2_s,
        "merge_s": sec("engine.merge"),
        "worker_s": worker_s,
        "chunk_parallelism": worker_s / (pass1_s + pass2_s) if pass1_s + pass2_s else 0.0,
        "spark_overhead_s": pass1_s + pass2_s - worker_s,
        "build_s": build_s,
        "n_leaves": _per_chunk(p2[:1], "n_leaves"),
        "index_mb": _per_chunk(p2[:1], "index_bytes") / 1e6,
        "search_ms_per_query": 1e3 * search_s / nq if nq else 0.0,
        "leaf_lb_per_query": per_q("leaf_lb"),
        "series_lb_per_query": per_q("series_lb"),
        "real_dist_per_query": per_q("real_series"),
        "pruning_ratio": 1.0 - float(rows["real_series"].sum()) / scanned if scanned else 0.0,
        "work_mu_per_query": (
            sum(float(f["total_cost"].sum()) for f in p1 + p2) / nq / UNIT if nq else 0.0
        ),
        "cost_model_r": _pearson(rows["elapsed"].to_numpy(float), rows["total_cost"].to_numpy(float)),
        "fit_s": fit_s,
        "predictor_r2": r2,
        "simulate_s": sec("simulator"),
        "n_steals": float(it.n_steals),
        "sim_imbalance": it.sim_imbalance,
        "scan_margin": scan_s / search_s if search_s else 0.0,
    }
