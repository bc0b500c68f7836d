"""The three benchmark workloads, driven through the public API.

Each workload takes one of the paper's (mini-scale) datasets, draws its
query batches from the seed, chunks the data with a
``repro.distributed.partitioning`` scheme and then, per iteration, runs
``distributed_search`` and the cluster simulator the way the paper
harness does. The benchmark times the calls from outside; nothing here
changes what the program does.
"""
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.dtw import warping_window
from repro.distributed import engine, partitioning
from repro.distributed.replication import ReplicationConfig
from repro.experiments.datasets import DATASETS
from repro.experiments.harness import UNIT, chunk_predictions, fit_chunk_predictors
from repro.scheduling.schedulers import ALL_POLICIES, STATIC, WORK_STEAL, WORK_STEAL_PREDICT
from repro.scheduling.simulator import simulate_cluster, works_from_stats
from repro.synth_data import make_queries_np, series_df

from . import reference

# The query generator's default noise ladder and share of out-of-distribution
# queries. The benchmark fixes the count of each kind per batch (rather
# than drawing it per query) so that every seed sends the same mix.
SIGMAS = (0.05, 0.1, 0.25, 0.5, 1.0)
HARD_FRAC = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n_series: int
    n_chunks: int
    partitioner: str  # a function of repro.distributed.partitioning
    distance: str
    k: int
    n_train: int  # queries per iteration for fit_chunk_predictors (0: none)
    n_queries: int  # queries per iteration answered and simulated
    n_batches: int  # distinct query batches; a round answers each once
    sims: tuple  # ((n_nodes, n_chunks, policy), ...), as the paper harness
    named_sim: tuple  # the one behind sim_makespan_mu
    experiment: str
    loads: tuple
    bypasses: tuple
    warp: float = 0.05

    def record(self) -> dict:
        """Sizes, configuration and rationale, for ``run.py --describe``."""
        n, c, policy = self.named_sim
        return {
            "name": self.name,
            "dataset": f"DATASETS[{self.dataset!r}]",
            "n_series": self.n_series,
            "length": DATASETS[self.dataset].length,
            "n_chunks": self.n_chunks,
            "partitioner": self.partitioner,
            "distance": self.distance,
            "warp": self.warp if self.distance == "dtw" else None,
            "k": self.k,
            "train_queries": self.n_train,
            "run_queries": self.n_queries,
            "batches_per_round": self.n_batches,
            "query_mix": {"hard_share": HARD_FRAC, "noise_sigmas": list(SIGMAS)},
            "seed": f"--seed draws the query batches; the data is DATASETS[{self.dataset!r}] as generated with its own seed",
            "simulations": len(self.sims),
            "sim_makespan_mu": f"{policy} on {n} nodes, {ReplicationConfig(n, c).name}",
            "as_in": self.experiment,
            "loads": list(self.loads),
            "bypasses": list(self.bypasses),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ed-split",
            dataset="seismic",
            n_series=24_000,
            n_chunks=4,
            partitioner="equally_split",
            distance="ed",
            k=1,
            n_train=0,
            n_queries=200,
            n_batches=4,
            sims=((4, 4, STATIC),),
            named_sim=(4, 4, STATIC),
            experiment="E9 (EQUALLY-SPLIT, STATIC)",
            loads=("engine pass 1", "seed reduce", "engine pass 2", "core.search", "core.index", "scheduling.simulator"),
            bypasses=("core.dtw", "scheduling.predictor", "k>1 merge"),
        ),
        Workload(
            name="dtw-density",
            dataset="random",
            n_series=2_000,
            n_chunks=4,
            partitioner="density_aware",
            distance="dtw",
            k=1,
            n_train=0,
            n_queries=16,
            n_batches=3,
            sims=((4, 4, WORK_STEAL),),
            named_sim=(4, 4, WORK_STEAL),
            experiment="E11 (PARTIAL-4, WORK-STEAL)",
            loads=("distributed.partitioning", "engine pass 1", "engine pass 2", "core.dtw", "scheduling.simulator"),
            bypasses=("core.search ED kernel", "scheduling.predictor", "k>1 merge"),
        ),
        Workload(
            name="knn-full",
            dataset="seismic",
            n_series=60_000,
            n_chunks=1,
            partitioner="equally_split",
            distance="ed",
            k=10,
            n_train=20,
            n_queries=40,
            n_batches=3,
            sims=tuple((n, 1, p) for n in (1, 2, 4, 8, 16) for p in ALL_POLICIES),
            named_sim=(8, 1, WORK_STEAL_PREDICT),
            experiment="E2 (FULL, all policies x 1-16 nodes)",
            loads=("engine pass 1 x2", "seed reduce (k=10)", "engine pass 2 x2", "merge (k=10)", "core.index", "scheduling.predictor", "scheduling.simulator"),
            bypasses=("chunk parallelism", "core.dtw"),
        ),
    )
}


def _queries(data: np.ndarray, n: int, seed: int) -> np.ndarray:
    """``n`` queries: ``round(HARD_FRAC * n)`` hard ones and the rest spread
    evenly over the noise ladder, in a seeded random order."""
    n_hard = int(round(HARD_FRAC * n))
    per_sigma = np.full(len(SIGMAS), (n - n_hard) // len(SIGMAS))
    per_sigma[: (n - n_hard) % len(SIGMAS)] += 1
    parts = [make_queries_np(data, n_hard, hard_frac=1.0, seed=seed)[0]]
    for i, (sigma, m) in enumerate(zip(SIGMAS, per_sigma)):
        parts.append(make_queries_np(data, int(m), hard_frac=0.0, noise_sigmas=(sigma,), seed=seed + 1 + i)[0])
    return np.vstack(parts)[np.random.default_rng(seed).permutation(n)]


@dataclass
class Batch:
    """One iteration's queries, by the name the iteration answers them
    under ("train", "run"), and their reference answers."""

    queries: dict
    ref: dict = field(default_factory=dict)  # name -> (dists, ids)

    @property
    def n_queries(self) -> int:
        return sum(len(q) for q in self.queries.values())


@dataclass
class Inputs:
    """What a workload generates, before Spark sees it."""

    data: np.ndarray
    batches: list
    scan_s: float = 0.0  # brute-force scan of one batch (median)


def make_inputs(wl: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """The workload's dataset, as ``DATASETS`` generates it, and
    ``n_batches`` query batches drawn from ``seed`` (``scale`` < 1 shrinks
    both, for tests)."""
    spec = DATASETS[wl.dataset]
    n = max(64, int(wl.n_series * scale))
    data = spec.generate((n + 0.5) / spec.base_n)[:n]
    seeds = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(2 * wl.n_batches))
    sizes = {"train": wl.n_train, "run": wl.n_queries}
    batches = [
        Batch({name: _queries(data, max(4, int(m * scale)), next(seeds)) for name, m in sizes.items() if m})
        for _ in range(wl.n_batches)
    ]
    return Inputs(data=data, batches=batches)


def compute_reference(wl: Workload, inp: Inputs) -> None:
    """Brute-force answers for every batch, and the median time to scan one."""
    times = []
    for batch in inp.batches:
        t0 = time.perf_counter()
        for name, q in batch.queries.items():
            if wl.distance == "dtw":
                r = warping_window(inp.data.shape[1], wl.warp)
                batch.ref[name] = reference.dtw_knn(inp.data, q, r, wl.k)
            else:
                batch.ref[name] = reference.ed_knn(inp.data, q, wl.k)
        times.append(time.perf_counter() - t0)
    inp.scan_s = float(np.median(times))


def chunk(spark, wl: Workload, inp: Inputs):
    """``series_df`` plus the workload's partitioner (lazy DataFrame)."""
    df = series_df(spark, inp.data)
    return getattr(partitioning, wl.partitioner)(df, wl.n_chunks)


def chunk_sizes(cdf) -> np.ndarray:
    """Materialise the chunking: series per chunk."""
    counts = cdf.groupBy("chunk_id").count().toPandas()
    return counts.sort_values("chunk_id")["count"].to_numpy()


@dataclass
class IterationResult:
    searches: dict  # batch name -> DistResult
    sim_makespan_mu: float
    n_steals: int
    sim_imbalance: float
    predictor_r2: float | None


def iterate(wl: Workload, cdf, batch: Batch, tracer) -> IterationResult:
    """One timed iteration: the workload's searches, predictor and simulations."""
    searches = {}
    predictors = None
    if "train" in batch.queries:
        with tracer.span("distributed_search"):
            searches["train"] = engine.distributed_search(
                cdf, batch.queries["train"], distance=wl.distance, warp=wl.warp, k=wl.k
            )
        with tracer.span("predictor.fit"):
            predictors = fit_chunk_predictors(searches["train"])
    with tracer.span("distributed_search"):
        run = searches["run"] = engine.distributed_search(
            cdf, batch.queries["run"], distance=wl.distance, warp=wl.warp, k=wl.k
        )
    preds = None
    if predictors is not None:
        with tracer.span("predictor.predict"):
            preds = chunk_predictions(run, predictors)
    with tracer.span("simulator"):
        works = works_from_stats(run.chunk_stats)
        sims = {
            (n, c, p): simulate_cluster(works, ReplicationConfig(n, c), p, predictions_by_chunk=preds)
            for n, c, p in wl.sims
        }
    named = sims[wl.named_sim]
    busy = [b for g in named.group_results.values() for b in g.node_busy]
    return IterationResult(
        searches=searches,
        sim_makespan_mu=named.makespan / UNIT,
        n_steals=named.n_steals,
        sim_imbalance=float(max(busy) / np.mean(busy)),
        predictor_r2=(float(np.mean([p.r2 for p in predictors.values()])) if predictors else None),
    )


def check(batch: Batch, res: IterationResult) -> int:
    """Queries of the batch the iteration answered wrongly."""
    return sum(
        reference.count_wrong(dist.answers, *batch.ref[name]) for name, dist in res.searches.items()
    )
