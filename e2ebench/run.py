"""Layered end-to-end benchmark of the Odyssey distributed search operator.

From the root of a repository checkout::

    python3 e2ebench/run.py --workload ed-split --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --trace 1   # every workload
    python3 e2ebench/run.py --describe                          # workload records

One run owns a local Spark session (at most ``nproc`` task slots), draws
its query batches from ``--seed``, sets up (session, inputs,
``series_df``, the partitioner and one untimed warm-up iteration), and
then answers whole rounds of batches in a closed loop with one client for
about ``--seconds``. Every iteration's answers are checked against a
brute-force reference computed outside the timed intervals. The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count queries, and ``metrics`` holds the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``); its times are taken at a reference machine speed (see
``CALIB_REF_S``). A traced run answers each batch untraced and then
traced, derives the per-layer numbers from the traced iterations and
writes its spans to ``.e2ebench/``. See README.md beside this file.
"""
import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench"

# set-up of the data path (series_df, partitioner, chunk count) is repeated
# this many times and its median reported, so setup_s is steady
SETUP_ROUNDS = 3

# The machine may be shared: its speed was seen to drift by up to 1.5x
# within minutes, which moves every wall-clock figure alike. The reported
# times are therefore taken at a reference speed: measured seconds x
# CALIB_REF_S / the time of a fixed pure-Python loop timed next to them.
CALIB_REF_S = 0.03


def calibration_s() -> float:
    """Median of three timings of a fixed pure-Python loop (~30 ms)."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def load_spec() -> dict:
    """BENCHMARK.json: workload rationale, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="shrink inputs (tests)")
    p.add_argument("--describe", action="store_true", help="print workload records")
    args = p.parse_args(argv)
    if not args.describe and not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


# ------------------------------------------------------------ Spark session


def start_spark():
    """A local session with the test fixture's configs and the checkout's
    ``src`` on the Python workers' path; all scratch space is under WORK."""
    n_cores = min(4, len(os.sched_getaffinity(0)))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    os.environ.update(
        {
            "PYSPARK_PYTHON": sys.executable,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            "SPARK_LOCAL_DIRS": str(tmp),
            "TMPDIR": str(tmp),
            # every JVM (launcher and driver): temp files under WORK, no
            # perf-data file in the system temp directory
            "JAVA_TOOL_OPTIONS": " ".join(
                filter(None, [os.environ.get("JAVA_TOOL_OPTIONS"), f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"])
            ),
            "PYSPARK_SUBMIT_ARGS": (
                f"--master local[{n_cores}] --driver-memory 2g "
                "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
                "--conf spark.ui.showConsoleProgress=false pyspark-shell"
            ),
        }
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("e2ebench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                ppid = int((d / "stat").read_text().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d.name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def python_workers(spark) -> list[int]:
    """PySpark daemon and worker processes under the session's JVM."""
    jvm = spark.sparkContext._gateway.proc.pid
    out = []
    for pid in _descendants(jvm):
        try:
            argv = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
            if b"pyspark.daemon" in argv or b"pyspark.worker" in argv:
                out.append(pid)
        except OSError:
            continue
    return out


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a process (``VmHWM``), 0 if it has ended."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def stop_spark(spark) -> None:
    """Stop the session, end its JVM and wait until its workers are gone."""
    workers = python_workers(spark)
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()  # the gateway JVM exits at end of its stdin
    proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while any(Path(f"/proc/{p}").exists() for p in workers) and time.monotonic() < deadline:
        time.sleep(0.1)


# --------------------------------------------------------------- one workload


def _batch_seconds(times: list[tuple[int, float]]) -> float:
    """Seconds per iteration: each batch's median over the rounds, averaged
    over the batches (they hold different queries, so all of them count)."""
    per_batch: dict[int, list[float]] = {}
    for b, dt in times:
        per_batch.setdefault(b, []).append(dt)
    return statistics.fmean(statistics.median(v) for v in per_batch.values())


def run_workload(spark, wl, args, t_start: float, calib_start: float) -> tuple[dict, dict]:
    """Set up, warm up and measure one workload. Returns the result object
    and the human-readable extras (error rate, iteration counts, ...).
    ``t_start``/``calib_start``: when the workload's set-up began and the
    calibration taken then."""
    from repro.distributed import engine

    from e2ebench import tracing
    from e2ebench import workloads as W

    t = time.perf_counter()
    inp = W.make_inputs(wl, args.seed, args.scale)
    inputs_s = time.perf_counter() - t
    session_s = t - t_start
    partition_s = []
    for _ in range(SETUP_ROUNDS):
        t = time.perf_counter()
        cdf = W.chunk(spark, wl, inp)
        sizes = W.chunk_sizes(cdf)
        partition_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    W.iterate(wl, cdf, inp.batches[0], tracing.NullTracer())
    warmup_s = time.perf_counter() - t
    setup_raw_s = session_s + inputs_s + statistics.median(partition_s) + warmup_s
    setup_calib = [calib_start, calibration_s()]
    W.compute_reference(wl, inp)

    # Closed loop, one client. A round answers every batch once (a traced
    # run answers it untraced, then traced); only whole rounds run, so
    # every run measures the same query mix.
    tracer = tracing.Tracer()
    plain_s, traced_s, raw_s, layers = [], [], [], []  # (batch, seconds)
    calib = setup_calib[-1]
    sim_mu: dict[int, float] = {}
    attempted = failed = 0
    t_measure = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for b, batch in enumerate(inp.batches):
            for traced in (False, True) if args.trace else (False,):
                tracer.iteration = len(plain_s) + len(traced_s)
                tr = tracer if traced else tracing.NullTracer()
                t = time.perf_counter()
                try:
                    with tracer.patched(engine) if traced else nullcontext(), tr.span("iteration"):
                        it = W.iterate(wl, cdf, batch, tr)
                except Exception:
                    traceback.print_exc()
                    it = None
                dt = time.perf_counter() - t
                calib, before = calibration_s(), calib
                (traced_s if traced else plain_s).append((b, dt * CALIB_REF_S * 2 / (before + calib)))
                if not traced:
                    raw_s.append((b, dt))
                attempted += batch.n_queries
                if it is None:
                    failed += batch.n_queries
                    continue
                failed += W.check(batch, it)
                sim_mu[b] = it.sim_makespan_mu
                if traced:
                    layers.append(tracing.iteration_layers(tracer, tracer.iteration, it, inp.scan_s))
        now = time.perf_counter()
        if now - t_measure + (now - t_round) > args.seconds:
            break

    setup_calib.append(calib)
    setup_s = setup_raw_s * CALIB_REF_S / statistics.median(setup_calib)
    batch_s = _batch_seconds(plain_s)
    extras = {
        "batch_raw_s": _batch_seconds(raw_s),
        "setup_raw_s": setup_raw_s,
        "iterations": len(plain_s),
        "times": raw_s,
        "traced_iterations": len(traced_s),
        "error_rate": failed / attempted,
        "setup_parts": {
            "session_s": session_s,
            "inputs_s": inputs_s,
            "partition_s": statistics.median(partition_s),
            "warmup_s": warmup_s,
        },
    }
    if args.trace:
        values = {
            k: statistics.median(l[k] for l in layers) if layers else 0.0
            for k in (layers[0] if layers else {})
        }
        values.update(
            partition_s=statistics.median(partition_s),
            chunk_imbalance=float(sizes.max() / sizes.mean()),
            scan_s=inp.scan_s,
            trace_overhead_s=_batch_seconds(traced_s) - batch_s,
        )
        extras["traced_batch_s"] = _batch_seconds(traced_s)
        extras["missing"] = sorted(tracer.missing)
        WORK.mkdir(exist_ok=True)
        out = WORK / f"trace-{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps(tracer.dump()))
        extras["trace_file"] = str(out.relative_to(ROOT))
        kind = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "batch_s": batch_s,
            "sim_makespan_mu": sum(sim_mu.values()),
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "worker_rss_mb": max((vm_hwm_mb(p) for p in python_workers(spark)), default=0.0),
        }
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in load_spec()[kind]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, extras


def report(wl_name: str, args, result: dict, extras: dict) -> None:
    """Every metric by name with its unit, then the result line last."""
    print(
        f"e2ebench {wl_name} seed={args.seed} trace={args.trace}: "
        f"{extras['iterations']} untraced + {extras['traced_iterations']} traced "
        f"iterations after 1 warm-up"
    )
    print(f"  {'wall-clock batch_s':<22}{extras['batch_raw_s']:.4f} s (mean over batches of per-batch medians)")
    print(f"  {'wall-clock setup_s':<22}{extras['setup_raw_s']:.4f} s")
    print("  untraced iterations (batch, s): " + " ".join(f"{b}:{t:.3f}" for b, t in extras["times"]))
    if args.trace:
        print(f"  {'traced batch_s':<22}{extras['traced_batch_s']:.4f} s (reference speed)")
        print(f"  spans written to {extras['trace_file']}")
        for name in extras["missing"]:
            print(f"  missing trace target: {name}")
    print(
        f"  {'error_rate':<22}{extras['error_rate']:.4g} fraction "
        f"({result['failed']} of {result['attempted']} queries)"
    )
    for part, v in extras["setup_parts"].items():
        print(f"  setup: {part:<15}{v:.4f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:<22}{m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    calib_start = calibration_s()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from e2ebench.workloads import WORKLOADS

    if args.describe:
        why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
        print(json.dumps([{**w.record(), "why": why[w.name]} for w in WORKLOADS.values()], indent=2))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"e2ebench: unknown workload {args.workload!r}; one of {list(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    spark = start_spark()
    try:
        for name in names:
            result, extras = run_workload(spark, WORKLOADS[name], args, t_start, calib_start)
            report(name, args, result, extras)
            print(json.dumps(result), flush=True)
            t_start, calib_start = time.perf_counter(), calibration_s()
    finally:
        stop_spark(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
