"""The repository benchmark: closed-loop batch jobs over seeded inputs.

Usage (from the repository root)::

    python3 repobench/run.py --workload study_bench --seed 1 --seconds 15 --trace 0

One client runs one job after another.  Each job runs in a freshly forked
process, so its peak RSS and its children's CPU time are its own; the only
other forking is the package's own worker processes.  Inputs are built
from ``--seed`` in set-up, which is repeated and reported as a median.
Jobs start until ``--seconds`` have passed; the job running then finishes.
Outputs are checked against an oracle outside every timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` additionally
runs one traced job and reports the per-layer metrics: self time per
layer from spans around the package's public entry points, the layer
counts, ``trace.unattributed_s`` and ``trace.overhead_ratio``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up repetitions per run; their median is ``setup_s``.
SETUP_REPEATS = 2
#: Job-phase ``_s`` metrics: every span name the tracer records, in report
#: order.  With ``trace.unattributed_s`` and the 15 ``analysis.<name>_s``
#: they sum to ``trace.job_s``.  ``workload.simulate_s`` and
#: ``mrt.encode_s`` are set-up phase times, outside the job.
LAYER_TIMES = (
    "mrt.decode", "stream.merge", "stream.build",
    "core.kernel", "core.cleaning", "core.grouping", "core.report",
    "dictionary.build", "dictionary.usage_stats", "dictionary.infer",
    "dataplane.traceroute", "exec.plan.run", "exec.store.put", "exec.store.get",
    "exec.distrib.fleet",
)
COUNTS = (
    "workload.messages", "mrt.records", "mrt.bytes",
    "stream.batches", "stream.elems", "stream.rows_materialised",
    "stream.zero_copy_selects", "stream.gather_selects",
    "core.elems", "core.row_touches", "core.observations", "core.events",
    "exec.plan.stream_passes", "exec.store.puts", "exec.store.hits",
    "exec.store.misses", "exec.store.bytes", "exec.distrib.datasets_built",
    "exec.distrib.cells_done", "exec.distrib.reclaims", "exec.distrib.poisoned",
)


class JobFailed(Exception):
    """A job raised, or its process died before reporting."""


def in_fresh_process(function, *args):
    """Run ``function(*args)`` in a forked child and return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_end)
        try:
            payload = ("ok", function(*args))
        except BaseException:  # noqa: BLE001 - reported to the parent
            payload = ("error", traceback.format_exc())
        try:
            with os.fdopen(write_end, "wb") as stream:
                pickle.dump(payload, stream)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as stream:
        data = stream.read()
    _, status = os.waitpid(pid, 0)
    try:
        kind, value = pickle.loads(data)
    except (pickle.UnpicklingError, EOFError, ValueError) as error:
        raise JobFailed(f"job process died (wait status {status}): {error!r}") from None
    if kind != "ok":
        raise JobFailed(value)
    return value


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measured_job(workload, inputs, workdir: Path, traced: bool) -> dict:
    """One job, timed from inputs to complete result; runs in a fresh process."""
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from repro.stream.batch import select_counters

    selects = (select_counters.zero_copy_selects, select_counters.gather_selects)
    cpu_start = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    children_start = _cpu(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    output = workload.job(inputs, workdir)
    wall = perf_counter() - start
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu_start
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children_start
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    layers = None if tracer is None else _layer_metrics(tracer, wall)
    summary = workload.summarise(output, workdir)
    summary["counts"]["stream.zero_copy_selects"] = (
        select_counters.zero_copy_selects - selects[0])
    summary["counts"]["stream.gather_selects"] = select_counters.gather_selects - selects[1]
    summary.update(
        job_s=wall, job_cpu_s=cpu, child_cpu_s=children_cpu, peak_rss_mb=peak_kb / 1024.0
    )
    if layers is not None:
        summary["layers"] = layers
    return summary


def _layer_metrics(tracer, wall: float) -> dict[str, float]:
    from repro.analysis import registry

    self_times = tracer.self_times()
    layers = {f"{name}_s": self_times.pop(name, 0.0) for name in LAYER_TIMES}
    for name in registry.names():
        layers[f"analysis.{name}_s"] = self_times.pop(f"analysis.{name}", 0.0)
    if self_times:
        raise ValueError(f"spans without a layer metric: {sorted(self_times)}")
    layers["analysis.total_s"] = tracer.inclusive("analysis.")
    layers["trace.unattributed_s"] = wall - tracer.root_time()
    layers["trace.spans"] = len(tracer.spans)
    layers.update(tracer.counts)
    return layers


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = max(1, -(-percentile * count // 100))  # nearest-rank method
        if count - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def run(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    scratch = ROOT / ".repobench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        setups, inputs = [], None
        for _ in range(SETUP_REPEATS):
            inputs = None
            gc.collect()
            start = perf_counter()
            inputs = workload.setup(args.seed)
            setups.append(perf_counter() - start)
        print(f"{workload.name}: seed {args.seed}, set-up x{len(setups)}: "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
        gc.collect()

        summaries, errors = [], []
        loop_start = perf_counter()
        while not summaries and not errors or perf_counter() - loop_start < args.seconds:
            jobdir = workdir / f"job{len(summaries) + len(errors)}"
            jobdir.mkdir()
            try:
                summaries.append(in_fresh_process(measured_job, workload, inputs, jobdir, False))
            except JobFailed as failure:
                errors.append(str(failure))
                print(f"job failed:\n{failure}")
            finally:
                shutil.rmtree(jobdir, ignore_errors=True)

        traced = None
        if args.trace:
            jobdir = workdir / "traced"
            jobdir.mkdir()
            try:
                traced = in_fresh_process(measured_job, workload, inputs, jobdir, True)
            except JobFailed as failure:
                errors.append(str(failure))
                print(f"traced job failed:\n{failure}")
            finally:
                shutil.rmtree(jobdir, ignore_errors=True)

        expected = in_fresh_process(workload.oracle, inputs)
        checked = summaries + ([traced] if traced is not None else [])
        failed = len(errors)
        digests = {summary["digest"] for summary in checked}
        for summary in checked:
            problems = workload.check(summary, expected)
            if len(digests) > 1:
                problems.append(f"output digests differ between jobs: {sorted(digests)}")
            if problems:
                failed += 1
                print("check failed: " + "; ".join(problems))
        attempted = len(checked) + len(errors)
        return report(args, inputs, setups, summaries, traced, attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, inputs, setups, summaries, traced, attempted, failed) -> dict:
    metrics: dict[str, dict] = {}
    if not summaries:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": metrics}
    jobs = [summary["job_s"] for summary in summaries]
    job_s = statistics.median(jobs)
    tail = tail_percentile(jobs)
    print("  job_s samples: " + ", ".join(f"{value:.3f}" for value in jobs))
    print(f"  job_s median {job_s:.4f} s over n={len(jobs)}"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ", too few jobs for a tail percentile"))
    print(f"  failed_ratio {failed}/{attempted}")
    print(f"  output digest {summaries[0]['digest']}")
    for name, digest in sorted(summaries[0]["analyses"].items()):
        print(f"    {name:16s} {digest}")
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (job_s, "s"),
        "job_cpu_s": (statistics.median(s["job_cpu_s"] for s in summaries), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in summaries), "MB"),
    }
    if "resume_s" in summaries[0]:
        print(f"  resume_s median {statistics.median(s['resume_s'] for s in summaries):.4f} s")
    if not args.trace:
        for name, (value, unit) in end_to_end.items():
            print(f"  {name:12s} {value:12.4f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    elif traced is not None:
        metrics = layer_report(inputs, traced, job_s)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_report(inputs, traced: dict, untraced_job_s: float) -> dict:
    """The per-layer metrics of the traced job, with its self-time table."""
    from repro.analysis import registry

    layers = traced["layers"]
    values: dict[str, tuple[float, str]] = {}
    # Set-up phase layers (simulation, MRT encoding) are timed outside the job.
    values["workload.simulate_s"] = (inputs.layers["workload.simulate_s"], "s")
    values["mrt.encode_s"] = (inputs.layers.get("mrt.encode_s", 0.0), "s")
    for name in LAYER_TIMES:
        values[f"{name}_s"] = (layers[f"{name}_s"], "s")
    for name in registry.names():
        values[f"analysis.{name}_s"] = (layers[f"analysis.{name}_s"], "s")
    values["analysis.total_s"] = (layers["analysis.total_s"], "s")
    counts = dict(traced["counts"])
    counts.update({k: v for k, v in inputs.layers.items() if not k.endswith("_s")})
    for key in ("exec.store.hits", "exec.store.misses"):
        counts.setdefault(key, layers.get(key, 0))
    for name in COUNTS:
        values[name] = (counts.get(name, 0), "count")
    decode_s = layers["mrt.decode_s"]
    values["mrt.mb_per_s"] = (
        counts.get("mrt.bytes", 0) / 1e6 / decode_s if decode_s else 0.0, "MB/s")
    elems = counts.get("core.elems", 0)
    values["core.row_touch_ratio"] = (
        counts.get("core.row_touches", 0) / elems if elems else 0.0, "ratio")
    values["exec.plan.child_cpu_s"] = (traced["child_cpu_s"], "s")
    for key, value in sorted(counts.items()):
        if key.startswith("exec.campaign.builds."):
            values[key] = (value, "count")
    values["resume_s"] = (traced.get("resume_s", 0.0), "s")
    values["trace.job_s"] = (traced["job_s"], "s")
    values["trace.unattributed_s"] = (layers["trace.unattributed_s"], "s")
    values["trace.overhead_ratio"] = (traced["job_s"] / untraced_job_s - 1.0, "ratio")

    print(f"  traced job {traced['job_s']:.4f} s, {layers['trace.spans']} spans; "
          "self time per layer:")
    job_layers = [f"{name}_s" for name in LAYER_TIMES] + [
        f"analysis.{name}_s" for name in registry.names()]
    for key in job_layers:
        if layers[key]:
            print(f"    {key:34s} {layers[key]:10.4f} s {layers[key] / traced['job_s']:7.1%}")
    print(f"    {'trace.unattributed_s':34s} {layers['trace.unattributed_s']:10.4f} s "
          f"{layers['trace.unattributed_s'] / traced['job_s']:7.1%}")
    print(f"  trace.overhead_ratio {values['trace.overhead_ratio'][0]:.4f} "
          f"(traced {traced['job_s']:.4f} s / untraced {untraced_job_s:.4f} s - 1)")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small-preset inputs (for the benchmark's own smoke test)")
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the package source is missing under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
