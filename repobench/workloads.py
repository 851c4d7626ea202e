"""The benchmark's workloads: seeded inputs, the timed job, and its checks.

Each workload is one batch job a user of the package runs end to end.  It
builds its inputs in ``setup`` (timed as ``setup_s``), runs ``job`` (timed
as ``job_s``), and afterwards, outside the timed region, ``summarise``
turns the job's result into digests and counts and ``check`` compares them
with an oracle computed independently over the same inputs.

Every plan passes ``batch_size=512`` explicitly: the CLI default is the
per-elem path, which the benchmark must not depend on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.analysis.pipeline import StudyPipeline
from repro.core.grouping import DEFAULT_GROUPING_TIMEOUT, GroupingAccumulator
from repro.core.inference import BlackholingInferenceEngine
from repro.dictionary.builder import DictionaryBuilder
from repro.exec.campaign import (
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.exec.distrib import observations_digest
from repro.exec.plan import ExecutionPlan, observation_sort_key
from repro.exec.store import DiskStore

from inputs import InputSize, build_dataset, encode_mrt, scenario_config

BATCH_SIZE = 512
#: The collector projects that publish MRT archives; the CDN feed does not.
PUBLIC_ARCHIVES = frozenset({"ris", "routeviews", "pch"})
#: Stages whose products are the same for every cell of a grid; a warm
#: resume must load every one of them from the store.
GRID_INVARIANT_STAGES = (
    "dictionary",
    "usage_stats",
    "inferred_dictionary",
    "effective_dictionary",
)
#: ``build_counts`` keys reported as ``exec.campaign.builds.<stage>``.
BUILD_STAGES = (
    "dataset",
    "dictionary",
    "usage_stats",
    "inferred_dictionary",
    "effective_dictionary",
    "inference",
    "grouping",
    "report",
)


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _observations_digest(observations) -> str:
    return observations_digest(sorted(observations, key=observation_sort_key))


def _engine_counts(stats) -> dict[str, int]:
    return {
        "core.elems": stats.elems_processed,
        "core.row_touches": stats.row_touches,
        "stream.batches": stats.batches_processed,
        "stream.elems": stats.elems_processed,
        "stream.rows_materialised": stats.rows_materialised,
    }


def per_elem_oracle(dataset) -> dict[str, object]:
    """Observations and event count of the per-elem engine over ``dataset``.

    The reference path: the documented dictionary built straight from the
    corpus, every merged elem dispatched through ``process`` one at a time
    (MRT sources decode through ``MrtReader.messages``, not the column
    decoder), and a grouping accumulator fed as observations close.
    """
    accumulator = GroupingAccumulator(timeout=DEFAULT_GROUPING_TIMEOUT)
    engine = BlackholingInferenceEngine(
        DictionaryBuilder(dataset.corpus).build(),
        peeringdb=dataset.topology.peeringdb,
        on_completed=accumulator.add,
    )
    for elem in dataset.bgp_stream().elems():
        engine.process(elem)
    engine.finalise(dataset.end)
    return {
        "observations": _observations_digest(engine.observations()),
        "events": len(accumulator.events()),
    }


@dataclass
class Inputs:
    """What one workload's setup produced."""

    value: object
    #: Setup-phase layer times and input sizes (``workload.*``, ``mrt.*``).
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    """One named batch job; subclasses fill in the four phases."""

    name = ""
    #: Why the workload was chosen, and which modules it loads or bypasses.
    why = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def setup(self, seed: int) -> Inputs:
        raise NotImplementedError

    def job(self, inputs: Inputs, workdir: Path) -> object:
        raise NotImplementedError

    def summarise(self, output: object, workdir: Path) -> dict:
        """Digests, counts and self-check problems of one job's output."""
        raise NotImplementedError

    def oracle(self, inputs: Inputs) -> dict:
        """Summary values the job must reproduce, computed without the job."""
        return {}

    def check(self, summary: dict, expected: dict) -> list[str]:
        """Problems found comparing a job summary with the oracle."""
        problems = list(summary.get("problems", ()))
        for key, value in expected.items():
            if summary.get(key) != value:
                problems.append(f"{key}: job {summary.get(key)!r} != oracle {value!r}")
        return problems


class StudyBench(Workload):
    name = "study_bench"
    why = (
        "bench study plus all 15 analyses, in memory: kernel, row handling, "
        "grouping and analyses work; loads stream, core, dictionary, "
        "analysis, dataplane; bypasses mrt, store, fleet"
    )

    def size(self) -> InputSize:
        if self.smoke:
            return InputSize("small", None, 4000)
        return InputSize("bench", "2016-09-15", 22000)

    def setup(self, seed: int) -> Inputs:
        dataset, simulate_s = build_dataset(self.size(), seed)
        return Inputs(
            dataset,
            {"workload.simulate_s": simulate_s, "workload.messages": dataset.message_count},
        )

    def job(self, inputs: Inputs, workdir: Path) -> object:
        result = StudyPipeline(inputs.value, batch_size=BATCH_SIZE).run()
        return result, result.analyses()

    def summarise(self, output, workdir: Path) -> dict:
        result, analyses = output
        context = result.context
        counts = _engine_counts(context.get("engine_stats"))
        counts.update(
            {
                "core.observations": len(result.observations),
                "core.events": len(result.events),
                "exec.plan.stream_passes": context.stream_passes,
            }
        )
        for stage in BUILD_STAGES:
            counts[f"exec.campaign.builds.{stage}"] = context.build_counts[stage]
        summary = {
            "observations": _observations_digest(result.observations),
            "events": len(result.events),
            "counts": counts,
            "analyses": {name: _digest(value.to_dict()) for name, value in analyses.items()},
        }
        summary["digest"] = _digest(
            [summary["observations"], summary["events"], summary["analyses"]]
        )
        return summary

    def oracle(self, inputs: Inputs) -> dict:
        return per_elem_oracle(inputs.value)


class MrtReplay(StudyBench):
    name = "mrt_replay"
    why = (
        "bench study replayed from per-collector MRT archives: MRT decode "
        "dominates, as on real archives; loads mrt, stream, core, dictionary; "
        "bypasses dataplane, store, fleet"
    )

    def size(self) -> InputSize:
        if self.smoke:
            return InputSize("small", None, 4000)
        return InputSize("bench", "2016-09-15", 12000, PUBLIC_ARCHIVES)

    def setup(self, seed: int) -> Inputs:
        dataset, simulate_s = build_dataset(self.size(), seed)
        archives = encode_mrt(dataset)
        return Inputs(
            archives.dataset,
            {
                "workload.simulate_s": simulate_s,
                "workload.messages": dataset.message_count,
                "mrt.encode_s": archives.encode_s,
                "mrt.records": archives.records,
                "mrt.bytes": archives.bytes,
            },
        )

    def job(self, inputs: Inputs, workdir: Path) -> object:
        result = StudyPipeline(inputs.value, batch_size=BATCH_SIZE).run()
        return result, {"table3_summary": result.analysis("table3_summary")}


class SweepResume(Workload):
    name = "sweep_resume"
    why = (
        "small seed x ablation grid: a cold 2-worker fleet fills a fresh "
        "DiskStore, a warm resume reads it; the only fork/IPC, store and "
        "campaign load; bypasses mrt, dataplane"
    )
    ablations = (BASELINE, NO_BUNDLING, INFERRED_DICTIONARY)

    def size(self) -> InputSize:
        if self.smoke:
            return InputSize("small", None, 2000)
        return InputSize("small", "2016-09-24", 6000)

    def seeds(self, seed: int) -> tuple[int, ...]:
        count = 2 if self.smoke else 4
        return tuple(seed * 16 + index for index in range(count))

    def setup(self, seed: int) -> Inputs:
        size = self.size()
        datasets = {}
        simulate_s = 0.0
        messages = 0
        for cell_seed in self.seeds(seed):
            dataset, seconds = build_dataset(size, cell_seed)
            datasets[cell_seed] = dataset
            simulate_s += seconds
            messages += dataset.message_count
        base = scenario_config(size, self.seeds(seed)[0])
        matrix = ScenarioMatrix(base, seeds=self.seeds(seed), ablations=self.ablations)
        return Inputs(
            (matrix, datasets),
            {"workload.simulate_s": simulate_s, "workload.messages": messages},
        )

    def job(self, inputs: Inputs, workdir: Path) -> object:
        matrix, datasets = inputs.value

        def factory(config):
            # Each cell resolves, by its seed, to the dataset built in set-up.
            return datasets[config.seed]

        root = workdir / "store"
        # Both halves shard each cell two ways, so their observation lists
        # come out in the same merged order and their digests compare.
        cold_campaign = StudyCampaign(
            matrix,
            plan=ExecutionPlan(workers=2, batch_size=BATCH_SIZE, backend="inline"),
            dataset_factory=factory,
        )
        cold = cold_campaign.run_distributed(workers=2, store=DiskStore(root, resume=False))
        warm_start = perf_counter()
        warm_campaign = StudyCampaign(
            matrix,
            plan=ExecutionPlan(workers=2, batch_size=BATCH_SIZE, backend="process"),
            dataset_factory=factory,
        )
        warm = warm_campaign.run(store=DiskStore(root, resume=True))
        table = warm.tabulate("table3")
        resume_s = perf_counter() - warm_start
        return cold, warm, table, resume_s

    def summarise(self, output, workdir: Path) -> dict:
        cold, warm, table, resume_s = output
        problems = []
        done = {(r["seed"], r["ablation"]): r for r in cold.done.values()}
        cells = {}
        counts = {
            "core.elems": 0, "core.row_touches": 0, "stream.batches": 0,
            "stream.elems": 0, "stream.rows_materialised": 0,
            "core.observations": 0, "core.events": 0,
        }
        for cell, result in warm.items():
            digest = observations_digest(result.observations)
            cells[cell.label] = digest
            record = done.get((cell.seed, cell.ablation.name))
            if record is None:
                problems.append(f"{cell.label}: no done record from the cold fleet")
            elif record["observations_digest"] != digest:
                problems.append(f"{cell.label}: warm observations differ from cold")
            for key, value in _engine_counts(result.context.get("engine_stats")).items():
                counts[key] += value
            counts["core.observations"] += len(result.observations)
            counts["core.events"] += len(result.events)
        if not cold.complete:
            problems.append(f"cold queue not drained cleanly: {cold.status.counts}")
        if any(code != 0 for _, code in cold.worker_exits):
            problems.append(f"fleet worker exits: {cold.worker_exits}")
        warm_counts = warm.build_counts
        for stage in GRID_INVARIANT_STAGES:
            if warm_counts[stage]:
                problems.append(f"warm resume rebuilt {stage} {warm_counts[stage]}x")
        root = workdir / "store"
        attempts = [entry.get("attempt") or 1 for entry in cold.status.cells]
        counts.update(
            {
                "exec.plan.stream_passes": warm_counts["stream_pass"],
                "exec.store.puts": len(DiskStore(root).entries()),
                "exec.store.bytes": sum(
                    path.stat().st_size for path in root.rglob("*") if path.is_file()
                ),
                "exec.distrib.datasets_built": cold.build_counts["dataset"],
                "exec.distrib.cells_done": len(cold.done),
                "exec.distrib.reclaims": sum(attempt - 1 for attempt in attempts),
                "exec.distrib.poisoned": sum(
                    entry["state"] == "poisoned" for entry in cold.status.cells
                ),
            }
        )
        for stage in BUILD_STAGES:
            counts[f"exec.campaign.builds.{stage}"] = warm_counts[stage]
        table_digest = _digest(table.to_dict())
        return {
            "problems": problems,
            "counts": counts,
            "resume_s": resume_s,
            "analyses": {"table3": table_digest},
            "digest": _digest([sorted(cells.items()), table_digest]),
        }


WORKLOADS = {cls.name: cls for cls in (StudyBench, MrtReplay, SweepResume)}

