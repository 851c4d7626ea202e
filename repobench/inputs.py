"""Seeded, fixed-size inputs for the benchmark workloads.

Every input is built through the package's public API: ``ScenarioConfig``
presets, ``ScenarioSimulator.generate``, ``CollectorSource.update_stream``
with ``StreamElem.to_message``, the collector RIBs the dataset exposes, and
``repro.mrt.writer``.  No private source attribute is read, so the source
internals can change without breaking the benchmark.

Why the inputs have a fixed size: the simulator's message volume is
heavy-tailed in the seed.  Over six seeds a two-week bench window ranged
from 24k to 67k update messages, and the small preset from 7k to 71k; with
the topology fixed, the seed-drawn collector sessions still moved the RIB
snapshots by 15%.  An input sized by the seed would make the run-to-run
spread a property of the seed rather than of the code.  So the measurement
infrastructure -- topology, collector platforms, documentation corpus,
operator behaviour -- stays at the preset's default seed, as the paper's
collectors stayed fixed while the attacks varied; ``--seed`` draws the
attack timeline, and the dataset is cut to its first ``updates`` update
messages in merged time order.  The RIB snapshots are kept whole.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from datetime import date, timedelta

from repro.mrt.reader import read_records
from repro.mrt.writer import write_rib, write_updates
from repro.stream.source import CollectorSource, MrtSource
from repro.workload import ScenarioConfig, ScenarioSimulator


@dataclass(frozen=True)
class InputSize:
    """The stated size of one scenario input."""

    #: ``ScenarioConfig`` preset: ``"bench"`` or ``"small"``.
    preset: str
    #: Last simulated day (exclusive); ``None`` keeps the preset's window.
    end_date: str | None
    #: Update messages kept, in merged time order, across the kept collectors.
    updates: int
    #: Collector projects kept; ``None`` keeps every project.
    projects: frozenset[str] | None = None


def scenario_config(size: InputSize, seed: int) -> ScenarioConfig:
    """The preset at its default seed, with the attack timeline drawn from ``seed``."""
    config = ScenarioConfig.for_scale(size.preset)
    # The same derivation ScenarioConfig.with_seed applies to the attacks.
    config = replace(config, attacks=replace(config.attacks, seed=seed ^ 0xA77AC))
    if size.end_date is not None:
        config = replace(config, end_date=size.end_date)
    return config


class ShortWindow(ValueError):
    """The scenario window holds fewer update messages than requested."""


def cut_updates(dataset, updates: int, projects: frozenset[str] | None = None):
    """``dataset`` with exactly its first ``updates`` update messages.

    Only collectors of ``projects`` are kept (all when ``None``).  Messages
    are merged across them by timestamp (ties broken by source order, then
    stream order, as the stream merge does); the RIB snapshots stay whole
    and the window ends just after the last kept message.
    """
    selected = [
        source for source in dataset.sources
        if projects is None or source.project in projects
    ]

    def keyed(index, source):
        for position, elem in enumerate(source.update_stream()):
            yield elem.timestamp, index, position, elem

    runs = [keyed(index, source) for index, source in enumerate(selected)]
    kept: list[list] = [[] for _ in selected]
    last = dataset.start
    count = 0
    for timestamp, index, _, elem in heapq.merge(*runs):
        if count == updates:
            break
        kept[index].append(elem.to_message())
        last = timestamp
        count += 1
    if count < updates:
        raise ShortWindow(
            f"scenario has {count} update messages, fewer than the {updates} "
            "the input size states; lengthen its window"
        )
    sources = [
        CollectorSource(
            source.project,
            source.collector,
            rib=dataset.ribs.get(source.collector),
            updates=messages,
        )
        for source, messages in zip(selected, kept)
    ]
    return replace(dataset, sources=sources, end=last + 1.0, message_count=updates)


def build_dataset(size: InputSize, seed: int) -> tuple[object, float]:
    """The fixed-size dataset for ``seed`` and its simulation wall time.

    A seed whose window holds too few update messages is simulated again
    over a window twice as long, so every seed yields the stated size.
    """
    config = scenario_config(size, seed)
    simulate_s = 0.0
    while True:
        start = time.perf_counter()
        dataset = ScenarioSimulator(config).generate()
        simulate_s += time.perf_counter() - start
        try:
            return cut_updates(dataset, size.updates, size.projects), simulate_s
        except ShortWindow:
            window = timedelta(seconds=config.end - config.start)
            end = date.fromisoformat(config.end_date) + window
            config = replace(config, end_date=end.isoformat())


@dataclass
class MrtArchives:
    """A dataset re-expressed as per-collector MRT archives."""

    dataset: object
    encode_s: float
    bytes: int = 0
    records: int = 0


def encode_mrt(dataset) -> MrtArchives:
    """Encode every collector as TABLE_DUMP_V2 RIB + BGP4MP update archives.

    The returned dataset streams from :class:`MrtSource`s over those bytes,
    so the pipeline decodes MRT exactly as it would the collectors' files.
    """
    start = time.perf_counter()
    sources = []
    archives_bytes = []
    for source in dataset.sources:
        rib = dataset.ribs.get(source.collector)
        rib_bytes = None if rib is None else write_rib(rib, timestamp=dataset.start)
        update_bytes = write_updates(
            elem.to_message() for elem in source.update_stream()
        )
        archives_bytes += [rib_bytes, update_bytes]
        sources.append(
            MrtSource(
                source.project,
                source.collector,
                rib_bytes=rib_bytes,
                update_bytes=update_bytes,
            )
        )
    encode_s = time.perf_counter() - start
    archives = MrtArchives(replace(dataset, sources=sources), encode_s)
    for data in archives_bytes:
        if data:
            archives.bytes += len(data)
            archives.records += sum(1 for _ in read_records(data))
    return archives
