"""The four workloads: what one round does and why it is shaped that way.

A workload is prepared once per run (:meth:`Workload.prepare`: oracle,
seeded queries, calibration — the benchmark's own work, untimed) and then
set up (:meth:`Workload.setup`: a fresh front end loaded through its
public API, plus the fixed op list of one round).  A round is *state
restoring*: every ``update_image`` is undone and every ``insert_edited``
deleted inside the same round, so every round does equal work and the
harness may take each op's time from the repetitions nobody disturbed.

``--seed`` drives the corpus, the queries and the op order.  What it does
*not* drive is the amount of work in a round: draws that would change it
(which texts repeat, how well a kNN query prunes) are stratified, so two
seeds give different inputs of the same weight and the metrics of two
seeds are comparable.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from functools import partial
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import MultimediaDatabase, QueryService, RangeQuery
from repro.color.names import NAMED_COLORS
from repro.editing.sequence import EditSequence
from repro.images.raster import Image
from repro.shard import Compactor, ShardedCatalog
from repro.workloads import make_query_workload

from .corpus import Corpus, Ledger, ingest, make_corpus

#: The colors the flag generator and its recipes paint with; each falls
#: in its own bin of the default 64-bin quantizer.
PALETTE_NAMES = (
    "red", "white", "blue", "green", "yellow", "black", "orange",
    "lightblue", "gray",
)


@dataclass
class Op:
    """One call of a round."""

    kind: str
    call: Callable[[], object]
    #: What a read asked, for the correctness gate: a ``RangeQuery``, a
    #: query text, a tuple of ``RangeQuery`` (a batch) or a kNN raster.
    spec: object = None
    #: Queries answered by the call; batch latency is reported per query.
    queries: int = 1


def darkened(image: Image, factor: float) -> Image:
    """A night-time copy of ``image``: every channel scaled by ``factor``."""
    return Image((image.pixels * factor).astype(np.uint8), copy=False)


def stratified_counts(items: int, draws: int, exponent: float) -> List[int]:
    """How often each zipf rank occurs in ``draws`` draws, without luck.

    Each rank gets its expected count under ``rank ** -exponent``,
    rounded by largest remainder so the counts sum to ``draws``.  A
    sampled zipf sequence has the same law but a seed-dependent number
    of distinct items, and on a cache that number *is* the miss count.
    """
    weights = np.arange(1, items + 1, dtype=float) ** -exponent
    expected = draws * weights / weights.sum()
    counts = np.floor(expected).astype(int)
    remainder = draws - int(counts.sum())
    for rank in np.argsort(-(expected - counts), kind="stable")[:remainder]:
        counts[rank] += 1
    return [int(count) for count in counts]


class Workload:
    """Base class; subclasses fill in ``plan`` and ``setup``."""

    name = ""
    #: Why this workload exists (goes into BENCHMARK.json and the report).
    why = ""
    #: Binary images at full size and in ``--smoke`` mode.
    binary_count = 0
    smoke_binary_count = 24
    #: Metric name -> the labels whose pooled quiet latencies it is the
    #: median (``medians``) or the 95th percentile (``p95s``) of.  A
    #: metric a workload does not list does not apply to it.
    medians: Dict[str, Tuple[str, ...]] = {}
    p95s: Dict[str, Tuple[str, ...]] = {}
    #: Shards the corpus keeps each edit sequence's references within.
    colocate = 1
    #: Result-cache hit ratio a full-size run must land in, if it has one.
    hit_ratio_range: Optional[Tuple[float, float]] = None

    def __init__(self, seed: int, smoke: bool, ledger: Ledger, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.ledger = ledger
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)
        self.corpus: Corpus = Corpus((), ())
        self.oracle = MultimediaDatabase(bounds_cache=True)
        self.front: object = None
        self.ops: List[Op] = []

    # -- once per run ---------------------------------------------------
    def generate(self) -> None:
        """The seeded corpus (timed: it opens ``setup_s``)."""
        count = self.smoke_binary_count if self.smoke else self.binary_count
        self.corpus = make_corpus(self.seed, count, self.colocate)

    def prepare(self) -> None:
        """Oracle and the seeded inputs of a round (untimed)."""
        ingest(self.oracle, self.corpus, self.ledger)
        self.plan()

    def plan(self) -> None:
        """Draw the round's queries and mutations from ``self.rng``."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the front end from the corpus, and the round's ops."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop the front end's threads and delete what it wrote."""

    # -- classification and gate ----------------------------------------
    def label(self, op: Op, result: object) -> str:
        """The metric class of one executed op (default: its kind)."""
        return op.kind

    def front_range_query(self, query: RangeQuery) -> frozenset:
        """Match set of one extra gate query through the front end."""
        return self.front.range_query(query).matches  # type: ignore[attr-defined]

    def knn_front(self) -> object:
        """The object whose ``knn`` the gate compares with ``exact``."""
        return self.front

    def engines(self) -> List[object]:
        """The front end's bounds engines (for their public counters)."""
        return [self.front.engine]  # type: ignore[attr-defined]

    def extras(self) -> Dict[str, float]:
        """Traced pass only: enter layers no round enters; extra facts."""
        return {}

    def finish(self, gate_queries: Sequence[RangeQuery]) -> Tuple[List[str], Dict[str, float]]:
        """Workload-specific end of run: extra gate problems and facts."""
        return [], {}

    # -- shared helpers -------------------------------------------------
    def bin_of(self, color_name: str) -> int:
        return self.oracle.quantizer.bin_of(NAMED_COLORS[color_name])

    def churn_sequences(self, count: int) -> List[EditSequence]:
        """Stored sequences to re-insert under fresh ids (seeded pick)."""
        picks = self.rng.choice(len(self.corpus.edited), size=count, replace=False)
        return [self.corpus.edited[int(i)][1] for i in picks]


class PaperRange(Workload):
    """§5 of the paper: BWM against RBM on the uncached scalar path."""

    name = "paper_range"
    why = (
        "the paper's experiment at its own size on the uncached scalar path: "
        "core.rules/bounds/bwm do all the work, so a scalar-kernel change "
        "moves it and a cache, planner, WAL or router change must not"
    )
    binary_count = 250
    medians = {
        "query_p50_ms": ("bwm",),
        "rbm_query_p50_ms": ("rbm",),
        "batch_query_ms": ("batch",),
    }
    #: Queries per round: 40/40/20 anchored/broad/miss, as the generator
    #: deals them.
    query_count = 10

    def plan(self) -> None:
        self.queries = make_query_workload(self.oracle, self.rng, self.query_count)

    def setup(self) -> None:
        self.front = database = MultimediaDatabase()
        ingest(database, self.corpus, self.ledger)
        self.ops = []
        for query in self.queries:
            for method in ("bwm", "rbm"):
                self.ops.append(
                    Op(method, partial(database.range_query, query, method), query)
                )
        batch = tuple(self.queries)
        self.ops.append(
            Op(
                "batch",
                partial(database.range_query_batch, list(batch), "rbm"),
                batch,
                len(batch),
            )
        )


class ShardedChurn(Workload):
    """Scale-out steady state: cached reads under zipfian churn, durable."""

    name = "sharded_churn"
    why = (
        "4 shards with WAL+fsync as shipped and bounds cached: time goes to "
        "scatter/merge, cached scans, WAL appends and post-invalidation "
        "re-walks; the only place persistence and WAL replay run"
    )
    binary_count = 1000
    medians = {
        "query_p50_ms": ("range", "text"),
        "mutation_p50_ms": ("mutation",),
    }
    p95s = {"query_p95_ms": ("range", "text")}
    colocate = shard_count = 4
    thresholds = (10, 20, 30, 45)

    def plan(self) -> None:
        rng = self.rng
        # Every (color, threshold) once, the first dozen twice: what a
        # cached BWM scan costs depends on how many bases match, so the
        # multiset is fixed and the seed only orders it.
        combos = [(c, t) for c in PALETTE_NAMES for t in self.thresholds]
        draws = combos + combos[:12]
        self.range_queries = [
            RangeQuery.at_least(self.bin_of(color), percent / 100.0)
            for color, percent in draws
        ]
        self.texts = []
        for _ in range(12):
            first, second = (PALETTE_NAMES[int(i)] for i in rng.choice(len(PALETTE_NAMES), 2, replace=False))
            low = self.thresholds[int(rng.integers(len(self.thresholds)))]
            high = int(rng.integers(30, 70))
            self.texts.append(f"at least {low}% {first} and at most {high}% {second}")

        # Three bases chosen zipf(1.0) by insertion rank get their raster
        # swapped for another stored flag's, then swapped back.
        ranks = np.arange(1, len(self.corpus.bases) + 1, dtype=float)
        picks = rng.choice(len(ranks), size=3, replace=False, p=(1 / ranks) / (1 / ranks).sum())
        self.updates = []
        for pick in picks:
            base_id, raster_a = self.corpus.bases[int(pick)]
            raster_b = self.corpus.bases[int(rng.integers(len(ranks)))][1]
            self.updates.append((base_id, raster_a, raster_b))
        self.inserts = self.churn_sequences(3)
        self.order_seed = int(rng.integers(2**31))

    def setup(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="shards-", dir=self.scratch))
        self.front = catalog = ShardedCatalog(self.shard_count, root=self.root)
        ingest(catalog, self.corpus, self.ledger)
        self.ledger.call(catalog.save)
        # A bin first read by a range query keeps scalar memo entries; a
        # bin first read by a text query is served from the all-bins
        # memo ever after, at 3x the cost per hit (never promoted).  Left
        # to the seeded op order, reads took 2.5 or 3.5 ms depending on
        # the seed; so every bin is first read here, by a range query.
        for query in dict.fromkeys(self.range_queries):
            self.ledger.call(catalog.range_query, query)
        self.compactor = Compactor(catalog)
        self.ops = self._round_ops(catalog)

    def _round_ops(self, catalog: ShardedCatalog) -> List[Op]:
        reads = [Op("range", partial(catalog.range_query, q), q) for q in self.range_queries]
        reads += [Op("text", partial(catalog.text_query, t), t) for t in self.texts]
        # Each mutation chain keeps its internal order (B before A,
        # insert before delete); the chains are spread over the round.
        chains: List[List[Op]] = []
        for base_id, raster_a, raster_b in self.updates:
            chains.append(
                [
                    Op("mutation", partial(catalog.update_image, base_id, raster_b)),
                    Op("mutation", partial(catalog.update_image, base_id, raster_a)),
                ]
            )
        for index, sequence in enumerate(self.inserts):
            churn_id = f"churn-{index + 1}"
            chains.append(
                [
                    Op("mutation", partial(catalog.insert_edited, sequence, churn_id)),
                    Op("mutation", partial(catalog.delete_edited, churn_id)),
                ]
            )
        order = np.random.default_rng(self.order_seed)
        order.shuffle(reads)
        slots = sorted(int(s) for s in order.choice(len(reads), size=2 * len(chains), replace=False))
        order.shuffle(chains)
        # First halves land in the earlier slots, second halves later, so
        # reads run against the mutated state in between.
        placed: Dict[int, Op] = {}
        for position, chain in enumerate(chains):
            placed[slots[position]] = chain[0]
            placed[slots[len(chains) + position]] = chain[1]
        ops: List[Op] = []
        for index, read in enumerate(reads):
            if index == len(reads) // 2:
                ops.append(Op("compaction", self._compact))
            if index in placed:
                ops.append(placed[index])
            ops.append(read)
        # The cycle's undo, as ``delete_edited`` is an insert's: without
        # it every cycle would find a catalog with four more matrices
        # seeded, and the rounds would not be repetitions of one another.
        # The price: a matrix helps the reads of half a round, not of
        # the rest of the run.
        ops.append(Op("compaction", self._retract))
        return ops

    def _compact(self) -> Tuple[str, ...]:
        self._materialized = self.compactor.run_once().materialized
        return self._materialized

    def _retract(self) -> Tuple[bool, ...]:
        # A churn image materialized mid-round is deleted by now.
        return tuple(
            self.compactor.rollback(image_id)
            for image_id in self._materialized
            if self.front.contains(image_id)  # type: ignore[attr-defined]
        )

    def finish(self, gate_queries: Sequence[RangeQuery]) -> Tuple[List[str], Dict[str, float]]:
        """Durability: every acknowledged write is readable from the WAL.

        Checkpoint, apply writes that are *not* undone, close without
        saving, reopen three times: length, placement and sampled
        results must equal what the live catalog answered.
        """
        catalog: ShardedCatalog = self.front  # type: ignore[assignment]
        call = self.ledger.call
        call(catalog.save)
        stored = sum(f.stat().st_size for f in self.root.rglob("*") if f.is_file())
        facts = {"bytes_per_image": stored / len(catalog)}
        base_id, _, raster_b = self.updates[0]
        call(catalog.update_image, base_id, raster_b)
        for index, sequence in enumerate(self.inserts):
            call(catalog.insert_edited, sequence, f"kept-{index + 1}")
        call(catalog.delete_edited, self.corpus.edited[0][0])
        expected = (
            len(catalog),
            catalog.placement(),
            [catalog.range_query(query).matches for query in gate_queries],
        )
        catalog.close()
        problems: List[str] = []
        opens: List[float] = []
        for _ in range(3):
            started = time.perf_counter()
            reopened = call(ShardedCatalog.open, self.root)
            opens.append(time.perf_counter() - started)
            if reopened is None:
                problems.append("reopen raised")
                continue
            # The sampled results are read once: at this size they cost
            # more than the three opens.
            found = (
                len(reopened),
                reopened.placement(),
                expected[2] if opens[1:] else [reopened.range_query(query).matches for query in gate_queries],
            )
            if found != expected:
                problems.append("reopened catalog differs from the live one (WAL replay lost a write)")
            facts["replayed_records"] = reopened.metrics.counter("wal.replayed")
            reopened.close()
        facts["reopen_s"] = min(opens)
        return problems, facts

    def engines(self) -> List[object]:
        return _shard_engines(self.front)

    def close(self) -> None:
        if isinstance(self.front, ShardedCatalog):
            self.front.close()
            shutil.rmtree(self.root, ignore_errors=True)
        self.front = None


class ServiceHot(Workload):
    """The serving tier: parser, planner, result cache, admission, hop."""

    name = "service_hot"
    why = (
        "repeated query texts through QueryService: a 0.70 hit ratio spends "
        "time in parse, cache and the worker hop; one write per round flushes "
        "the cache, so misses re-plan against stale indexes"
    )
    binary_count = 1000
    medians = {"miss_p50_ms": ("miss",)}
    p95s = {"query_p95_ms": ("hit", "miss")}
    text_pool = 64
    draws = 50
    #: Tuned once so 15 of the 64 ranks are drawn at least once in 50
    #: draws (hit ratio 0.70 with the flush at mid-round), then frozen.
    exponent = 1.55
    hit_ratio_range = (0.55, 0.85)

    def plan(self) -> None:
        rng = self.rng
        singles = [
            f"at least {percent}% {color}"
            for color in PALETTE_NAMES
            for percent in (10, 20, 30, 40, 50)
        ]
        doubles = [
            f"at least {low}% {first} and at most {high}% {second}"
            for first in PALETTE_NAMES
            for second in PALETTE_NAMES
            if first != second
            for low, high in ((10, 60), (20, 50))
        ]
        rng.shuffle(singles)
        rng.shuffle(doubles)
        # Every third rank is a two-constraint text, so the mix of cheap
        # and dear misses is the same for every seed.
        pool: List[str] = []
        for rank in range(self.text_pool):
            pool.append(doubles.pop() if rank % 3 == 2 else singles.pop())
        counts = stratified_counts(self.text_pool, self.draws, self.exponent)
        # A text's draws alternate between the half after the write and
        # the half before it, so every drawn text is cached again before
        # the next round starts and misses exactly once per round.
        before: List[str] = []
        after: List[str] = []
        for text, count in zip(pool, counts):
            after.extend([text] * ((count + 1) // 2))
            before.extend([text] * (count // 2))
        rng.shuffle(before)
        rng.shuffle(after)
        self.before, self.after = before, after
        self.insert = self.churn_sequences(1)[0]

    def setup(self) -> None:
        self.database = MultimediaDatabase()
        ingest(self.database, self.corpus, self.ledger)
        self.front = service = QueryService(
            self.database, max_workers=2, prebuild_indexes=True
        )
        ops = [Op("execute", partial(service.execute, text), text) for text in self.before]
        ops.append(Op("mutation", partial(service.insert_edited, self.insert, "churn-1")))
        ops.append(Op("mutation", partial(service.delete_edited, "churn-1")))
        ops += [Op("execute", partial(service.execute, text), text) for text in self.after]
        self.ops = ops

    def label(self, op: Op, result: object) -> str:
        if op.kind != "execute" or result is None:
            return op.kind
        return "hit" if result.cache_hit else "miss"  # type: ignore[attr-defined]

    def front_range_query(self, query: RangeQuery) -> frozenset:
        return self.front.execute(query).result.matches  # type: ignore[attr-defined]

    def knn_front(self) -> object:
        return None  # the service answers range queries only

    def engines(self) -> List[object]:
        return [self.database.engine]

    def extras(self) -> Dict[str, float]:
        """Every drawn text once against freshly rebuilt indexes.

        The first write of a run leaves the indexes stale and nothing in
        the service rebuilds them, so no round ever searches them.
        """
        service: QueryService = self.front  # type: ignore[assignment]
        call = self.ledger.call
        call(service.insert_edited, self.insert, "churn-1")
        call(service.delete_edited, "churn-1")
        call(service.refresh_indexes)
        for text in dict.fromkeys(self.after):
            call(service.execute, text)
        return {}

    def close(self) -> None:
        if isinstance(self.front, QueryService):
            self.front.shutdown()
        self.front = None


class KnnSimilarity(Workload):
    """Similarity search on the pool-free single-shard catalog."""

    name = "knn_similarity"
    why = (
        "kNN and similarity-range on ShardedCatalog(1): the all-bins bounds "
        "sweep prunes, editing.executor instantiates the survivors; the only "
        "workload that instantiates edited images at all"
    )
    binary_count = 500
    medians = {"knn_p50_ms": ("knn",), "batch_query_ms": ("batch",)}
    colocate = 4  # so the 4-shard copy of ``extras`` rejects nothing
    k = 10
    candidates = 12
    #: Share of the edited images each chosen kNN query instantiates:
    #: where darkened flags are dense, so a candidate is always near.
    instantiation_targets = (0.40, 0.50)
    range_target = 0.45

    def plan(self) -> None:
        rng = self.rng
        bases = self.corpus.bases
        picks = rng.choice(len(bases), size=min(self.candidates, len(bases)), replace=False)
        edited = len(self.corpus.edited)
        pilot = []
        for pick in picks:
            raster = darkened(bases[int(pick)][1], float(rng.uniform(0.6, 0.9)))
            stats = self.oracle.knn(raster, self.k).stats
            pilot.append((stats.edited_instantiated / edited, raster))
        # How hard a kNN query is depends on how well its bounds prune;
        # taking the candidates nearest fixed shares keeps that equal
        # from seed to seed.
        self.knn_queries = []
        for target in self.instantiation_targets:
            best = min(pilot, key=lambda entry: abs(entry[0] - target))
            pilot.remove(best)
            self.knn_queries.append(best[1])
        # The similarity-range radius is bisected until the search
        # instantiates its target share: a radius taken from a kNN
        # result left that share, and the call's time, +-20% to the seed.
        self.range_query_raster = darkened(bases[int(picks[0])][1], 0.75)
        low, high = 0.0, 2.0
        for _ in range(8):
            self.epsilon = (low + high) / 2
            stats = self.oracle.similarity_range(self.range_query_raster, self.epsilon).stats
            if stats.edited_instantiated < self.range_target * edited:
                low = self.epsilon
            else:
                high = self.epsilon
        self.batch = tuple(make_query_workload(self.oracle, rng, 32))
        self.insert = self.churn_sequences(1)[0]

    def setup(self) -> None:
        self.front = catalog = ShardedCatalog(1)
        ingest(catalog, self.corpus, self.ledger)
        first, second = self.knn_queries
        self.ops = [
            Op("knn", partial(catalog.knn, first, self.k), first),
            Op("mutation", partial(catalog.insert_edited, self.insert, "churn-1")),
            Op("knn", partial(catalog.knn, second, self.k), second),
            Op("similarity_range", partial(catalog.similarity_range, self.range_query_raster, self.epsilon)),
            Op("mutation", partial(catalog.delete_edited, "churn-1")),
            Op("batch", partial(catalog.range_query_batch, list(self.batch)), self.batch, len(self.batch)),
        ]

    def engines(self) -> List[object]:
        return _shard_engines(self.front)

    def extras(self) -> Dict[str, float]:
        """The kNN queries again on a 4-shard copy: instantiation ratio.

        Each shard prunes against its own k-th best, which is worse than
        the global one, so a sharded kNN instantiates more.
        """
        with ShardedCatalog(self.colocate) as copy:
            ingest(copy, self.corpus, self.ledger)
            sharded = single = 0
            for raster in self.knn_queries:
                sharded += self.ledger.call(copy.knn, raster, self.k).stats.edited_instantiated
                single += self.ledger.call(self.front.knn, raster, self.k).stats.edited_instantiated
        return {"knn_4shard_over_1shard": sharded / single}

    def close(self) -> None:
        if isinstance(self.front, ShardedCatalog):
            self.front.close()
        self.front = None


def _shard_engines(catalog: object) -> List[object]:
    return [
        catalog.shard_database(index).engine  # type: ignore[attr-defined]
        for index in range(catalog.shard_count)  # type: ignore[attr-defined]
    ]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperRange, ShardedChurn, ServiceHot, KnnSimilarity)
}
