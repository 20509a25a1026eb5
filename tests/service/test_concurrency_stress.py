"""Concurrency stress: mixed queries racing catalog mutations.

The serving-layer contract under fire: query threads hammer a fixed
query set while a mutator thread repeatedly inserts and deletes one
extra edited image through the service's write-locked wrappers.  The
catalog therefore only ever occupies two states, both with precomputed
oracles — so every concurrent result can be checked for linearizability:
it must equal one oracle or the other, never a mixture and never a
pre-mutation leftover (the stale-cache-hit case).

Deadlock shows up as a thread still alive after its join timeout;
divergence shows up in the collected failure list; and a final
single-threaded pass asserts byte-identical results vs. the scalar RBM
oracle once the dust settles.
"""

import threading

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.editing.random_edits import random_sequence
from repro.images.generators import random_palette_image
from repro.service import QueryService

QUERY_THREADS = 4
ITERATIONS = 30
MUTATION_ROUNDS = 20
JOIN_TIMEOUT = 120.0


@pytest.fixture
def stress_setup():
    """Database + fixed queries + the flip-flop image and both oracles."""
    rng = np.random.default_rng(20060606)
    database = MultimediaDatabase(bounds_cache=True)
    base_ids = [
        database.insert_image(random_palette_image(rng, 12, 16, FLAG_PALETTE))
        for _ in range(3)
    ]
    for base_id in base_ids:
        database.augment(
            base_id, rng, variants=2, palette=FLAG_PALETTE,
            merge_target_pool=base_ids,
        )
    flip_sequence = random_sequence(
        rng, base_ids[0], 12, 16, FLAG_PALETTE,
        merge_targets={base_id: (12, 16) for base_id in base_ids},
    )
    bins = sorted(
        {
            database.catalog.histogram_of(base_id).dominant_bins(1)[0]
            for base_id in base_ids
        }
    )
    queries = [RangeQuery.at_least(b, 0.05) for b in bins] + [
        RangeQuery(b, 0.0, 0.6) for b in bins
    ]
    # Oracle per query in both catalog states (without / with the image).
    without = {q: database.range_query(q, method="rbm").matches for q in queries}
    flip_id = database.insert_edited(flip_sequence, image_id="flip")
    withit = {q: database.range_query(q, method="rbm").matches for q in queries}
    database.delete_edited(flip_id)
    return database, queries, flip_sequence, without, withit


def test_stress_queries_vs_mutations(stress_setup):
    database, queries, flip_sequence, without, withit = stress_setup
    failures = []
    stop = threading.Event()
    # Set once the mutator finished its first insert/delete pair.  Every
    # query worker waits for it halfway through, so at least one pair
    # lands between queries, however the threads are scheduled.
    first_pair = threading.Event()

    with QueryService(database, max_workers=QUERY_THREADS) as service:

        def query_worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for iteration in range(ITERATIONS):
                    if iteration == ITERATIONS // 2:
                        first_pair.wait(timeout=JOIN_TIMEOUT)
                    query = queries[int(rng.integers(len(queries)))]
                    matches = service.execute(query, timeout=60.0).result.matches
                    if matches != without[query] and matches != withit[query]:
                        failures.append(
                            f"{query!r}: {sorted(matches)} matches neither "
                            f"catalog state's oracle"
                        )
            except Exception as exc:  # noqa: BLE001 — surfaced via failures
                failures.append(f"query worker {seed}: {exc!r}")
            finally:
                stop.set()

        def mutator() -> None:
            try:
                for _ in range(MUTATION_ROUNDS):
                    service.insert_edited(flip_sequence, image_id="flip")
                    service.delete_edited("flip")
                    first_pair.set()
                    if stop.is_set():
                        break
            except Exception as exc:  # noqa: BLE001
                failures.append(f"mutator: {exc!r}")
            finally:
                first_pair.set()

        threads = [
            threading.Thread(target=query_worker, args=(100 + i,))
            for i in range(QUERY_THREADS)
        ] + [threading.Thread(target=mutator)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
        stuck = [t for t in threads if t.is_alive()]
        assert not stuck, f"deadlock: {len(stuck)} threads never finished"
        assert not failures, "\n".join(failures)

        # The storm really exercised the invalidation path.
        stats = service.cache.stats()
        assert stats["invalidations"] > 0
        assert service.metrics.counter("mutations") > 0

        # Byte-identical results vs. the single-threaded oracle at rest.
        for query in queries:
            served = service.execute(query).result.matches
            oracle = database.range_query(query, method="rbm").matches
            assert served == oracle
            assert served == without[query]


def test_stress_forced_strategies_under_mutations(stress_setup):
    """Every strategy stays linearizable while the catalog churns."""
    database, queries, flip_sequence, without, withit = stress_setup
    failures = []

    with QueryService(database, max_workers=3) as service:

        def query_worker(strategy: str) -> None:
            try:
                for iteration in range(ITERATIONS):
                    query = queries[iteration % len(queries)]
                    matches = service.execute(
                        query, strategy=strategy, timeout=60.0
                    ).result.matches
                    if matches != without[query] and matches != withit[query]:
                        failures.append(
                            f"{strategy} on {query!r} matched neither oracle"
                        )
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{strategy}: {exc!r}")

        def mutator() -> None:
            try:
                for _ in range(MUTATION_ROUNDS):
                    service.insert_edited(flip_sequence, image_id="flip")
                    service.delete_edited("flip")
            except Exception as exc:  # noqa: BLE001
                failures.append(f"mutator: {exc!r}")

        strategies = ["bwm", "vectorized_batch", "index_assisted"]
        threads = [
            threading.Thread(target=query_worker, args=(s,)) for s in strategies
        ] + [threading.Thread(target=mutator)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
        assert not any(t.is_alive() for t in threads), "deadlock"
        assert not failures, "\n".join(failures)
