#!/usr/bin/env python3
"""World flags: CBIR over the real flag catalog.

The paper's flag dataset came from a flags-of-the-world site [9]; this
example uses the library's catalog of 43 real national-flag layouts to
show the retrieval behaviour on genuine flag color distributions —
including the famous failure case (Monaco vs. Indonesia vs. Poland are
nearly or exactly identical in color histogram space).

Run: python examples/world_flags.py
"""

import numpy as np

from repro.color.similarity import l1_distance, quadratic_form_distance
from repro.db import MultimediaDatabase, augment_with_distortions
from repro.images.generators import darken
from repro.workloads import make_world_flags


def main():
    db = MultimediaDatabase()
    flags = make_world_flags()
    for name, image in flags.items():
        db.insert_image(image, image_id=name)
        augment_with_distortions(db, name)
    print(f"inserted {len(flags)} real flags "
          f"(+{db.catalog.edited_count} edited variants as sequences)\n")

    # ------------------------------------------------------------------
    # The paper's query style, over real flags.
    # ------------------------------------------------------------------
    for text in (
        "at least 60% red",
        "at least 30% blue and at least 20% yellow",
        "at least 45% green",
    ):
        result = db.text_query(text)
        bases = sorted(i for i in result.matches if i in flags)
        print(f"{text!r:>45} -> {bases}")

    # ------------------------------------------------------------------
    # The color-only ambiguity: Monaco vs Indonesia (identical layout).
    # ------------------------------------------------------------------
    print("\ncolor-histogram L1 distances (0 = indistinguishable):")
    pairs = [("monaco", "indonesia"), ("monaco", "poland"), ("monaco", "japan")]
    for a, b in pairs:
        d = l1_distance(db.exact_histogram(a), db.exact_histogram(b))
        print(f"  {a:>9} vs {b:<10} L1 = {d:.4f}")
    print("  (no color histogram tells Monaco/Indonesia/Poland apart; the")
    print("   catalog's identity layer, not CBIR, resolves them.)")

    # ------------------------------------------------------------------
    # Cross-bin distance: a perceptual refinement over L1.
    # ------------------------------------------------------------------
    print("\nquadratic-form (cross-bin) vs L1, France against its neighbors:")
    france = db.exact_histogram("france")
    for other in ("netherlands", "russia", "italy", "japan"):
        histogram = db.exact_histogram(other)
        print(f"  france vs {other:<12} L1 = {l1_distance(france, histogram):.3f}"
              f"   QF = {quadratic_form_distance(france, histogram):.3f}")

    # ------------------------------------------------------------------
    # Night-time flag recognition via the augmented database.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(4)
    names = list(flags)
    hits = 0
    trials = 25
    for _ in range(trials):
        name = names[int(rng.integers(len(names)))]
        photo = darken(db.instantiate(name), 0.55)
        result = db.knn(photo, 3, method="exact")
        found = set(result.ids())
        for image_id in result.ids():
            record = db.catalog.record(image_id)
            if record.format == "edited":
                found.add(record.base_id)
        hits += name in found
    print(f"\nnight-time flag recognition: {hits}/{trials} correct "
          f"({100 * hits / trials:.0f}%) with the augmented database")


if __name__ == "__main__":
    main()
