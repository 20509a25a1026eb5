"""The MMDBMS catalog: id allocation, records, and derivation links.

The catalog is the single source of truth for what is stored.  It
implements two protocols consumed by the core algorithms:

* :class:`repro.core.query.CatalogView` — iteration and per-id access for
  the RBM/BWM processors;
* :class:`repro.core.bounds.BoundsStore` — the lookup the bounds engine
  uses to start walks and resolve Merge targets.

It also maintains the §2 "connection between images x and op(x)" — the
derivation links used to expand query results with base images.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple, Union

from repro.color.histogram import ColorHistogram
from repro.db.records import BinaryImageRecord, EditedImageRecord, ImageRecord
from repro.editing.sequence import EditSequence
from repro.errors import DatabaseError, DuplicateObjectError, UnknownObjectError


class Catalog:
    """In-memory catalog of binary and edited image records."""

    def __init__(self) -> None:
        self._binary: Dict[str, BinaryImageRecord] = {}
        self._edited: Dict[str, EditedImageRecord] = {}
        self._children: Dict[str, List[str]] = {}
        #: Merge target id -> edited images whose sequence merges it in
        #: (the other half of "who references this image", beside
        #: ``_children``); lets the removal guards answer in O(1).
        self._merge_users: Dict[str, List[str]] = {}
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Id allocation
    # ------------------------------------------------------------------
    def allocate_id(self, prefix: str) -> str:
        """A fresh unique id with a readable prefix (``img-17``)."""
        while True:
            candidate = f"{prefix}-{next(self._counter)}"
            if candidate not in self._binary and candidate not in self._edited:
                return candidate

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_binary(self, record: BinaryImageRecord) -> None:
        """Register a binary image record."""
        self._require_fresh(record.image_id)
        self._binary[record.image_id] = record
        self._children.setdefault(record.image_id, [])

    def add_edited(self, record: EditedImageRecord) -> None:
        """Register an edited image; every referenced id must exist."""
        self._require_fresh(record.image_id)
        for referenced in record.sequence.referenced_ids():
            if not self.contains(referenced):
                raise UnknownObjectError(
                    f"edited image {record.image_id!r} references unknown "
                    f"image {referenced!r}"
                )
        self._edited[record.image_id] = record
        self._children.setdefault(record.base_id, []).append(record.image_id)
        for target in set(record.sequence.merge_targets()):
            self._merge_users.setdefault(target, []).append(record.image_id)

    def remove_edited(self, image_id: str) -> EditedImageRecord:
        """Drop an edited image; fails while other edits reference it."""
        record = self.edited_record(image_id)
        self._release(image_id, "edited")
        del self._edited[image_id]
        self._children[record.base_id].remove(image_id)
        for target in set(record.sequence.merge_targets()):
            self._merge_users[target].remove(image_id)
        return record

    def remove_binary(self, image_id: str) -> BinaryImageRecord:
        """Drop a binary image; fails while edited images reference it."""
        record = self.binary_record(image_id)
        self._release(image_id, "binary")
        del self._binary[image_id]
        return record

    def referrers(self, image_id: str) -> Tuple[str, ...]:
        """Edited images that use ``image_id`` as base or as Merge target."""
        return tuple(
            dict.fromkeys(
                self._children.get(image_id, [])
                + self._merge_users.get(image_id, [])
            )
        )

    def _release(self, image_id: str, kind: str) -> None:
        """The removal guard: raise while edits reference ``image_id``,
        else drop its (by now empty) referrer lists."""
        referrers = self.referrers(image_id)
        if referrers:
            raise DatabaseError(
                f"{kind} image {image_id!r} is still the base or a Merge "
                f"target of {len(referrers)} edited image(s): {list(referrers)}"
            )
        self._children.pop(image_id, None)
        self._merge_users.pop(image_id, None)

    def _require_fresh(self, image_id: str) -> None:
        if self.contains(image_id):
            raise DuplicateObjectError(f"image id {image_id!r} already in catalog")

    # ------------------------------------------------------------------
    # CatalogView protocol (core query processors)
    # ------------------------------------------------------------------
    def binary_ids(self) -> Iterator[str]:
        """Ids of conventionally stored images, in insertion order."""
        return iter(self._binary)

    def edited_ids(self) -> Iterator[str]:
        """Ids of edit-sequence images, in insertion order."""
        return iter(self._edited)

    def histogram_of(self, image_id: str) -> ColorHistogram:
        """Exact histogram of a binary image."""
        return self.binary_record(image_id).histogram

    def sequence_of(self, image_id: str) -> EditSequence:
        """Edit sequence of an edited image."""
        return self.edited_record(image_id).sequence

    # ------------------------------------------------------------------
    # BoundsStore protocol (bounds engine)
    # ------------------------------------------------------------------
    def lookup_for_bounds(
        self, image_id: str
    ) -> Union[Tuple[ColorHistogram, int, int], EditSequence]:
        """``(histogram, h, w)`` for binary images, sequence for edited."""
        record = self._binary.get(image_id)
        if record is not None:
            return (record.histogram, record.image.height, record.image.width)
        edited = self._edited.get(image_id)
        if edited is not None:
            return edited.sequence
        raise UnknownObjectError(f"image {image_id!r} not in catalog")

    # ------------------------------------------------------------------
    # General access
    # ------------------------------------------------------------------
    def contains(self, image_id: str) -> bool:
        """True when the id names a stored image of either format."""
        return image_id in self._binary or image_id in self._edited

    def is_binary(self, image_id: str) -> bool:
        """True when the id names a conventionally stored image."""
        return image_id in self._binary

    def record(self, image_id: str) -> ImageRecord:
        """The record of either format."""
        found = self._binary.get(image_id) or self._edited.get(image_id)
        if found is None:
            raise UnknownObjectError(f"image {image_id!r} not in catalog")
        return found

    def binary_record(self, image_id: str) -> BinaryImageRecord:
        """The record of a binary image (raises for edited ids)."""
        record = self._binary.get(image_id)
        if record is None:
            raise UnknownObjectError(f"binary image {image_id!r} not in catalog")
        return record

    def edited_record(self, image_id: str) -> EditedImageRecord:
        """The record of an edited image (raises for binary ids)."""
        record = self._edited.get(image_id)
        if record is None:
            raise UnknownObjectError(f"edited image {image_id!r} not in catalog")
        return record

    def derived_from(self, base_id: str) -> Tuple[str, ...]:
        """Edited images whose sequence references ``base_id`` as base."""
        if not self.contains(base_id):
            raise UnknownObjectError(f"image {base_id!r} not in catalog")
        return tuple(self._children.get(base_id, ()))

    @property
    def binary_count(self) -> int:
        """Number of binary images."""
        return len(self._binary)

    @property
    def edited_count(self) -> int:
        """Number of edited images."""
        return len(self._edited)

    def __len__(self) -> int:
        return self.binary_count + self.edited_count

    def __contains__(self, image_id: object) -> bool:
        return isinstance(image_id, str) and self.contains(image_id)
