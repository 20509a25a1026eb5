"""The shard tier's mutation vocabulary: one table of WAL record kinds.

:data:`RECORD_KINDS` is the only place :mod:`repro.shard` spells out
what a mutation *is*.  Per kind it holds

``encode`` / ``decode``
    subject → the record's op-specific payload keys, and a WAL entry →
    the subject.  The keys are wire format (a WAL an earlier release
    wrote must replay); :mod:`repro.shard.wal` lists them.
``apply``
    ``(shard, image_id, subject)`` — the state change itself, run with
    the shard's write lock held by the caller.
``placement``
    whether the id *enters*, *leaves* or *keeps* its slot in the
    router's placement map.
``done``
    the idempotence rule: ``(shard, image_id)`` → True when the
    record's effect is already present, so replay skips it.

``ShardedCatalog._commit`` (live: journal → apply → settle) and the
replayer (decode → apply → settle) both go through this table, so a
record replays exactly as it was applied.  :data:`RETIRED_KINDS` are
the kinds outside it: earlier releases wrote them, nothing writes them
now, readers still decode them and replay skips them.  Their names stay
reserved.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping

from repro.editing.sequence import EditSequence
from repro.images.ppm import read_ppm, write_ppm
from repro.images.raster import Image

if TYPE_CHECKING:
    from repro.shard.sharded import _Shard

Payload = Dict[str, object]
Entry = Mapping[str, object]

ENTERS, LEAVES, KEEPS = "enters", "leaves", "keeps"


@dataclass(frozen=True)
class RecordKind:
    """One row of :data:`RECORD_KINDS` (fields: see the module docstring)."""

    encode: Callable[[Any], Payload]
    decode: Callable[[Entry], Any]
    apply: Callable[[_Shard, str, Any], None]
    placement: str
    done: Callable[[_Shard, str], bool]


# -- payload codecs ------------------------------------------------------
def _encode_ppm(image: Image) -> Payload:
    return {"ppm": base64.b64encode(write_ppm(image)).decode("ascii")}


def _decode_ppm(entry: Entry) -> Image:
    return read_ppm(base64.b64decode(str(entry["ppm"])))


def _encode_sequence(sequence: EditSequence) -> Payload:
    return {"sequence": sequence.serialize()}


def _decode_sequence(entry: Entry) -> EditSequence:
    return EditSequence.parse(str(entry["sequence"]))


def _no_payload(_subject: None) -> Payload:
    return {}


def _no_subject(_entry: Entry) -> None:
    return None


# -- appliers ------------------------------------------------------------
# Contract: the caller holds ``shard.lock``'s write side (``_commit``'s
# callers take it; the replayer's loop does) — hence the function-level
# AL002 pragmas on the catalog mutators instead of taking the lock here.
def _insert_image(  # repro-lint: disable=AL002
    shard: _Shard, image_id: str, image: Image
) -> None:
    shard.database.insert_image(image, image_id)


def _insert_edited(  # repro-lint: disable=AL002
    shard: _Shard, image_id: str, sequence: EditSequence
) -> None:
    shard.database.insert_edited(sequence, image_id)


def _delete_image(  # repro-lint: disable=AL002
    shard: _Shard, image_id: str, _subject: None
) -> None:
    shard.database.delete_image(image_id)


def _delete_edited(  # repro-lint: disable=AL002
    shard: _Shard, image_id: str, _subject: None
) -> None:
    shard.database.delete_edited(image_id)


def _update_image(  # repro-lint: disable=AL002
    shard: _Shard, image_id: str, image: Image
) -> None:
    shard.database.update_image(image_id, image)


# -- idempotence rules ---------------------------------------------------
def _present(shard: _Shard, image_id: str) -> bool:
    return shard.database.catalog.contains(image_id)


def _absent(shard: _Shard, image_id: str) -> bool:
    """The subject is gone: nothing left to delete or update."""
    return not shard.database.catalog.contains(image_id)


RECORD_KINDS: Dict[str, RecordKind] = {
    "insert_image": RecordKind(
        _encode_ppm, _decode_ppm, _insert_image, ENTERS, _present
    ),
    "insert_edited": RecordKind(
        _encode_sequence, _decode_sequence, _insert_edited, ENTERS, _present
    ),
    "delete_image": RecordKind(
        _no_payload, _no_subject, _delete_image, LEAVES, _absent
    ),
    "delete_edited": RecordKind(
        _no_payload, _no_subject, _delete_edited, LEAVES, _absent
    ),
    "update_image": RecordKind(
        _encode_ppm, _decode_ppm, _update_image, KEEPS, _absent
    ),
}

#: Kinds earlier releases wrote and nothing writes now.  Replay skips
#: each as a no-op; the value says whether the record stood for a write
#: that is lost with it (``change``: a direct shard-database write,
#: counted as ``wal.unreplayable``) or only for derived memo state that
#: a read recomputes (``compact`` / ``decompact``: the compactor's
#: journaled BOUNDS matrices and their retractions).
RETIRED_KINDS: Dict[str, bool] = {
    "change": True,
    "compact": False,
    "decompact": False,
}
