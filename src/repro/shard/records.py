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
record replays exactly as it was applied.  ``change`` is the one kind
outside it: a payload-free record that earlier releases wrote for a
direct shard-database write.  Nothing writes it now, replay skips it,
and the name stays reserved.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Tuple

import numpy as np

from repro.core.bounds import AllBinsBounds
from repro.editing.sequence import EditSequence
from repro.images.ppm import read_ppm, write_ppm
from repro.images.raster import Image

if TYPE_CHECKING:
    from repro.shard.sharded import _Shard

Payload = Dict[str, object]
Entry = Mapping[str, object]

ENTERS, LEAVES, KEEPS = "enters", "leaves", "keeps"

#: A ``compact`` subject: the matrix plus its projected per-query
#: saving.  The saving is live-only scoring telemetry — it is not
#: journaled, so a replayed materialization carries 0.0.
Materialization = Tuple[AllBinsBounds, float]


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


def _encode_bounds(subject: Materialization) -> Payload:
    (lo, hi, height, width), _saving = subject
    return {
        "lo": [int(value) for value in lo],
        "hi": [int(value) for value in hi],
        "height": int(height),
        "width": int(width),
    }


def _decode_bounds(entry: Entry) -> Materialization:
    bounds: AllBinsBounds = (
        np.array(entry["lo"], dtype=np.int64),
        np.array(entry["hi"], dtype=np.int64),
        int(entry["height"]),  # type: ignore[arg-type]
        int(entry["width"]),  # type: ignore[arg-type]
    )
    return bounds, 0.0


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


def _compact(shard: _Shard, image_id: str, subject: Materialization) -> None:
    """Swap a materialized BOUNDS matrix in.

    The invalidation fires first (dropping the image's stale memo
    entries and notifying result caches), and only then is the engine's
    vector cache seeded — so a query racing the commit sees either the
    old walk-on-demand state or the fully seeded one, never a mix.
    """
    bounds, saving = subject
    engine = shard.database.engine
    engine.invalidate(image_id)
    engine.seed_bounds(image_id, bounds)
    shard.materialized[image_id] = float(saving)


def _decompact(shard: _Shard, image_id: str, _subject: None) -> None:
    shard.database.engine.invalidate(image_id)
    shard.materialized.pop(image_id, None)


# -- idempotence rules ---------------------------------------------------
def _present(shard: _Shard, image_id: str) -> bool:
    return shard.database.catalog.contains(image_id)


def _absent(shard: _Shard, image_id: str) -> bool:
    """The subject is gone: nothing left to delete, update or warm."""
    return not shard.database.catalog.contains(image_id)


def _unmaterialized(shard: _Shard, image_id: str) -> bool:
    return image_id not in shard.materialized


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
    "compact": RecordKind(
        _encode_bounds, _decode_bounds, _compact, KEEPS, _absent
    ),
    "decompact": RecordKind(
        _no_payload, _no_subject, _decompact, KEEPS, _unmaterialized
    ),
}
