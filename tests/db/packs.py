"""Reach into a saved root's pack: where each envelope lies, and damage.

A save writes every record's envelope into ``segments.pack`` and the
byte range of each into its ``catalog.json`` row; these helpers read
those rows and damage single envelopes in place, so tests can aim at
one record the way they once aimed at its file.
"""

import json
from pathlib import Path

from repro.db.versioning import PACK_NAME
from tests.db.legacy import manifest


def envelope(root, image_id):
    """``(pack path, offset, length)`` of ``image_id``'s envelope."""
    row = manifest(root)["records"][image_id]
    return Path(root) / row["path"], row["offset"], row["length"]


def flip_envelope_byte(root, image_id, at=-1):
    """Change one byte of ``image_id``'s envelope (by default its last,
    a payload byte; ``at=0`` hits its header).  Returns the pack."""
    path, offset, length = envelope(root, image_id)
    data = bytearray(path.read_bytes())
    position = offset + at % length
    data[position] = (data[position] + 90) % 256
    path.write_bytes(bytes(data))
    return path


def pack_ids(root):
    """The ids of the envelopes in ``root``'s pack, in pack order.

    Walks header line by header line and asserts the envelopes tile the
    pack exactly: no stray bytes between them, none after the last.
    """
    data = (Path(root) / PACK_NAME).read_bytes()
    ids, position = [], 0
    while position < len(data):
        newline = data.index(b"\n", position)
        header = json.loads(data[position:newline])
        ids.append(header["image_id"])
        position = newline + 1 + header["payload_bytes"]
    assert position == len(data)
    return ids


def dependents(database, victims):
    """``victims`` plus every edited image derived from them, transitively."""
    lost = set(victims)
    for image_id in database.catalog.edited_ids():  # insertion order
        if lost & set(database.catalog.sequence_of(image_id).referenced_ids()):
            lost.add(image_id)
    return lost
