"""A catalog of real national-flag layouts.

The paper's first dataset was "a collection of images of flags around
the world" [9].  Alongside the randomized generator in
:mod:`repro.workloads.flags`, this module renders a fixed catalog of
real flags from declarative layout descriptions, so experiments that
want the *actual* color distribution of world flags (rather than a
randomized facsimile) can use it — e.g. the A6 recall experiment, where
"which flags share colors" matters.

Layout vocabulary (colors are :mod:`repro.color.names` words):

* ``("horizontal", [c1, c2, ...])`` — top-to-bottom bands;
* ``("vertical", [c1, c2, ...])`` — left-to-right bands;
* ``("nordic", field, cross)`` — Scandinavian cross;
* ``("disc", field, disc)`` — centered disc (e.g. Japan);
* ``("canton", field, canton)`` — upper-hoist canton on a field;
* ``("bicolor_disc", [c1, c2], disc)`` — horizontal bicolor + center disc.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.color.names import color_by_name
from repro.errors import WorkloadError
from repro.images.generators import (
    draw_cross,
    draw_disc,
    draw_rect,
    horizontal_bands,
    vertical_bands,
)
from repro.images.geometry import Rect
from repro.images.raster import Image

#: Real-world flag layouts (simplified to our vocabulary, emblems and
#: fine detail omitted — histogram-level fidelity is the goal).
FLAG_DEFINITIONS: Dict[str, tuple] = {
    # Vertical tricolors
    "france": ("vertical", ["blue", "white", "red"]),
    "italy": ("vertical", ["green", "white", "red"]),
    "ireland": ("vertical", ["green", "white", "orange"]),
    "belgium": ("vertical", ["black", "yellow", "red"]),
    "romania": ("vertical", ["blue", "yellow", "red"]),
    "mali": ("vertical", ["green", "yellow", "red"]),
    "nigeria": ("vertical", ["green", "white", "green"]),
    "peru": ("vertical", ["red", "white", "red"]),
    # Horizontal tricolors / bicolors
    "germany": ("horizontal", ["black", "red", "gold"]),
    "netherlands": ("horizontal", ["red", "white", "blue"]),
    "russia": ("horizontal", ["white", "blue", "red"]),
    "austria": ("horizontal", ["red", "white", "red"]),
    "hungary": ("horizontal", ["red", "white", "green"]),
    "bulgaria": ("horizontal", ["white", "green", "red"]),
    "estonia": ("horizontal", ["lightblue", "black", "white"]),
    "lithuania": ("horizontal", ["yellow", "green", "red"]),
    "luxembourg": ("horizontal", ["red", "white", "lightblue"]),
    "yemen": ("horizontal", ["red", "white", "black"]),
    "ukraine": ("horizontal", ["lightblue", "yellow"]),
    "poland": ("horizontal", ["white", "red"]),
    "monaco": ("horizontal", ["red", "white"]),
    "indonesia": ("horizontal", ["red", "white"]),
    "colombia": ("horizontal", ["yellow", "blue", "red"]),
    "ethiopia": ("horizontal", ["green", "yellow", "red"]),
    "ghana": ("horizontal", ["red", "gold", "green"]),
    "sierra_leone": ("horizontal", ["green", "white", "lightblue"]),
    "gabon": ("horizontal", ["green", "yellow", "blue"]),
    "armenia": ("horizontal", ["red", "blue", "orange"]),
    # Nordic crosses
    "sweden": ("nordic", "blue", "yellow"),
    "norway": ("nordic", "red", "white"),
    "denmark": ("nordic", "red", "white"),
    "finland": ("nordic", "white", "blue"),
    "iceland": ("nordic", "blue", "white"),
    # Discs
    "japan": ("disc", "white", "red"),
    "bangladesh": ("disc", "green", "red"),
    "palau": ("disc", "lightblue", "yellow"),
    "laos": ("bicolor_disc", ["red", "blue"], "white"),
    # Cantons
    "greece": ("canton", "lightblue", "blue"),
    "malaysia": ("canton", "red", "blue"),
    "togo": ("canton", "green", "red"),
    "liberia": ("canton", "red", "blue"),
    "chile": ("canton", "white", "blue"),
    "uruguay": ("canton", "white", "lightblue"),
}


def flag_names() -> Tuple[str, ...]:
    """All catalog flag names, sorted."""
    return tuple(sorted(FLAG_DEFINITIONS))


def make_real_flag(name: str, height: int = 40, width: int = 60) -> Image:
    """Render one catalog flag."""
    definition = FLAG_DEFINITIONS.get(name.lower())
    if definition is None:
        raise WorkloadError(
            f"unknown flag {name!r}; known: {', '.join(flag_names())}"
        )
    kind = definition[0]
    if kind == "horizontal":
        return horizontal_bands(height, width, [color_by_name(c) for c in definition[1]])
    if kind == "vertical":
        return vertical_bands(height, width, [color_by_name(c) for c in definition[1]])
    if kind == "nordic":
        flag = Image.filled(height, width, color_by_name(definition[1]))
        return draw_cross(
            flag, height // 2, width * 2 // 5, max(3, height // 6),
            color_by_name(definition[2]),
        )
    if kind == "disc":
        flag = Image.filled(height, width, color_by_name(definition[1]))
        return draw_disc(
            flag, height // 2, width // 2, min(height, width) * 3 // 10,
            color_by_name(definition[2]),
        )
    if kind == "canton":
        flag = Image.filled(height, width, color_by_name(definition[1]))
        return draw_rect(
            flag, Rect(0, 0, height // 2, width * 2 // 5), color_by_name(definition[2])
        )
    if kind == "bicolor_disc":
        flag = horizontal_bands(
            height, width, [color_by_name(c) for c in definition[1]]
        )
        return draw_disc(
            flag, height // 2, width // 2, min(height, width) // 4,
            color_by_name(definition[2]),
        )
    raise WorkloadError(f"unknown layout kind {kind!r} for {name!r}")


def make_world_flags(height: int = 40, width: int = 60) -> Dict[str, Image]:
    """Render the whole catalog, keyed by country name."""
    return {name: make_real_flag(name, height, width) for name in flag_names()}
