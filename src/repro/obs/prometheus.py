"""Prometheus text-exposition rendering of the service's metrics.

Takes the nested snapshot dict produced by
``QueryService.metrics_snapshot`` — registry counters,
latency histograms, result-cache / bounds-cache counters, service
gauges, plus the trace-derived and prune-attribution counters the
observability layer feeds in — and renders the Prometheus text
exposition format (version 0.0.4) that a scraper or ``promtool check
metrics`` accepts:

* plain counters → ``<prefix>_<name>_total`` counter series;
* structured counters (``plans.<strategy>``, ``prune.<outcome>``,
  ``prune.widened_by.<rule>``, ``spans.<name>``) → one labeled series
  per family instead of a name explosion;
* latency histograms → Prometheus *summary* families with ``quantile``
  labels plus ``_sum`` / ``_count``;
* cache / service sub-dicts → gauges.

:func:`validate_exposition` is a promtool-style line checker used by the
CI job (and usable in production smoke tests) so a rendering bug cannot
silently break the scrape endpoint.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ObservabilityError

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Counter families rendered with a label instead of per-name series:
#: prefix in the registry -> (family name, label key).
_LABELED_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("plans.", "plans_total", "strategy"),
    ("prune.widened_by.", "prune_widened_by_total", "rule"),
    ("prune.", "prune_outcomes_total", "outcome"),
    ("spans.", "spans_total", "span"),
    ("shard.", "shard_events_total", "event"),
    ("wal.", "wal_events_total", "event"),
    ("compaction.", "compaction_events_total", "event"),
)


def _sanitize(name: str) -> str:
    """A legal Prometheus metric-name fragment from a registry name."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    if not _NAME_OK.match(cleaned):
        raise ObservabilityError(f"cannot sanitize metric name {name!r}")
    return cleaned


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text-exposition rules.

    The format requires ``\\`` → ``\\\\``, ``"`` → ``\\"`` and newline →
    ``\\n`` inside quoted label values; anything else passes through.
    Order matters: backslashes first, or the escapes themselves get
    re-escaped.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


class _Renderer:
    def __init__(self, prefix: str) -> None:
        if not _NAME_OK.match(prefix):
            raise ObservabilityError(f"invalid metric prefix {prefix!r}")
        self.prefix = prefix
        self.lines: List[str] = []
        # family name -> declared kind; repeated same-kind declarations
        # are deduplicated (several subsystems legitimately contribute
        # samples to one family), conflicting kinds are a rendering bug.
        self._declared: Dict[str, str] = {}

    def family(self, name: str, kind: str, help_text: str) -> str:
        full = f"{self.prefix}_{name}"
        declared = self._declared.get(full)
        if declared is not None:
            if declared != kind:
                raise ObservabilityError(
                    f"metric family {full} declared as both "
                    f"{declared} and {kind}"
                )
            return full  # already declared: append samples, no re-TYPE
        self._declared[full] = kind
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(self, name: str, value: Any, labels: Mapping[str, str] = ()) -> None:
        label_text = ""
        if labels:
            inner = ",".join(
                f'{key}="{_escape_label_value(str(val))}"'
                for key, val in sorted(dict(labels).items())
            )
            label_text = "{" + inner + "}"
        self.lines.append(f"{name}{label_text} {_format_value(value)}")


def render_prometheus(snapshot: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a metrics snapshot as Prometheus text exposition.

    ``snapshot`` is the dict shape of ``QueryService.metrics_snapshot``
    (``counters`` / ``histograms`` required, the cache and service
    sub-dicts optional), so the renderer also works over a bare
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.
    """
    out = _Renderer(prefix)

    # -- counters ------------------------------------------------------
    counters: Dict[str, Any] = dict(snapshot.get("counters", {}))
    labeled: Dict[str, List[Tuple[str, str, Any]]] = {}
    plain: Dict[str, Any] = {}
    for name in sorted(counters):
        for registry_prefix, family, label_key in _LABELED_FAMILIES:
            if name.startswith(registry_prefix):
                label_value = name[len(registry_prefix):]
                labeled.setdefault(family, []).append(
                    (label_key, label_value, counters[name])
                )
                break
        else:
            plain[name] = counters[name]

    for name in sorted(plain):
        suffix = _sanitize(name)
        if not suffix.endswith("_total"):
            suffix += "_total"
        full = out.family(suffix, "counter", f"registry counter {name}")
        out.sample(full, plain[name])
    for family in sorted(labeled):
        full = out.family(family, "counter", f"labeled counter family {family}")
        for label_key, label_value, value in labeled[family]:
            out.sample(full, value, {label_key: label_value})

    # -- histograms as summaries --------------------------------------
    histograms: Dict[str, Dict[str, Any]] = snapshot.get("histograms", {})
    for name in sorted(histograms):
        data = histograms[name]
        full = out.family(
            _sanitize(name), "summary", f"latency summary {name} (seconds)"
        )
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            out.sample(full, data.get(key, 0.0), {"quantile": quantile})
        out.sample(f"{full}_sum", data.get("total", 0.0))
        out.sample(f"{full}_count", data.get("count", 0))

    # -- registry gauges ----------------------------------------------
    gauges: Dict[str, Any] = dict(snapshot.get("gauges", {}))
    for name in sorted(gauges):
        full = out.family(_sanitize(name), "gauge", f"registry gauge {name}")
        out.sample(full, gauges[name])

    # -- nested gauge groups (caches, service state) ------------------
    for group in ("result_cache", "bounds_cache", "service", "events"):
        values = snapshot.get(group)
        if not isinstance(values, Mapping):
            continue
        for key in sorted(values):
            value = values[key]
            if not isinstance(value, (int, float, bool)):
                continue
            full = out.family(
                _sanitize(f"{group}_{key}"), "gauge", f"{group} {key}"
            )
            out.sample(full, value)

    return "\n".join(out.lines) + "\n"


# ----------------------------------------------------------------------
# promtool-style validation
# ----------------------------------------------------------------------
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram|untyped)$"
)
#: Label values may contain any character, with ``\\``, ``\"`` and
#: ``\n`` escaped — mirror that instead of rejecting escapes outright.
_LABEL_VALUE = r'(?:[^"\\\n]|\\\\|\\"|\\n)*'
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"            # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="' + _LABEL_VALUE + r'"'  # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="' + _LABEL_VALUE + r'")*\})?'
    r" (NaN|[+-]Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)"
    r"( [0-9]+)?$"                          # optional timestamp
)


def validate_exposition(text: str) -> List[str]:
    """Check exposition text line by line; returns the problems found.

    Mirrors what ``promtool check metrics`` enforces at the lexical
    level: every line is a valid HELP/TYPE comment or sample, every
    sample's family was TYPE-declared first, and no family is declared
    twice — redeclaring a family with a *different* type (the shape of
    bug a merged multi-subsystem registry can produce) is flagged with
    both names so the offender is findable.  An empty list means the
    text scrapes cleanly.
    """
    problems: List[str] = []
    declared: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            if not _HELP_RE.match(line):
                problems.append(f"line {lineno}: malformed HELP: {line!r}")
            continue
        if line.startswith("# TYPE "):
            if not _TYPE_RE.match(line):
                problems.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue
            family, kind = line.split()[2:4]
            previous = declared.get(family)
            if previous is not None and previous != kind:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {family} with "
                    f"conflicting types ({previous}, then {kind})"
                )
            elif previous is not None:
                problems.append(f"line {lineno}: duplicate TYPE for {family}")
            declared[family] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment, legal
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = re.sub(r"_(sum|count|bucket)$", "", name)
        if name not in declared and base not in declared:
            problems.append(
                f"line {lineno}: sample {name!r} before its TYPE declaration"
            )
    return problems

