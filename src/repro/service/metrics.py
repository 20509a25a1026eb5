"""Re-export of :mod:`repro.obs.metrics`, the registry's home."""

from repro.obs.metrics import (
    HistogramSnapshot,
    LatencyHistogram,
    MetricsRegistry,
    percentile,
)

__all__ = ["HistogramSnapshot", "LatencyHistogram", "MetricsRegistry", "percentile"]
