"""Per-layer attribution: simulated time per stage, host self-time per package.

Stage numbers merge the tracer's per-(track, span) histograms from a
``repro.obs.capture()`` session across every engine and component
instance, so a 4-node fleet reports one ``nand.program`` row, not one
per channel.  Host self-time comes from ``cProfile`` and is grouped by
the ``repro.<package>`` a function's file lives in.
"""

import cProfile
import os
import pstats

from repro.obs.histogram import LogHistogram

# stage name -> (span name, predicate on the track name)
STAGES = {
    "host.x_pwrite": ("x_pwrite", lambda track: track.startswith("host:")),
    "host.x_fsync": ("x_fsync", lambda track: track.startswith("host:")),
    "db.wal_flush": ("flush", lambda track: track == "wal"),
    "core.cmb_intake": ("intake", lambda track: track.endswith(".cmb")),
    "core.destage_program": ("page-program",
                             lambda track: track.endswith(".destage")),
    "core.mirror_ship": ("mirror-ship", lambda track: "->" in track),
    "ssd.destage_write": ("destage-write",
                          lambda track: track.endswith(".conv.scheduler")),
    "ssd.conventional_write": (
        "conventional-write",
        lambda track: track.endswith(".conv.scheduler")),
    "nand.program": ("program", lambda track: ".conv.ch" in track),
    "nand.read": ("read", lambda track: ".conv.ch" in track),
    "nand.erase": ("erase", lambda track: ".conv.ch" in track),
    "ftl.gc_collect": ("collect", lambda track: track.endswith(".conv.gc")),
    "pcie.ntb_mirror": ("mirror", lambda track: track.startswith("ntb:")),
    "pcie.ntb_counter_update": ("counter-update",
                                lambda track: track.startswith("ntb:")),
}

PACKAGES = ("sim", "db", "core", "pcie", "host", "ssd", "ftl", "nand", "pm",
            "cluster", "health", "slo", "check", "faults", "workloads")


def _merge(histograms):
    merged = LogHistogram()
    for histogram in histograms:
        for index, count in histogram.counts.items():
            merged.counts[index] = merged.counts.get(index, 0) + count
        merged.count += histogram.count
        merged.total += histogram.total
        merged.min = min(merged.min, histogram.min)
        merged.max = max(merged.max, histogram.max)
    return merged


def stage_metrics(tracers):
    """``<stage>.count``, ``.busy_ms`` and ``.p99_us`` for every stage.

    ``busy_ms`` sums span durations (simulated time the stage's
    instances spent busy, overlapping instances counted each);
    ``p99_us`` is the histogram's power-of-two bucket bound, so it is
    exact only to within a factor of two.
    """
    metrics = {}
    for stage, (span, on_track) in STAGES.items():
        merged = _merge(
            histogram
            for tracer in tracers
            for (track, name), histogram in tracer.histograms.items()
            if name == span and on_track(track)
        )
        metrics[f"{stage}.count"] = merged.count
        metrics[f"{stage}.busy_ms"] = merged.total / 1e6
        metrics[f"{stage}.p99_us"] = merged.quantile(0.99) / 1e3
    return metrics


def _layer_of(filename):
    marker = f"{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    package = filename[at + len(marker):].split(os.sep, 1)[0]
    return package if package in PACKAGES else "other"


def profile_call(function):
    """Run ``function()`` under cProfile; returns ``{layer.self_frac}``.

    Self-time of builtins (list appends, heap pushes) is charged to
    ``other``: cProfile attributes it to the builtin, not its caller.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        function()
    finally:
        profiler.disable()
    by_layer = dict.fromkeys(PACKAGES + ("other",), 0.0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        by_layer[_layer_of(filename)] += row[2]  # tottime
    total = sum(by_layer.values()) or 1.0
    return {f"{layer}.self_frac": seconds / total
            for layer, seconds in by_layer.items()}
