"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: tpcc-local, fleet-chain, diurnal-slo, crash-check, or ``all``
(every workload in turn, one process, a result line each).

A run's fixed input is ``INPUTS`` seeded inputs of the workload, derived
from ``--seed``.  Each rep rebuilds the workload for one of them and
runs it; reps cycle through the inputs while one more rep of average
length ends within ``--seconds`` of host time, each input at least once.
Reps of one input must report identical simulated results (the run
compares digests).  Simulated metrics pool the inputs' samples; host
times add up, per input, the median over that input's reps.  Host times
are reference seconds: wall seconds rescaled by a calibration
interleaved with the work to a fixed host speed (see
``perfbench/calibrate.py``), because the shared host's own speed drifts
by more than the changes the benchmark must detect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: after the untraced reps it runs the first input once
under ``repro.obs.capture()`` (simulated time per pipeline stage) and
once under cProfile (host self-time per ``repro.<package>``), and
requires both to reproduce the untraced simulated results exactly.

Every line before the last is for people: each metric with its unit, its
clock (host = what the simulator costs, host-ref = the same in reference
seconds, sim = what the modelled X-SSD would do) and, beside each
percentile, its sample count.  The last line is the JSON result.  The
exit code is 1 if any correctness check failed, 2 if the program is not
there to run.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Seeded inputs per run.  Pooling three inputs steadies the seed-driven
# spread of the simulated tails; each input is one rep of host time.
INPUTS = 3
MAX_REPS = 40

# name -> (unit, clock, sample-count key or None)
END_TO_END = {
    "wall_ref_s": ("s", "host-ref", None),
    "setup_s": ("s", "host-ref", None),
    "peak_rss_mb": ("MB", "host", None),
    "commit_p50_us": ("us", "sim", "commits"),
    "commit_p99_us": ("us", "sim", "commits"),
    "sim_ktxn_per_s": ("ktxn/s", "sim", None),
    "slo_met_frac": ("fraction", "sim", None),
    "nand_bytes_per_log_byte": ("ratio", "sim", None),
    "durable_ack_p99_us": ("us", "sim", "durable_acks"),
}

SPANS = ("setup.inputs_s", "setup.stack_s", "setup.populate_s",
         "verify.recover_s")


def _digest(results):
    blob = json.dumps(results, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Rep:
    """One rep of one input: host spans, simulated results, verdict.

    A rep with a ``run_wrapper`` (the profiled one) skips calibration,
    so its profile holds only the program; its host times are raw.
    """

    def __init__(self, workload_cls, seed, index, scale, run_wrapper=None,
                 capture=None):
        from perfbench.calibrate import HostClock

        gc.collect()
        self.index = index
        workload = workload_cls(seed * INPUTS + index, scale)
        clock = workload.clock = HostClock(calibrate=run_wrapper is None)
        clock.measure("setup.inputs_s", workload.inputs)
        if capture is not None:
            from perfbench.layers import stage_metrics

            with capture() as session:
                self._phases(workload, None)
            # Before verify: the engines keep tracing after the capture
            # ends, and verify's page read-back is not workload traffic.
            self.stage_metrics = stage_metrics(session.tracers)
        else:
            self.layer_frac = self._phases(workload, run_wrapper)
        self.results = workload.results()
        self.digest = _digest(self.results)
        self.failures = clock.measure("verify.recover_s", workload.verify)
        self.spans = {span: clock.reference[span] for span in SPANS}
        self.run_s = clock.reference["run"]
        self.raw_run_s = clock.raw["run"]
        self.call_s = clock.call_s.get("run")
        self.setup_s = sum(clock.reference[span] for span in SPANS[:3])
        self.raw_setup_s = sum(clock.raw[span] for span in SPANS[:3])
        self.attempted = self.results["offered"] + workload.schedules_run
        self.failed = (self.results["offered"] - self.results["acked"]
                       + len(self.failures))

    @staticmethod
    def _phases(workload, run_wrapper):
        clock = workload.clock
        clock.measure("setup.stack_s", workload.build)
        clock.measure("setup.populate_s", workload.populate)
        if run_wrapper is None:
            return clock.measure("run", workload.run)
        return clock.measure("run", lambda: run_wrapper(workload.run))


def _reps(workload_cls, seed, scale, seconds):
    """Reps grouped by input: every input once, then round-robin.

    A further rep starts only if a rep of average length still ends
    within ``seconds``, so a run of long reps does not overrun by one.
    """
    groups = [[] for _ in range(INPUTS)]
    start = time.perf_counter()
    count = 0
    while count < INPUTS or (
            (time.perf_counter() - start) * (count + 1) / count <= seconds
            and count < MAX_REPS):
        index = count % INPUTS
        groups[index].append(Rep(workload_cls, seed, index, scale))
        count += 1
    return groups


def _per_input_total(groups, value):
    """Sum over inputs of the median of ``value(rep)`` over its reps."""
    return sum(statistics.median(value(rep) for rep in group)
               for group in groups)


def run_workload(name, seed, seconds, trace, scale=1.0, import_s=0.0,
                 raw_import_s=0.0):
    """Measure one workload; returns ``(result dict, report lines)``."""
    from perfbench.workloads import WORKLOADS, summarize

    workload_cls = WORKLOADS[name]
    groups = _reps(workload_cls, seed, scale, seconds)
    firsts = [group[0] for group in groups]
    repeats = [(group[0], rep) for group in groups for rep in group[1:]]
    if trace:
        from perfbench.layers import profile_call
        from repro.obs import capture

        traced = Rep(workload_cls, seed, 0, scale, capture=capture)
        profiled = Rep(workload_cls, seed, 0, scale,
                       run_wrapper=profile_call)
        repeats += [(firsts[0], traced), (firsts[0], profiled)]
    # Reps of one input run the same seeded input, so their simulated
    # results must match exactly, traced and profiled reps too.
    mismatches = sum(1 for first, rep in repeats
                     if rep.digest != first.digest)
    problems = [failure for rep in firsts for failure in rep.failures]
    if mismatches:
        problems.append(f"{name}: {mismatches} reps' simulated results "
                        "differ from their input's first rep")
    sim = summarize([rep.results for rep in firsts])
    counts = firsts[0].results["counts"]
    reps = sum(len(group) for group in groups)
    digest = _digest([rep.digest for rep in firsts])
    lines = [f"# {name} seed={seed} inputs={INPUTS} reps={reps} "
             f"digest={digest}"]

    if trace:
        values = dict(profiled.layer_frac)
        values.update({
            span: _per_input_total(groups, lambda rep, span=span:
                                   rep.spans[span])
            for span in SPANS})
        values.update(traced.stage_metrics)
        values.update(counts)
        values["trace.overhead_ratio"] = traced.run_s / statistics.median(
            rep.run_s for rep in groups[0])
        values["perfbench.wall_raw_s"] = _per_input_total(
            groups, lambda rep: rep.raw_run_s)
        values["perfbench.setup_raw_s"] = raw_import_s + _per_input_total(
            groups, lambda rep: rep.raw_setup_s)
        values["perfbench.calibration_call_us"] = 1e6 * statistics.median(
            rep.call_s for group in groups for rep in group)
        metrics = {key: {"value": value, "unit": _layer_unit(key)}
                   for key, value in values.items()}
        lines.extend(f"{key:<34} {value:>14.6g} {_layer_unit(key)}"
                     for key, value in values.items())
    else:
        values = dict(sim)
        values["wall_ref_s"] = _per_input_total(groups,
                                                lambda rep: rep.run_s)
        values["setup_s"] = import_s + _per_input_total(
            groups, lambda rep: rep.setup_s)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {}
        for metric, (unit, clock, count_key) in END_TO_END.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
            beside = f"  n={sim[count_key]}" if count_key else ""
            lines.append(f"{metric:<26} {values[metric]:>14.6g} {unit:<9} "
                         f"{clock}{beside}")
        for span in SPANS:
            value = _per_input_total(groups, lambda rep: rep.spans[span])
            lines.append(f"{span:<26} {value:>14.6g} s         host-ref")
        lines.append(
            f"offered={sum(rep.results['offered'] for rep in firsts)} "
            f"acked={sum(rep.results['acked'] for rep in firsts)} "
            f"check.failures={counts['check.failures']} "
            f"admission_rejections={counts['health.admission_rejections']} "
            f"arrival_lateness_max_ns="
            f"{counts['sim.arrival_lateness_max_ns']} (counts: first input)")
    lines.extend(f"FAILED: {problem}" for problem in problems)
    failed = sum(rep.failed for rep in firsts) + (1 if mismatches else 0)
    result = {
        "correct": failed == 0,
        "attempted": sum(rep.attempted for rep in firsts),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


# Per-layer units, by name suffix (first match wins).
LAYER_UNITS = ((".count", "count"), ("_frac", "fraction"),
               ("_util", "fraction"), ("_ms", "ms"), ("_us", "us"),
               ("_ns", "ns"), ("_s", "s"), ("_ratio", "ratio"))


def _layer_unit(key):
    for suffix, unit in LAYER_UNITS:
        if key.endswith(suffix):
            return unit
    return "bytes" if "bytes" in key else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the benchmark's own tests "
                             "run reduced sizes); 1.0 is the benchmark")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench.calibrate import HostClock

    clock = HostClock()
    WORKLOADS = clock.measure(
        "import",
        lambda: importlib.import_module("perfbench.workloads").WORKLOADS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    ok = True
    for name in names:
        result, lines = run_workload(
            name, args.seed, args.seconds, args.trace, args.scale,
            clock.reference["import"], clock.raw["import"])
        for line in lines:
            print(line)
        print(json.dumps(result, sort_keys=True), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
