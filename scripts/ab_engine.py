"""Same-process A/B harness for engine micro-optimizations.

Loads the current ``repro.sim.engine`` source twice — once verbatim
(variant A) and once with a candidate patch applied (variant B) — then
alternates kernel workloads between them, taking best-of-N.  Alternating
in one process is the only trustworthy comparison on a machine with
large run-to-run frequency variance.

Usage: PYTHONPATH=src python scripts/ab_engine.py [rounds] [events]
with PATCHES edited inline below.
"""

import sys
import types


# Candidate (old, new) source replacements for variant B.  Edit inline
# when trying an optimization; empty means A/B the same source (a noise
# floor measurement).
PATCHES = []


def load_engine(name, code):
    mod = types.ModuleType(name)
    mod.__file__ = name
    exec(compile(code, name, "exec"), mod.__dict__)
    return mod


def run_ab(src_a, src_b, rounds=5, events=100000, workloads=None):
    from repro.bench import kernel

    runners = {
        "timeout-heavy": kernel.run_timeout_heavy,
        "same-instant": kernel.run_same_instant,
        "event-churn": kernel.run_event_churn,
        "timeout-cancel-heavy": kernel.run_timeout_cancel_heavy,
        "fleet-scale": kernel.run_fleet_scale,
    }
    if workloads:
        runners = {k: runners[k] for k in workloads}
    mod_a = load_engine("engine_variant_a", src_a)
    mod_b = load_engine("engine_variant_b", src_b)
    best = {}
    for _ in range(rounds):
        for tag, mod in (("A", mod_a), ("B", mod_b)):
            for wl, runner in runners.items():
                rate, _ = runner(mod.Engine, events)
                key = (wl, tag)
                best[key] = max(best.get(key, 0.0), rate)
    for wl in runners:
        a, b = best[(wl, "A")], best[(wl, "B")]
        print(
            f"{wl:>20}  A {a / 1e6:.3f}  B {b / 1e6:.3f}  "
            f"B/A {b / a:.3f}"
        )
    return best


if __name__ == "__main__":
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    events = int(sys.argv[2]) if len(sys.argv) > 2 else 100000
    src = open("src/repro/sim/engine.py").read()
    patched = src
    for old, new in PATCHES:
        assert old in patched, f"patch anchor missing: {old[:60]!r}"
        patched = patched.replace(old, new)
    run_ab(src, patched, rounds, events)
