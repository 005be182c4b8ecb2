"""Pin the repo benchmark's simulated results at a tenth of its size.

``perfbench/run.py`` prints a ``digest=`` per workload: a hash of every
simulated result its seeded inputs produce (commit latencies, durable
acks, NAND bytes, SLO verdicts, ...).  A change that only makes the
simulator faster must leave those digests byte-identical; this test turns
that promise into a tier-1 check.  Each workload runs once per seed with
no extra reps (``seconds=0``) and no tracing.

Regenerate after an *intentional* change to simulated behaviour with::

    PYTHONPATH=src python tests/bench/test_perfbench_digests.py regen
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden" / "perfbench_digests.json"
WORKLOADS = ("tpcc-local", "fleet-chain", "diurnal-slo", "crash-check")
SEEDS = (1, 8191)
SCALE = 0.1


def _digest(name, seed):
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.run import run_workload

    result, lines = run_workload(name, seed, seconds=0, trace=0,
                                 scale=SCALE)
    assert result["correct"], (name, seed, result)
    match = re.search(r"digest=(\w+)", lines[0])
    assert match, lines[0]
    return match.group(1)


def _key(name, seed):
    return f"{name}@{seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_perfbench_digest_matches_golden(name, seed):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(name, seed) == golden[_key(name, seed)]


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    digests = {_key(name, seed): _digest(name, seed)
               for name in WORKLOADS for seed in SEEDS}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
