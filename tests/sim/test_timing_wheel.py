"""Timing-wheel internals: cascade correctness at level boundaries,
far-future overflow, zero/negative delays, cancellation compaction, the
shared-instant (``Engine.at``) batching API, and differential determinism
against a reference heap scheduler."""

import heapq
import random
from itertools import count

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.engine import _COMPACT_MIN_CANCELLED


class TestLevelBoundaries:
    def test_order_across_level0_block_edge(self):
        engine = Engine()
        fired = []
        for delay in (257.5, 256.0, 255.0):
            engine.timeout(delay).then(lambda _e, d=delay: fired.append(d))
        engine.run()
        assert fired == [255.0, 256.0, 257.5]
        assert engine.now == 257.5

    def test_cascade_at_each_level_boundary(self):
        engine = Engine()
        fired = []
        delays = [
            255.0, 256.0, 257.0,                   # level 0 -> 1 edge
            65535.0, 65536.0, 65537.0,             # level 1 -> 2 edge
            2.0 ** 24 - 1, 2.0 ** 24, 2.0 ** 24 + 1,  # level 2 -> 3 edge
        ]
        for delay in delays:
            engine.timeout(delay).then(lambda _e, d=delay: fired.append(d))
        engine.run()
        assert fired == sorted(delays)

    def test_dense_sweep_across_cascade(self):
        """Every tick around a block boundary occupied: the cascade must
        not skip, reorder, or duplicate entries."""
        engine = Engine()
        fired = []
        for offset in range(240, 280):
            engine.timeout(float(offset)).then(
                lambda _e, o=offset: fired.append(o))
        engine.run()
        assert fired == list(range(240, 280))

    def test_same_instant_fifo_survives_cascade(self):
        """Two timers for one instant filed above level 0 keep their
        schedule order through relocation."""
        engine = Engine()
        order = []
        engine.timeout(70000.0).then(lambda _e: order.append("first"))
        engine.timeout(70000.0).then(lambda _e: order.append("second"))
        engine.run()
        assert order == ["first", "second"]


class TestFarFutureOverflow:
    def test_beyond_horizon_fires_after_near_timers(self):
        engine = Engine()
        fired = []
        far = 2.0 ** 32 + 7.0
        engine.timeout(far).then(lambda _e: fired.append("far"))
        engine.timeout(5.0).then(lambda _e: fired.append("near"))
        engine.run()
        assert fired == ["near", "far"]
        assert engine.now == far

    def test_overflow_timer_not_outrun_by_wheel_timer(self):
        """An overflow timer migrating into the wheel must still precede a
        wheel timer scheduled for a later instant."""
        engine = Engine()
        fired = []
        engine.timeout(2.0 ** 32 + 100.0).then(
            lambda _e: fired.append("overflow"))

        def hopper():
            yield engine.timeout(2.0 ** 32 - 10.0)
            engine.timeout(200.0).then(lambda _e: fired.append("wheel"))

        engine.process(hopper())
        engine.run()
        assert fired == ["overflow", "wheel"]

    def test_empty_wheel_jumps_to_overflow_minimum(self):
        engine = Engine()
        fired = []
        engine.timeout(2.0 ** 33).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [2.0 ** 33]


class TestEdgeDelays:
    def test_zero_delay_fires_at_current_instant(self):
        engine = Engine()
        fired = []
        engine.timeout(0.0).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]
        assert engine.now == 0.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-0.5)

    def test_subtick_delays_keep_exact_float_times(self):
        """Ticks bucket entries; they never quantize the clock."""
        engine = Engine()
        fired = []

        def proc():
            yield engine.timeout(0.25)
            fired.append(engine.now)
            yield engine.timeout(0.25)
            fired.append(engine.now)

        engine.process(proc())
        engine.run()
        assert fired == [0.25, 0.5]


class TestCompaction:
    def test_cancel_storm_reclaims_wheel_residents(self):
        engine = Engine()
        doomed = [
            engine.timeout(1000.0 + index)
            for index in range(4 * _COMPACT_MIN_CANCELLED)
        ]
        fired = []
        engine.timeout(50.0).then(lambda _e: fired.append("kept"))
        for event in doomed:
            event.cancel()
        total = (
            sum(map(len, engine._l0)) + sum(map(len, engine._l1))
            + sum(map(len, engine._l2)) + sum(map(len, engine._l3))
            + len(engine._overflow)
        )
        assert total == 1  # only the live timer survives compaction
        assert engine._cancelled_pending == 0
        engine.run()
        assert fired == ["kept"]
        assert engine.now == 50.0

    def test_cancel_storm_reclaims_overflow_residents(self):
        engine = Engine()
        doomed = [
            engine.timeout(2.0 ** 33 + index)
            for index in range(4 * _COMPACT_MIN_CANCELLED)
        ]
        for event in doomed:
            event.cancel()
        assert len(engine._overflow) == 0
        engine.run()
        assert engine.now == 0.0


class TestSharedInstant:
    def test_at_shares_one_event_per_instant(self):
        engine = Engine()
        first = engine.at(100.0)
        assert engine.at(100.0) is first
        assert engine.at(200.0) is not first

    def test_at_fires_all_waiters_in_registration_order(self):
        engine = Engine()
        order = []
        for tag in range(5):
            engine.at(50.0).then(lambda _e, t=tag: order.append(t))
        engine.run()
        assert order == [0, 1, 2, 3, 4]
        assert engine.now == 50.0

    def test_at_waiters_ride_the_first_registration_slot(self):
        engine = Engine()
        order = []
        engine.at(10.0).then(lambda _e: order.append("shared"))
        engine.timeout(10.0).then(lambda _e: order.append("timeout"))
        engine.at(10.0).then(lambda _e: order.append("shared-2"))
        engine.run()
        assert order == ["shared", "shared-2", "timeout"]

    def test_at_current_instant_fires_immediately(self):
        engine = Engine()
        fired = []
        engine.at(0.0).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]

    def test_at_in_the_past_rejected(self):
        engine = Engine()
        outcomes = []

        def proc():
            yield engine.timeout(5.0)
            with pytest.raises(SimulationError):
                engine.at(1.0)
            outcomes.append("checked")

        engine.process(proc())
        engine.run()
        assert outcomes == ["checked"]

    def test_at_memo_stays_bounded(self):
        engine = Engine()

        def proc():
            for _step in range(200):
                yield engine.at(engine.now + 1.0)

        engine.process(proc())
        engine.run()
        assert len(engine._shared_ticks) <= 65


# -- differential determinism --------------------------------------------------


class _WheelAdapter:
    """The real engine behind the schedule/cancel/run driver surface."""

    def __init__(self):
        self.engine = Engine()

    @property
    def now(self):
        return self.engine.now

    def schedule(self, delay, callback):
        return self.engine.timeout(delay).then(callback)

    def cancel(self, handle):
        handle.cancel()

    def run(self, until=None):
        self.engine.run(until=until)


class _HeapAdapter:
    """Reference scheduler: one global ``(when, seq)`` heap, lazy cancel.

    This is the seed kernel's ordering contract distilled to a dozen
    lines; the wheel must reproduce its firing log byte for byte.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = count()

    def schedule(self, delay, callback):
        entry = [self.now + delay, next(self._sequence), callback, True]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        entry[3] = False

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            when, _seq, callback, live = heapq.heappop(heap)
            if not live:
                continue
            self.now = when
            callback(None)
        if until is not None and until > self.now:
            self.now = until


def _random_delay(rng):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice((0.0, 0.25, 0.5, 1.0, 3.0))
    if roll < 0.60:
        return rng.uniform(1.0, 300.0)         # level 0/1 range
    if roll < 0.85:
        return rng.uniform(300.0, 70000.0)     # level 1/2 range
    if roll < 0.97:
        return rng.uniform(70000.0, 2.0 ** 25)  # level 2/3 range
    return 2.0 ** 32 + rng.uniform(0.0, 1000.0)  # overflow


def _drive(adapter, seed, rounds=600, segments=0):
    """Replay one seeded schedule of mixed-range timers with random
    cancellations; returns the (time, tag) firing log.

    With ``segments`` the run is cut into that many ``run(until=...)``
    stretches first; between stretches, with the clock parked, it
    schedules fresh timers and cancels random open ones (a parked clock
    can leave a loaded batch ahead of it), then runs to completion."""
    rng = random.Random(seed)
    log = []
    state = {"rounds": rounds, "open": []}

    def fire(tag):
        def callback(_event):
            log.append((adapter.now, tag))
            if state["rounds"] <= 0:
                return
            state["rounds"] -= 1
            schedule(_random_delay(rng), state["rounds"])
            if rng.random() < 0.3:
                cancel_one()

        return callback

    def schedule(delay, tag):
        state["open"].append(adapter.schedule(delay, fire(tag)))

    def cancel_one():
        victim = state["open"].pop(rng.randrange(len(state["open"])))
        adapter.cancel(victim)

    for tag in range(8):
        adapter.schedule(float(tag + 1), fire(-tag - 1))
    for segment in range(segments):
        adapter.run(until=adapter.now + _random_delay(rng))
        for extra in range(rng.randrange(4)):
            schedule(_random_delay(rng), f"s{segment}.{extra}")
        while state["open"] and rng.random() < 0.5:
            cancel_one()
    adapter.run()
    return log


class TestDifferentialDeterminism:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_wheel_matches_reference_heap(self, seed):
        assert _drive(_WheelAdapter(), seed) == _drive(_HeapAdapter(), seed)

    def test_wheel_replay_is_identical(self):
        assert _drive(_WheelAdapter(), 3) == _drive(_WheelAdapter(), 3)

    @pytest.mark.parametrize("seed", range(24))
    def test_segmented_runs_match_reference_heap(self, seed):
        """run(until=...) stretches with schedules and cancels between."""
        assert (_drive(_WheelAdapter(), seed, segments=40)
                == _drive(_HeapAdapter(), seed, segments=40))


class TestParkedClock:
    def test_timer_scheduled_behind_a_parked_batch_still_fires(self):
        """A cancelled far timer parked ahead of the clock must not hide
        timers scheduled behind it on later runs."""
        engine = Engine()
        fired = []
        far = engine.timeout(50_084.0)
        engine.run(until=10_000.0)
        far.cancel()
        engine.timeout(84.0)
        engine.run(until=20_000.0)
        engine.timeout(84.0).then(lambda _e: fired.append(engine.now))
        engine.timeout(148.0).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [20_084.0, 20_148.0]
