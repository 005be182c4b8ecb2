"""Timer-queue tests: firing order across wide delay ranges, far-future
and zero/negative/non-finite delays, cancellation compaction, instants
holding several or only cancelled timers, a callback raising mid-sweep,
the dispatched-event counter, the shared-instant (``Engine.at``) batching
API, and differential determinism against a reference heap scheduler.

The module predates the instant heap (it tested the timing wheel that
came before it); the level-boundary and overflow classes keep their names
and now pin firing order across those same delay ranges."""

import heapq
import math
import random
from itertools import count

import pytest

from repro.sim import Engine, SimulationError, Timeout
from repro.sim.engine import _COMPACT_MIN_CANCELLED


class TestLevelBoundaries:
    """Delays straddling 256 ns, 2**16 ns and 2**24 ns keep time order."""

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
        """Every nanosecond around 256 ns occupied: nothing is skipped,
        reordered, or duplicated."""
        engine = Engine()
        fired = []
        for offset in range(240, 280):
            engine.timeout(float(offset)).then(
                lambda _e, o=offset: fired.append(o))
        engine.run()
        assert fired == list(range(240, 280))

    def test_same_instant_fifo_survives_cascade(self):
        """Two timers for one far instant keep their schedule order."""
        engine = Engine()
        order = []
        engine.timeout(70000.0).then(lambda _e: order.append("first"))
        engine.timeout(70000.0).then(lambda _e: order.append("second"))
        engine.run()
        assert order == ["first", "second"]


class TestFarFutureOverflow:
    """Instants beyond 2**32 ns order like any other."""

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
        """A timer scheduled early for a far instant precedes one
        scheduled later for a still later instant."""
        engine = Engine()
        fired = []
        engine.timeout(2.0 ** 32 + 100.0).then(
            lambda _e: fired.append("early"))

        def hopper():
            yield engine.timeout(2.0 ** 32 - 10.0)
            engine.timeout(200.0).then(lambda _e: fired.append("late"))

        engine.process(hopper())
        engine.run()
        assert fired == ["early", "late"]

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

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, delay):
        """All three timer entry points raise the kernel's typed error and
        leave nothing queued."""
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(delay)
        with pytest.raises(SimulationError):
            Timeout(engine, delay)
        with pytest.raises(SimulationError):
            engine.at(delay)
        assert engine.peek() is None
        assert engine.run() == 0.0

    def test_delay_overflowing_to_an_infinite_instant_rejected(self):
        engine = Engine()
        engine.run(until=1e308)
        with pytest.raises(SimulationError):
            engine.timeout(1e308)
        with pytest.raises(SimulationError):
            Timeout(engine, 1e308)
        assert engine.peek() is None

    def test_subtick_delays_keep_exact_float_times(self):
        """Instants are exact floats; nothing quantizes the clock."""
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


def _resident(engine):
    return sum(map(len, engine._due.values()))


class TestCompaction:
    def test_cancel_storm_reclaims_dead_residents(self):
        engine = Engine()
        times = engine._times
        doomed = [
            engine.timeout(1000.0 + index)
            for index in range(4 * _COMPACT_MIN_CANCELLED)
        ]
        fired = []
        engine.timeout(50.0).then(lambda _e: fired.append("kept"))
        for event in doomed:
            event.cancel()
        assert _resident(engine) == 1  # only the live timer survives
        assert engine._times == [50.0]
        assert engine._times is times  # run() and timeout() bind it
        assert engine._cancelled_pending == 0
        engine.run()
        assert fired == ["kept"]
        assert engine.now == 50.0

    def test_cancel_storm_drops_emptied_instants(self):
        """Dead entries leave shared instants; instants left empty leave
        both ``_due`` and ``_times``, and the heap stays a heap."""
        engine = Engine()
        fired = []
        doomed = []
        for index in range(4 * _COMPACT_MIN_CANCELLED):
            doomed.append(engine.timeout(2.0 ** 33 + index % 8))
            if index == 5:
                engine.timeout(2.0 ** 33 + 5).then(
                    lambda _e: fired.append(engine.now))
        for event in doomed:
            event.cancel()
        assert list(engine._due) == [2.0 ** 33 + 5]
        assert engine._times == [2.0 ** 33 + 5]
        assert _resident(engine) == 1
        engine.run()
        assert fired == [2.0 ** 33 + 5]

    def test_compaction_during_a_sweep_keeps_the_census_exact(self):
        """Cancels that target the list being swept trigger compactions
        that cannot reach it; the sweep itself settles those entries."""
        engine = Engine()
        fired = []
        victims = []

        def cancel_the_rest(_event):
            for victim in victims:
                victim.cancel()

        engine.timeout(10.0).then(cancel_the_rest)
        for _ in range(3 * _COMPACT_MIN_CANCELLED):
            victims.append(engine.timeout(10.0))
        engine.timeout(20.0).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [20.0]
        assert engine._cancelled_pending == 0
        assert engine.dispatched == 2


class TestInstantLists:
    def test_cancelled_only_instant_moves_neither_clock_nor_peek(self):
        engine = Engine()
        for _ in range(3):
            engine.timeout(10.0).cancel()
        engine.timeout(30.0)
        assert engine.peek() == 30.0
        assert 10.0 not in engine._due
        assert engine._cancelled_pending == 0
        assert engine.now == 0.0

        engine = Engine()
        for _ in range(3):
            engine.timeout(10.0).cancel()
        assert engine.run() == 0.0
        assert engine.now == 0.0
        assert engine.peek() is None

    def test_cancelled_head_instant_does_not_stop_run_until(self):
        engine = Engine()
        engine.timeout(10.0).cancel()
        fired = []
        engine.timeout(15.0).then(lambda _e: fired.append(engine.now))
        assert engine.run(until=12.0) == 12.0
        assert fired == []
        engine.run()
        assert fired == [15.0]

    def test_raising_callback_leaves_the_rest_of_its_instant_queued(self):
        engine = Engine()
        fired = []

        def boom(_event):
            fired.append("boom")
            raise RuntimeError("modeling bug")

        for tag in ("a", "b"):
            engine.timeout(10.0).then(lambda _e, t=tag: fired.append(t))
        engine.timeout(10.0).then(boom)
        for tag in ("c", "d"):
            engine.timeout(10.0).then(lambda _e, t=tag: fired.append(t))
        engine.timeout(20.0).then(lambda _e: fired.append("late"))
        with pytest.raises(RuntimeError):
            engine.run()
        assert fired == ["a", "b", "boom"]
        assert engine.now == 10.0
        assert engine.peek() == 10.0
        engine.run()
        assert fired == ["a", "b", "boom", "c", "d", "late"]

    def test_rest_of_a_raising_sweep_precedes_timers_it_scheduled(self):
        """At 2**60 ns a 1 ns delay rounds to the current instant, so the
        sweep can schedule onto the instant it is draining; the unswept
        rest keeps its place ahead of those."""
        start = 2.0 ** 60
        engine = Engine()
        engine.run(until=start)
        fired = []

        def boom(_event):
            engine.timeout(1.0).then(lambda _e: fired.append("scheduled"))
            raise RuntimeError("modeling bug")

        engine.timeout(1024.0).then(boom)
        engine.timeout(1024.0).then(lambda _e: fired.append("rest"))
        with pytest.raises(RuntimeError):
            engine.run()
        engine.run()
        assert fired == ["rest", "scheduled"]
        assert engine.now == start + 1024.0


class TestDispatchedCounter:
    def test_counts_dispatched_events_not_cancelled_ones(self):
        engine = Engine()
        engine.timeout(10.0)             # no waiter, still dispatched: 1
        engine.timeout(20.0).cancel()    # cancelled timer: 0
        engine.event().succeed()         # immediate: 1
        engine.timeout(0.0).cancel()     # cancelled immediate: 0

        def proc():
            yield engine.timeout(5.0)
            yield engine.at(7.0)

        # Bootstrap, the timeout, the shared at(7.0) event and the process
        # completion: four events, however many waiters share at(7.0).
        engine.process(proc())
        engine.at(7.0).then(lambda _e: None)
        assert engine.dispatched == 0
        engine.run(until=6.0)
        assert engine.dispatched == 3
        engine.run()
        assert engine.dispatched == 6

    def test_count_is_stored_when_a_callback_raises(self):
        engine = Engine()

        def boom(_event):
            raise RuntimeError("modeling bug")

        engine.event().succeed()
        engine.timeout(5.0)
        engine.timeout(5.0).then(boom)
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.dispatched == 3


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


class _EngineAdapter:
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
    lines; the engine must reproduce its firing log byte for byte.
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


def _random_delay(rng, now=None):
    """A delay over a wide mix of ranges.  Given the clock ``now``, three
    draws in four instead land on one of the next two multiples of 256 ns,
    so instants repeat and hold several timers (and cancels) each."""
    roll = rng.random()
    if now is not None and roll < 0.75:
        return (math.floor(now / 256.0) + rng.randint(1, 2)) * 256.0 - now
    roll = rng.random() if now is not None else roll
    if roll < 0.25:
        return rng.choice((0.0, 0.25, 0.5, 1.0, 3.0))
    if roll < 0.60:
        return rng.uniform(1.0, 300.0)
    if roll < 0.85:
        return rng.uniform(300.0, 70000.0)
    if roll < 0.97:
        return rng.uniform(70000.0, 2.0 ** 25)
    return 2.0 ** 32 + rng.uniform(0.0, 1000.0)


def _drive(adapter, seed, rounds=600, segments=0, shared=False):
    """Replay one seeded schedule of mixed-range timers with random
    cancellations; returns the (time, tag) firing log.

    With ``segments`` the run is cut into that many ``run(until=...)``
    stretches first; between stretches, with the clock parked, it
    schedules fresh timers and cancels random open ones, then runs to
    completion.  With ``shared`` half the delays hit repeated instants
    (see ``_random_delay``)."""
    rng = random.Random(seed)
    log = []
    state = {"rounds": rounds, "open": []}

    def delay():
        return _random_delay(rng, adapter.now if shared else None)

    def fire(tag):
        def callback(_event):
            log.append((adapter.now, tag))
            if state["rounds"] <= 0:
                return
            state["rounds"] -= 1
            schedule(delay(), state["rounds"])
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
        adapter.run(until=adapter.now + delay())
        for extra in range(rng.randrange(4)):
            schedule(delay(), f"s{segment}.{extra}")
        while state["open"] and rng.random() < 0.5:
            cancel_one()
    adapter.run()
    return log


class TestDifferentialDeterminism:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_wheel_matches_reference_heap(self, seed):
        assert _drive(_EngineAdapter(), seed) == _drive(_HeapAdapter(), seed)

    def test_wheel_replay_is_identical(self):
        assert _drive(_EngineAdapter(), 3) == _drive(_EngineAdapter(), 3)

    @pytest.mark.parametrize("seed", range(24))
    def test_segmented_runs_match_reference_heap(self, seed):
        """run(until=...) stretches with schedules and cancels between."""
        assert (_drive(_EngineAdapter(), seed, segments=40)
                == _drive(_HeapAdapter(), seed, segments=40))

    @pytest.mark.parametrize("seed", range(12))
    def test_shared_instants_match_reference_heap(self, seed):
        """Instants holding several timers, cancels inside one list, and
        parked-clock segments."""
        log = _drive(_EngineAdapter(), seed, segments=20, shared=True)
        assert log == _drive(_HeapAdapter(), seed, segments=20, shared=True)
        times = [when for when, _tag in log]
        assert len(times) - len(set(times)) > 50  # instants really repeat


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
