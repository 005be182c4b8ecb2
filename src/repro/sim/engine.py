"""The discrete-event engine: clock, timing-wheel event queue, processes.

The programming model follows the classic process-interaction style.  A
*process* is a generator that yields :class:`Event` objects; the engine
suspends the generator until the event triggers, then resumes it with the
event's value.  Example::

    def writer(engine, device):
        yield engine.timeout(100.0)           # wait 100 ns
        done = device.write(b"log record")    # returns an Event
        yield done                            # wait for the device
        print("persisted at", engine.now)

    engine = Engine()
    engine.process(writer(engine, device))
    engine.run()

Scheduling is two-tier.  Events triggered at the *current* instant — by
``succeed()``/``fail()``, process resumes, and zero-delay timeouts — go on a
plain FIFO deque (the *immediate queue*) and never touch the timer
structures; only future-dated timeouts pay for time ordering.  Same-instant
triggers dominate real workloads (every device completion fans out through
chains of them), so this keeps the hot path at deque-append/popleft cost.

Future timeouts live in a **hashed hierarchical timing wheel** instead of a
binary heap.  Time is bucketed into 1 ns ticks; four levels of 256 slots
cover a 2**32-tick block (~4.29 s of simulated time) and a small overflow
heap catches anything farther out.  Level selection is block-aligned — an
entry goes to the first level whose slot span contains both the target
tick and the wheel's current position (``tick ^ cur_tick`` picks it in one
branch ladder):

* level 0 — one slot per tick, the remainder of the current 256-tick
  block (the common device / retry / heartbeat range): insert is an O(1)
  list append + bitmask OR.
* levels 1–3 — each slot spans 2**8 / 2**16 / 2**24 ticks; entries cascade
  down one level when the wheel advances into their slot's span.
* overflow — a conventional ``(when, seq, event)`` min-heap for ticks
  outside the wheel's 2**32-tick block; entries migrate into the wheel as
  it approaches (every refill migrates first, so an overflow timer can
  never be outrun by a wheel timer at an earlier time).

Each level keeps a 256-bit occupancy bitmask (a Python int) so the wheel
skips empty slots in one ``(mask & -mask).bit_length()`` step rather than
ticking through them.  Draining a slot moves its entries — already a single
tick's worth at level 0 — into a sorted *batch* that the run loop sweeps in
one pass: one wheel slot drain, one callback sweep, which is what amortizes
per-event scheduling for NAND-channel and transport completions that land
on the same tick.  :meth:`Engine.at` goes one step further: completions
targeting the same *instant* share one event — one wheel entry and one
dispatch, however many waiters pile on — which is how the NAND channel's
cell timers batch, and how counter reporters that share an update period
share their ticks.  Reporters hold a tick only while their counter
moves: an idle one parks on a plain event and keeps nothing queued.

Determinism contract (chaos and checker replays depend on it, byte for
byte):

* Same-instant events fire in strict FIFO trigger order.  The immediate
  deque preserves it directly; timer entries carry a monotonically
  increasing sequence number and every slot/batch is ordered by
  ``(when, seq)``, so ties break on schedule order exactly as the seed
  engine's global heap did.
* A timer whose time equals the current instant was necessarily scheduled
  at an *earlier* instant, so it fires before anything in the immediate
  queue (the run loop sweeps the whole same-time batch before returning to
  immediates).
* Firing times are the exact float ``when`` the timeout was scheduled for —
  ticks only bucket entries, they never quantize the clock.

Timeout cancellation is lazy: :meth:`Event.cancel` marks the event and the
run loop discards it at drain time, so losing a timeout-vs-completion race
costs O(1).  To keep the WAL group-commit idiom (schedule + cancel nearly
every timer) from accumulating garbage, the engine counts cancelled
residents and opportunistically compacts the wheel and overflow heap when
more than half of the outstanding timers are dead.
"""

from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for modeled faults)."""


class NullTracer:
    """The disabled-observability default: every hook is a no-op.

    Model code calls ``engine.tracer.begin(...)`` & friends unconditionally
    (or, on per-chunk hot paths, behind an ``if tracer.enabled`` guard);
    with this object installed the cost is one attribute load and — at
    most — one empty method call, so simulations without tracing pay
    essentially nothing.  The real recorder lives in :mod:`repro.obs`;
    keeping the null object here means the kernel never imports it.
    """

    enabled = False
    __slots__ = ()

    def begin(self, track, name, flow=None, **args):
        return None

    def end(self, token, **args):
        pass

    def set_flow(self, token, flow):
        pass

    def instant(self, track, name, flow=None, **args):
        pass

    def counter(self, track, name, value):
        pass


NULL_TRACER = NullTracer()

# Process-wide tracer factory: when installed (see ``repro.obs.capture``),
# every Engine constructed afterwards gets ``factory(engine)`` as its
# tracer — which is how ``--trace`` reaches engines that benchmarks build
# internally.  ``None`` means every new engine gets the shared NULL_TRACER.
_tracer_factory = None


def set_tracer_factory(factory):
    """Install (or, with ``None``, remove) the process-wide tracer factory."""
    global _tracer_factory
    _tracer_factory = factory


def tracer_factory():
    return _tracer_factory


# Wheel geometry: 4 levels x 256 slots, 1 ns per level-0 tick.  The level
# thresholds compare ``tick ^ cur_tick`` (block-aligned selection); ticks
# outside the wheel's 2**32-tick block go to the overflow heap.
_SLOT_BITS = 8
_SLOTS = 1 << _SLOT_BITS  # 256
_L1_SPAN = 1 << (_SLOT_BITS * 2)  # 65536
_L2_SPAN = 1 << (_SLOT_BITS * 3)  # 16777216
_HORIZON = 1 << (_SLOT_BITS * 4)  # 4294967296 ticks ~= 4.29 s
# Compaction trigger: rebuild once this many cancelled timers are resident
# AND they outnumber the live ones (>50%).
_COMPACT_MIN_CANCELLED = 128


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through at most one transition: *pending* -> *triggered*.
    Once triggered it carries a ``value`` (or an exception to re-raise in
    waiters) and invokes its callbacks in registration order.
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_exception",
        "triggered",
        "_processed",
        "_cancelled",
        "_defused",
    )

    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exception = None
        self.triggered = False
        # True once the engine has popped the event and run its callbacks;
        # a `then()` registered after that point runs at the current instant.
        self._processed = False
        # Lazily-cancelled events are discarded at drain time instead of
        # being dug out of the queues.
        self._cancelled = False
        # A defused event's failure no longer counts as unhandled (set on
        # the losers of an AnyOf race when their waiter detaches).
        self._defused = False

    @property
    def value(self):
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value=None):
        """Trigger the event immediately with ``value``.

        On a cancelled event this is a no-op, so the losing side of a
        cancellation race does not need its own guard.
        """
        if self._cancelled:
            return self
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self._value = value
        self.engine._immediate.append(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception to re-raise in waiters."""
        if self._cancelled:
            return self
        if self.triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.triggered = True
        self._exception = exception
        self.engine._immediate.append(self)
        return self

    def cancel(self):
        """Withdraw the event: its callbacks will never run.

        Pending events stop accepting ``succeed()``/``fail()``; already
        triggered but not yet processed events are dropped lazily when the
        run loop reaches them (a cancelled timeout costs O(1), no queue
        surgery).  Cancelling an already-processed event is a no-op.  The
        caller is responsible for not leaving a process waiting forever on
        a cancelled event — cancel only events whose outcome nobody awaits
        anymore, e.g. the loser of a timeout-vs-completion race.
        """
        if self._processed:
            return self
        self._cancelled = True
        self.callbacks.clear()
        return self

    @property
    def cancelled(self):
        return self._cancelled

    def then(self, callback):
        """Register ``callback(event)`` to run when the event triggers."""
        if self._cancelled:
            return self
        if self._processed:
            # Callbacks already ran: run this one at the current instant via
            # the immediate queue so ordering relative to same-time
            # callbacks stays FIFO.
            holder = Event(self.engine)
            holder.callbacks.append(lambda _ev: callback(self))
            holder.succeed()
        else:
            self.callbacks.append(callback)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined Event.__init__: timeouts are the single hottest allocation
        # in timer-bound workloads and the super() call is measurable.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exception = None
        self.triggered = True
        self._processed = False
        self._cancelled = False
        self._defused = False
        self.delay = delay
        if delay == 0:
            # Zero-delay timeouts fire at the current instant: fast path.
            engine._immediate.append(self)
            return
        when = engine._now + delay
        tick = int(when)
        cur = engine._cur_tick
        if cur < tick and (tick ^ cur) < _SLOTS:
            # Level-0 fast path: the device/retry/heartbeat range (same
            # 256-tick block as the wheel position).  Inserts are plain
            # appends; the slot is sorted once at drain time, amortized
            # across every entry it holds.
            slot_entries = engine._l0[tick & 255]
            if not slot_entries:
                engine._occ0 |= 1 << (tick & 255)
            slot_entries.append((when, next(engine._sequence), self))
        else:
            engine._push_at(when, self)

    def cancel(self):
        if not self._cancelled and not self._processed and self.delay != 0:
            self._cancelled = True
            self.callbacks.clear()
            engine = self.engine
            cancelled = engine._cancelled_pending + 1
            engine._cancelled_pending = cancelled
            if cancelled >= engine._compact_check:
                engine._maybe_compact()
            return self
        return Event.cancel(self)


class Process(Event):
    """A running generator; itself an event that fires when the generator ends.

    The event value is the generator's return value.  An uncaught exception
    inside the generator propagates out of :meth:`Engine.run` (errors should
    never pass silently in a simulation — they indicate a modeling bug).
    """

    __slots__ = ("generator", "name")

    def __init__(self, engine, generator, name=None):
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event):
        """Advance the generator with the triggering event's outcome."""
        try:
            if event is None:
                target = self.generator.send(None)
            elif event._exception is not None:
                target = self.generator.throw(event._exception)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except SimulationError:
            raise
        except BaseException as error:  # modeled fault escaping the process
            # Fail the process event so a waiting parent re-raises it at its
            # own yield.  If nobody waits, the engine raises at processing
            # time — errors never pass silently.
            self.fail(error)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        target.then(self._resume)


class AllOf(Event):
    """Triggers once every event in ``events`` has triggered.

    Value is the list of individual event values, in the given order.
    """

    __slots__ = ("_pending_children", "_events")

    def __init__(self, engine, events):
        super().__init__(engine)
        self._events = list(events)
        self._pending_children = len(self._events)
        if self._pending_children == 0:
            self.succeed([])
            return
        for event in self._events:
            event.then(self._on_child)

    def _on_child(self, _event):
        self._pending_children -= 1
        if self._pending_children == 0 and not self.triggered:
            self.succeed([child.value for child in self._events])


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers; value is that event.

    When the first child fires, the remaining children are *detached*: the
    AnyOf's callback is removed from them and they are defused, so losing
    events carry no dead callback work and a loser that later fails is not
    treated as an unhandled fault (the race was already decided).
    """

    __slots__ = ("_children",)

    def __init__(self, engine, events):
        super().__init__(engine)
        self._children = list(events)
        for event in self._children:
            event.then(self._on_child)

    def _on_child(self, event):
        if self.triggered:
            return
        self.succeed(event)
        on_child = self._on_child
        for child in self._children:
            if child is event:
                continue
            child._defused = True
            try:
                child.callbacks.remove(on_child)
            except ValueError:
                # Already processed (same-instant tie) or cancelled; either
                # way there is nothing left to detach.
                pass
        self._children = ()


class Engine:
    """Owns the simulated clock and runs events in time order.

    Determinism: same-instant events fire in strict FIFO trigger order (the
    immediate deque preserves it directly; timer ties break on a
    monotonically increasing sequence number), so a run is exactly
    reproducible.
    """

    __slots__ = (
        "_now",
        "_immediate",
        "_cur_tick",
        "_l0",
        "_l1",
        "_l2",
        "_l3",
        "_occ0",
        "_occ1",
        "_occ2",
        "_occ3",
        "_overflow",
        "_batch",
        "_batch_pos",
        "_sequence",
        "_shared_ticks",
        "_cancelled_pending",
        "_compact_check",
        "tracer",
        # ``timeout`` is an instance slot, not a method: every engine
        # installs a per-instance closure (see
        # ``_install_timeout_fast_path``) and slot access keeps both the
        # closure lookup and the wheel fields it touches off dict paths.
        "timeout",
    )

    def __init__(self):
        self._now = 0.0
        # Tier 1: events triggered at the current instant, FIFO.
        self._immediate = deque()
        # Tier 2: the hierarchical timing wheel (see module docstring).
        # ``_cur_tick`` is the wheel's position; it never moves backwards.
        self._cur_tick = 0
        self._l0 = [[] for _ in range(_SLOTS)]
        self._l1 = [[] for _ in range(_SLOTS)]
        self._l2 = [[] for _ in range(_SLOTS)]
        self._l3 = [[] for _ in range(_SLOTS)]
        self._occ0 = 0
        self._occ1 = 0
        self._occ2 = 0
        self._occ3 = 0
        # Out-of-horizon timers: a plain (when, seq, event) min-heap.
        self._overflow = []
        # The slot currently being drained, sorted by (when, seq);
        # ``_batch_pos`` is the drain cursor.  Late inserts that land at or
        # behind the wheel position insort here to keep time order.
        self._batch = []
        self._batch_pos = 0
        self._sequence = count()
        # Shared same-instant events handed out by ``at()``: one wheel
        # entry per distinct instant, however many waiters pile on.
        self._shared_ticks = {}
        # Compaction bookkeeping: ``_cancelled_pending`` counts cancelled
        # timers still resident in the wheel/overflow/batch; once it
        # reaches ``_compact_check`` the next cancel takes an exact census
        # (``_maybe_compact``) and rebuilds if the dead outnumber the live.
        self._cancelled_pending = 0
        self._compact_check = _COMPACT_MIN_CANCELLED
        # Observability: the shared no-op tracer unless a capture session
        # is active (one assignment at construction; the run loop itself
        # never consults it, so tracing cannot tax the event hot path).
        factory = _tracer_factory
        self.tracer = NULL_TRACER if factory is None else factory(self)
        self._install_timeout_fast_path()

    def _install_timeout_fast_path(self):
        """Install ``timeout`` as a per-engine closure (the only definition).

        Timer creation is the hottest allocation in timer-bound workloads;
        the closure folds the factory method and ``Timeout.__init__`` into
        a single frame (no bound-method object, no type-call dispatch) and
        pre-binds the queue structures.  Semantics are identical to
        ``Timeout(engine, delay, value)``.
        """
        engine = self
        immediate = self._immediate
        l0 = self._l0
        next_seq = self._sequence.__next__
        new = Timeout.__new__

        def timeout(delay, value=None):
            event = new(Timeout)
            event.engine = engine
            event.callbacks = []
            event._value = value
            event._exception = None
            event.triggered = True
            event._processed = False
            event._cancelled = False
            event._defused = False
            event.delay = delay
            if delay <= 0:
                if delay == 0:
                    immediate.append(event)
                    return event
                raise SimulationError(f"negative timeout: {delay}")
            when = engine._now + delay
            tick = int(when)
            cur = engine._cur_tick
            if cur < tick and (tick ^ cur) < _SLOTS:
                slot_entries = l0[tick & 255]
                if not slot_entries:
                    engine._occ0 |= 1 << (tick & 255)
                slot_entries.append((when, next_seq(), event))
            else:
                engine._push_at(when, event)
            return event

        timeout.__doc__ = "Create an event triggering ``delay`` ns from now."
        self.timeout = timeout

    @property
    def now(self):
        """Current simulated time in nanoseconds."""
        return self._now

    # -- event construction ---------------------------------------------------

    def event(self):
        """Create a pending :class:`Event` owned by this engine."""
        return Event(self)

    def at(self, when):
        """Shared event firing at the absolute instant ``when`` (ns).

        Repeated calls with the same ``when`` — before it fires — return
        the *same* event, so any number of completions landing on one
        instant occupy a single wheel entry and are delivered in one
        callback sweep (batched same-tick completion delivery).  Waiters
        resume in registration order, which for independently created
        completions equals creation order, i.e. the FIFO order separate
        timeouts would have produced.  The event value is ``None``; do
        not ``cancel()`` a shared event — other waiters may hold it.
        """
        now = self._now
        if when < now:
            raise SimulationError(f"at() instant in the past: {when} < {now}")
        shared = self._shared_ticks
        event = shared.get(when)
        if event is not None and not event._processed \
                and not event._cancelled:
            return event
        if len(shared) >= 64:
            # Opportunistic purge of fired/stale instants keeps the memo
            # bounded without a per-fire hook on the run loop.
            for key in [k for k, v in shared.items()
                        if v._processed or v._cancelled or k < now]:
                del shared[key]
        event = Timeout.__new__(Timeout)
        event.engine = self
        event.callbacks = []
        event._value = None
        event._exception = None
        event.triggered = True
        event._processed = False
        event._cancelled = False
        event._defused = False
        event.delay = when - now
        if when == now:
            self._immediate.append(event)
        else:
            self._push_at(when, event)
        shared[when] = event
        return event

    def process(self, generator, name=None):
        """Start ``generator`` as a process; returns its completion event."""
        return Process(self, generator, name)

    def all_of(self, events):
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling internals --------------------------------------------------

    def _push_at(self, when, event):
        """Insert a new timer firing at ``when`` (general path).

        The level-0 fast path lives inline in ``Timeout.__init__``; this
        handles everything else: at-or-behind-the-wheel times (insort into
        the live batch), levels 1-3, and the overflow heap.
        """
        entry = (when, next(self._sequence), event)
        tick = int(when)
        cur = self._cur_tick
        if tick <= cur:
            # The wheel has already advanced onto (or past) this tick —
            # possible after run(until=...) parked with a batch loaded, or
            # for sub-tick delays.  Keep the batch sorted; (when, seq)
            # ordering lands the entry at or after the drain cursor.
            insort(self._batch, entry)
            return
        # Level selection is block-aligned: ``tick ^ cur`` tells the highest
        # differing bit, i.e. the first level whose slot span still contains
        # both the wheel position and the target tick.
        diff = tick ^ cur
        if diff < _SLOTS:
            slot = tick & 255
            self._l0[slot].append(entry)
            self._occ0 |= 1 << slot
        elif diff < _L1_SPAN:
            slot = (tick >> 8) & 255
            self._l1[slot].append(entry)
            self._occ1 |= 1 << slot
        elif diff < _L2_SPAN:
            slot = (tick >> 16) & 255
            self._l2[slot].append(entry)
            self._occ2 |= 1 << slot
        elif diff < _HORIZON:
            slot = (tick >> 24) & 255
            self._l3[slot].append(entry)
            self._occ3 |= 1 << slot
        else:
            heappush(self._overflow, entry)

    def _push_triggered(self, event):
        self._immediate.append(event)

    def _place(self, entry, cur, due):
        """Re-file an existing entry relative to wheel position ``cur``.

        Used by cascades and overflow migration; the entry keeps its
        original sequence number, so FIFO ties survive relocation.  Entries
        at or behind ``cur`` collect into ``due`` (the next batch).
        """
        tick = int(entry[0])
        if tick <= cur:
            due.append(entry)
            return
        diff = tick ^ cur
        if diff < _SLOTS:
            slot = tick & 255
            self._l0[slot].append(entry)
            self._occ0 |= 1 << slot
        elif diff < _L1_SPAN:
            slot = (tick >> 8) & 255
            self._l1[slot].append(entry)
            self._occ1 |= 1 << slot
        elif diff < _L2_SPAN:
            slot = (tick >> 16) & 255
            self._l2[slot].append(entry)
            self._occ2 |= 1 << slot
        else:
            slot = (tick >> 24) & 255
            self._l3[slot].append(entry)
            self._occ3 |= 1 << slot

    def _refill(self):
        """Advance the wheel to the next occupied tick and load its batch.

        Returns True with ``_batch``/``_batch_pos`` set when timers remain,
        False when every timer structure is empty.  Migrates in-horizon
        overflow entries first so an overflow timer can never be outrun by
        a wheel timer at an earlier time, then drains the earliest level-0
        slot, cascading levels 1-3 down (and jumping to the overflow
        minimum when the wheel is empty) as needed.
        """
        overflow = self._overflow
        cur = self._cur_tick
        due = []
        if overflow:
            # Migrate entries whose tick shares the wheel's 2**32-tick block
            # (block-aligned, like level selection).
            while overflow and (int(overflow[0][0]) ^ cur) < _HORIZON:
                entry = heappop(overflow)
                if entry[2]._cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._place(entry, cur, due)
        while True:
            if due:
                due.sort()
                self._batch = due
                self._batch_pos = 0
                self._cur_tick = cur
                return True
            occ = self._occ0
            if occ:
                slot = (occ & -occ).bit_length() - 1
                cur = (cur & -_SLOTS) | slot
                batch = self._l0[slot]
                self._l0[slot] = []
                self._occ0 = occ & ~(1 << slot)
                batch.sort()
                self._batch = batch
                self._batch_pos = 0
                self._cur_tick = cur
                return True
            occ = self._occ1
            if occ:
                slot = (occ & -occ).bit_length() - 1
                cur = (cur & -_L1_SPAN) | (slot << 8)
                entries = self._l1[slot]
                self._l1[slot] = []
                self._occ1 = occ & ~(1 << slot)
                for entry in entries:
                    if entry[2]._cancelled:
                        self._cancelled_pending -= 1
                    else:
                        self._place(entry, cur, due)
                continue
            occ = self._occ2
            if occ:
                slot = (occ & -occ).bit_length() - 1
                cur = (cur & -_L2_SPAN) | (slot << 16)
                entries = self._l2[slot]
                self._l2[slot] = []
                self._occ2 = occ & ~(1 << slot)
                for entry in entries:
                    if entry[2]._cancelled:
                        self._cancelled_pending -= 1
                    else:
                        self._place(entry, cur, due)
                continue
            occ = self._occ3
            if occ:
                slot = (occ & -occ).bit_length() - 1
                cur = (cur & -_HORIZON) | (slot << 24)
                entries = self._l3[slot]
                self._l3[slot] = []
                self._occ3 = occ & ~(1 << slot)
                for entry in entries:
                    if entry[2]._cancelled:
                        self._cancelled_pending -= 1
                    else:
                        self._place(entry, cur, due)
                continue
            # Wheel empty: jump to the overflow minimum, if any.
            while overflow and overflow[0][2]._cancelled:
                heappop(overflow)
                self._cancelled_pending -= 1
            if not overflow:
                self._cur_tick = cur
                return False
            cur = int(overflow[0][0])
            while overflow and (int(overflow[0][0]) ^ cur) < _HORIZON:
                entry = heappop(overflow)
                if entry[2]._cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._place(entry, cur, due)

    def _maybe_compact(self):
        """Census the timer structures; compact if >50% are cancelled.

        Called from ``Timeout.cancel`` when the cancelled count crosses
        ``_compact_check``.  The census is O(slots), not O(entries) — it
        sums slot lengths — so deferring it to a threshold keeps the
        per-insert and per-cancel paths free of live/dead accounting.
        """
        resident = (
            sum(map(len, self._l0))
            + sum(map(len, self._l1))
            + sum(map(len, self._l2))
            + sum(map(len, self._l3))
            + len(self._overflow)
            + (len(self._batch) - self._batch_pos)
        )
        if self._cancelled_pending * 2 > resident:
            self._compact_timers()
        else:
            # Mostly-live: back off geometrically so repeated cancels pay
            # for the next census only after meaningful growth.
            self._compact_check = self._cancelled_pending * 2

    def _compact_timers(self):
        """Rebuild the wheel + overflow heap dropping cancelled entries.

        Triggered opportunistically from ``Timeout.cancel`` once cancelled
        residents outnumber live ones, so the schedule-then-cancel idiom
        (WAL group commit, transport retry races) cannot grow the timer
        structures without bound.  The live batch is left untouched — the
        run loop holds references into it — so its cancelled entries are
        counted back into ``_cancelled_pending`` and dropped at drain time.
        """
        occs = []
        for level in (self._l0, self._l1, self._l2, self._l3):
            occ = 0
            for slot in range(_SLOTS):
                entries = level[slot]
                if not entries:
                    continue
                live = [e for e in entries if not e[2]._cancelled]
                level[slot] = live
                if live:
                    occ |= 1 << slot
            occs.append(occ)
        self._occ0, self._occ1, self._occ2, self._occ3 = occs
        overflow = [e for e in self._overflow if not e[2]._cancelled]
        heapify(overflow)
        self._overflow = overflow
        batch = self._batch
        self._cancelled_pending = sum(
            1
            for i in range(self._batch_pos, len(batch))
            if batch[i][2]._cancelled
        )
        self._compact_check = self._cancelled_pending + _COMPACT_MIN_CANCELLED

    # -- execution --------------------------------------------------------------

    def run(self, until=None):
        """Run events until the queues drain or the clock passes ``until``.

        Returns the final simulated time.  Events scheduled exactly at
        ``until`` still fire (the bound is inclusive).
        """
        # Local bindings for the hot loop: every name resolved here is one
        # dict lookup the per-event path no longer pays.
        immediate = self._immediate
        popleft = immediate.popleft
        now = self._now
        while True:
            if immediate:
                # Fast path: no timer access at all.  Timer entries at the
                # current instant cannot appear while immediates are being
                # processed (timers are strictly future when scheduled);
                # the batch sweep below already flushed any that existed.
                event = popleft()
                if event._cancelled:
                    continue
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = []
                if len(callbacks) == 1:
                    # One waiter is the overwhelmingly common case (a
                    # process resume or a single completion hook); skip
                    # the loop setup.
                    callbacks[0](event)
                elif callbacks:
                    for callback in callbacks:
                        callback(event)
                elif event._exception is not None and not event._defused:
                    # A failed event nobody waits on is an unhandled modeled
                    # fault; surface it instead of dropping it.
                    raise event._exception
                continue
            batch = self._batch
            pos = self._batch_pos
            if pos == len(batch):
                if not self._refill():
                    break
                batch = self._batch
                pos = 0
            # Skip a cancelled prefix before it can advance the clock.
            entry = batch[pos]
            while entry[2]._cancelled:
                self._cancelled_pending -= 1
                pos += 1
                if pos == len(batch):
                    break
                entry = batch[pos]
            self._batch_pos = pos
            if pos == len(batch):
                continue
            when = entry[0]
            if when != now:
                if when < now:
                    raise SimulationError(
                        "event queue went backwards in time"
                    )
                if until is not None and when > until:
                    self._now = until
                    return until
                self._now = now = when
            # Sweep every batch entry at this instant before touching the
            # immediate queue: they were scheduled at an earlier instant,
            # so they predate anything triggered while processing `now` —
            # this keeps global same-instant FIFO order exact, and turns a
            # slot full of same-tick completions into one callback sweep.
            size = len(batch)
            try:
                while True:
                    event = batch[pos][2]
                    pos += 1
                    if not event._cancelled:
                        event._processed = True
                        callbacks = event.callbacks
                        event.callbacks = []
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        elif callbacks:
                            for callback in callbacks:
                                callback(event)
                        elif (event._exception is not None
                              and not event._defused):
                            raise event._exception
                    else:
                        self._cancelled_pending -= 1
                    if pos == size or batch[pos][0] != when:
                        # ``size`` is a snapshot: a mid-sweep insort can only
                        # grow the batch at or after the cursor, so stopping
                        # at the stale size just re-enters the outer loop,
                        # which picks the sweep back up at the same instant.
                        break
            except BaseException:
                self._batch_pos = pos
                raise
            self._batch_pos = pos
            if pos == len(batch):
                # Fully drained: drop event references promptly.
                batch.clear()
                self._batch_pos = 0
        if until is not None and until > now:
            self._now = now = until
        return now

    def peek(self):
        """Time of the next scheduled event, or ``None`` if none is pending."""
        immediate = self._immediate
        while immediate and immediate[0]._cancelled:
            immediate.popleft()
        if immediate:
            return self._now
        batch = self._batch
        for i in range(self._batch_pos, len(batch)):
            if not batch[i][2]._cancelled:
                return batch[i][0]
        # Level order is time order: level 0 holds the current 256-tick
        # block, each higher level strictly later spans; within a level,
        # ascending slot index is ascending time.
        for level, occ in (
            (self._l0, self._occ0),
            (self._l1, self._occ1),
            (self._l2, self._occ2),
            (self._l3, self._occ3),
        ):
            while occ:
                slot = (occ & -occ).bit_length() - 1
                occ &= occ - 1
                best = None
                for entry in level[slot]:
                    if not entry[2]._cancelled and (
                        best is None or entry < best
                    ):
                        best = entry
                if best is not None:
                    return best[0]
        overflow = self._overflow
        while overflow and overflow[0][2]._cancelled:
            heappop(overflow)
            self._cancelled_pending -= 1
        if not overflow:
            return None
        return overflow[0][0]
