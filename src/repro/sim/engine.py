"""The discrete-event engine: clock, instant-heap event queue, processes.

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
structure; only future-dated timeouts pay for time ordering.  Same-instant
triggers dominate real workloads (every device completion fans out through
chains of them), so this keeps the hot path at deque-append/popleft cost.

Future timeouts live in an **instant heap**: a ``heapq`` of distinct float
instants (``_times``) plus a dict from each instant to the FIFO list of
the events due then (``_due``).  Scheduling a timer looks its instant up:
a new instant gets a fresh list and one ``heappush`` of a float; an
existing instant is a list append.  The run loop pops the head instant
and sweeps its whole list in one pass, so completions that land on one
instant cost one heap round-trip between them.  Float keys keep the heap
comparisons on the C fast path, with no ``(when, seq, event)`` tuples.

A hierarchical timing wheel preceded this structure and was removed
because real delays missed its fast level: they span 32–2048 ns
(fleet-chain: 26% in [2^5, 2^6) ns, 38% in [2^8, 2^9), 28% in
[2^9, 2^10)), while the wheel's level 0 covered only the rest of the
current 256 ns block, so most timers took the cascade path.

:meth:`Engine.at` goes one step further: completions targeting the same
instant share one *event* — one list entry and one
dispatch, however many waiters pile on — which is how the NAND channel's
cell timers batch, and how counter reporters that share an update period
share their ticks.  Reporters hold a tick only while their counter
moves: an idle one parks on a plain event and keeps nothing queued.

Determinism contract (chaos and checker replays depend on it, byte for
byte):

* Same-instant events fire in strict FIFO trigger order.  The immediate
  deque preserves it directly; an instant's list is in schedule order,
  so timer ties break exactly as a global ``(when, seq)`` heap would.
* A timer due at the current instant was scheduled at an earlier one, so
  it fires before anything in the immediate queue (the run loop sweeps
  the instant's whole list before returning to immediates).  A delay
  below the clock's float resolution is the exception: its timer lands
  on the current instant and fires after the immediates already queued.
* If a callback raises mid-sweep, the rest of the list goes back to the
  front of its instant and fires on the next ``run()``.
* Firing times are the exact float ``when`` the timeout was scheduled for.

Timeout cancellation is lazy: :meth:`Event.cancel` marks the event and the
run loop discards it at sweep time, so losing a timeout-vs-completion race
costs O(1); an instant whose events are all cancelled is dropped without
moving the clock.  To keep the WAL group-commit idiom (schedule + cancel
nearly every timer) from accumulating garbage, the engine counts cancelled
residents and compacts the lists when more than half of the outstanding
timers are dead.
"""

from collections import deque
from heapq import heapify, heappop, heappush


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


# Compaction trigger: rebuild once this many cancelled timers are resident
# AND they outnumber the live ones (>50%).
_COMPACT_MIN_CANCELLED = 128
_INF = float("inf")


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
        # One comparison on the common path: ``not delay > 0`` also catches
        # NaN; ``_push_at`` rejects an infinite instant.
        if not delay > 0:
            if delay == 0:
                # Zero-delay timeouts fire at the current instant: fast path.
                engine._immediate.append(self)
                return
            raise SimulationError(f"invalid timeout delay: {delay}")
        engine._push_at(engine._now + delay, self)

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
    immediate deque preserves it directly; each timer instant keeps its
    events in schedule order), so a run is exactly reproducible.
    """

    __slots__ = (
        "_now",
        "_immediate",
        "_times",
        "_due",
        "_shared_ticks",
        "_cancelled_pending",
        "_compact_check",
        "dispatched",
        "tracer",
        # ``timeout`` is an instance slot, not a method: every engine
        # installs a per-instance closure (see
        # ``_install_timeout_fast_path``) and slot access keeps both the
        # closure lookup and the queue fields it touches off dict paths.
        "timeout",
    )

    def __init__(self):
        self._now = 0.0
        # Tier 1: events triggered at the current instant, FIFO.
        self._immediate = deque()
        # Tier 2: the instant heap (see module docstring).  ``_times`` is a
        # min-heap of the distinct pending instants; ``_due`` maps each to
        # its events in schedule order.  Both keep their identity for the
        # engine's lifetime: ``run()`` binds them.
        self._times = []
        self._due = {}
        # Shared same-instant events handed out by ``at()``: one list
        # entry per distinct instant, however many waiters pile on.
        self._shared_ticks = {}
        # Compaction bookkeeping: ``_cancelled_pending`` counts cancelled
        # timers still resident in ``_due`` or in the list being swept;
        # once it reaches ``_compact_check`` the next cancel takes an exact
        # census (``_maybe_compact``) and rebuilds if the dead outnumber
        # the live.
        self._cancelled_pending = 0
        self._compact_check = _COMPACT_MIN_CANCELLED
        # Events whose callbacks the run loop has run (cancelled events
        # are skipped and not counted); updated when ``run()`` returns.
        self.dispatched = 0
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
        pre-binds ``_push_at``, the one push every timer goes through.
        Semantics are identical to ``Timeout(engine, delay, value)``.
        """
        engine = self
        immediate = self._immediate
        push_at = self._push_at
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
            if not delay > 0:
                if delay == 0:
                    immediate.append(event)
                    return event
                raise SimulationError(f"invalid timeout delay: {delay}")
            push_at(engine._now + delay, event)
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
        instant occupy a single list entry and are delivered in one
        callback sweep (batched same-instant completion delivery).  Waiters
        resume in registration order, which for independently created
        completions equals creation order, i.e. the FIFO order separate
        timeouts would have produced.  The event value is ``None``; do
        not ``cancel()`` a shared event — other waiters may hold it.
        """
        now = self._now
        if not when >= now:
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
        """File ``event`` under instant ``when``: the one push every timer
        takes.  Rejects an infinite instant (an infinite delay, or a finite
        one that overflows the clock)."""
        entries = self._due.get(when)
        if entries is not None:
            entries.append(event)
        elif when == _INF:
            raise SimulationError(f"infinite timeout instant: {when}")
        else:
            self._due[when] = [event]
            heappush(self._times, when)

    def _maybe_compact(self):
        """Census the timer lists; compact if >50% are cancelled.

        Called from ``Timeout.cancel`` when the cancelled count crosses
        ``_compact_check``.  The census sums list lengths, O(instants), so
        deferring it to a threshold keeps the per-insert and per-cancel
        paths free of live/dead accounting.
        """
        resident = sum(map(len, self._due.values()))
        if self._cancelled_pending * 2 > resident:
            self._compact_timers()
        else:
            # Mostly-live: back off geometrically so repeated cancels pay
            # for the next census only after meaningful growth.
            self._compact_check = self._cancelled_pending * 2

    def _compact_timers(self):
        """Rebuild ``_due``/``_times`` dropping cancelled entries.

        Triggered opportunistically from ``Timeout.cancel`` once cancelled
        residents outnumber live ones, so the schedule-then-cancel idiom
        (WAL group commit, transport retry races) cannot grow the timer
        structures without bound.  A list the run loop is sweeping is no
        longer in ``_due``; its cancelled entries stay counted and are
        dropped when the sweep reaches them.
        """
        due = self._due
        removed = 0
        for when, entries in list(due.items()):
            live = [event for event in entries if not event._cancelled]
            removed += len(entries) - len(live)
            if live:
                due[when] = live
            else:
                del due[when]
        times = self._times
        times[:] = [when for when in times if when in due]
        heapify(times)
        self._cancelled_pending -= removed
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
        times = self._times
        due = self._due
        now = self._now
        dispatched = self.dispatched
        try:
            while True:
                if immediate:
                    # Fast path: no timer access at all.  Timers at the
                    # current instant cannot be pending behind immediates
                    # that predate them: the sweep below flushes an
                    # instant's whole list before returning here.
                    event = popleft()
                    if event._cancelled:
                        continue
                    event._processed = True
                    dispatched += 1
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
                        # A failed event nobody waits on is an unhandled
                        # modeled fault; surface it instead of dropping it.
                        raise event._exception
                    continue
                if not times:
                    break
                when = times[0]
                entries = due[when]
                for event in entries:
                    if not event._cancelled:
                        break
                else:
                    # Only cancelled timers: drop the instant without
                    # moving the clock.
                    heappop(times)
                    del due[when]
                    self._cancelled_pending -= len(entries)
                    continue
                if until is not None and when > until:
                    self._now = until
                    return until
                heappop(times)
                del due[when]
                self._now = now = when
                # Sweep the whole instant before touching the immediate
                # queue: its timers were scheduled at an earlier instant,
                # so they predate anything triggered while processing
                # ``now`` — this keeps global same-instant FIFO order exact.
                try:
                    for event in entries:
                        if event._cancelled:
                            self._cancelled_pending -= 1
                            continue
                        event._processed = True
                        dispatched += 1
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
                except BaseException:
                    # Put the unswept rest back at the front of its
                    # instant, ahead of timers the sweep scheduled there.
                    rest = entries[entries.index(event) + 1:]
                    if rest:
                        later = due.get(when)
                        if later is None:
                            due[when] = rest
                            heappush(times, when)
                        else:
                            later[:0] = rest
                    raise
            if until is not None and until > now:
                self._now = now = until
            return now
        finally:
            self.dispatched = dispatched

    def peek(self):
        """Time of the next scheduled event, or ``None`` if none is pending."""
        immediate = self._immediate
        while immediate and immediate[0]._cancelled:
            immediate.popleft()
        if immediate:
            return self._now
        times = self._times
        due = self._due
        while times:
            when = times[0]
            entries = due[when]
            for event in entries:
                if not event._cancelled:
                    return when
            heappop(times)
            del due[when]
            self._cancelled_pending -= len(entries)
        return None
