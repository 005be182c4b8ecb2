"""The CMB module: the fast side's intake pipeline and credit counter.

Data path (Fig. 5 of the paper):

1. TLPs arriving from the PCIe system carry store contributions;
2. each contribution enters an SRAM intake **queue** whose size was
   pre-negotiated with the database — this size is the flow-control
   budget;
3. queued chunks move into the **backing memory** (SRAM or DRAM, see
   :mod:`repro.pm.backing`) in arrival order, paying its port bandwidth;
4. once a chunk reaches backing memory — never before — the **credit
   counter** advances, but only over *contiguous* stream bytes (the gap
   rule);
5. the host polls the counter over the control MMIO interface.

Writes are persistent once in backing memory (Section 4.1, "we offer the
following semantics").  The Transport module, when active, taps the intake
stream to mirror it to secondaries.

In hardware steps 2-4 are a pipeline whose per-chunk cost is bandwidth,
not control flow, and the model runs them the same way: as callbacks, with
no process per chunk.  A chunk that arrives to queue space, an empty wait
line and room in the PM ring issues its backing write inside
:meth:`CmbModule.receive`; the write's completion applies it to the ring
and returns its queue space.  Any other chunk joins one FIFO wait line,
which moves forward when queue space returns (a persisted chunk) or ring
room frees (destage).  A stopped module takes no chunks at all.
"""

from collections import deque

from repro.core.ring import RingOverflowError, SequencedRing
from repro.sim.engine import Event
from repro.sim.stats import Counter


class CmbModule:
    """The byte-addressable fast side of one X-SSD device."""

    def __init__(self, engine, backing, queue_bytes, name="cmb",
                 intake_bound_bytes=None):
        if queue_bytes <= 0:
            raise ValueError("intake queue size must be positive")
        if intake_bound_bytes is not None and intake_bound_bytes <= 0:
            raise ValueError("intake bound must be positive when set")
        self.engine = engine
        self.backing = backing
        self.queue_bytes = queue_bytes
        self.name = name
        # Overload protection: ``queue_bytes`` caps SRAM *occupancy*, but
        # chunks waiting for queue space pile up without limit.  The
        # intake bound caps that whole accepted-but-unpersisted backlog;
        # a chunk arriving past the bound is shed (posted MMIO writes
        # cannot be nacked) and its range stays missing until re-shipped,
        # exactly like a dropped TLP.  None = unbounded (the default).
        self.intake_bound_bytes = intake_bound_bytes
        self.intake_backlog_bytes = 0
        self.intake_backlog_peak = 0
        self.chunks_shed = 0
        self.bytes_shed = 0
        self.ring = SequencedRing(capacity=backing.capacity)
        self.credit = Counter(engine, name=f"{name}.credit")
        # Intake queue: free SRAM bytes, and the wait line of chunks that
        # could not persist on arrival, as (offset, nbytes, payload,
        # entered) in arrival order.  The first ``_granted`` of them hold
        # queue space and wait only for PM ring room; ``entered`` fires
        # when a chunk gets its space.
        self._queue_free = queue_bytes
        self._waiting = deque()
        self._granted = 0
        # What ``receive`` returns for a chunk that entered the queue on
        # arrival: one shared, already-fired event.
        self._entered = engine.event().succeed()
        self._intake_taps = []
        self._credit_watchers = []
        # Tracing: open intake spans keyed by stream offset (one span
        # covers a chunk's life from PCIe arrival to persistence).
        self._trace_tokens = {}
        # Chunks whose PM write is in flight (issued, not yet applied), as
        # (offset, nbytes, payload, write event).  They still occupy SRAM
        # queue space until the write completes, and the crash path can
        # salvage them (reserve energy finishes the moves).  Completions
        # apply strictly in FIFO order because they share one port.
        self._persisting = deque()
        self._running = False
        # Chunks that reached a stopped module (power already lost): they
        # are neither mirrored nor persisted.
        self.chunks_dropped_stopped = 0
        self.bytes_received = 0
        self.chunks_received = 0
        # Torn-write injection: when armed, the next arriving chunk loses
        # its tail on the wire (a WC buffer that flushed partially, a host
        # that died mid-store).  The missing bytes leave a gap the credit
        # counter can never cross until the range is re-shipped.
        self._torn_armed = 0
        self.torn_writes = 0
        # Chunks whose stream range conflicted with already-received data
        # (a retransmission racing the original over a slow link).  The
        # device discards them instead of crashing: the ring's strict
        # protocol check stays intact for genuine violations, while the
        # replication path tolerates duplicate delivery.
        self.chunks_discarded = 0

    # -- wiring -------------------------------------------------------------------

    def start(self):
        """Start taking chunks; resumes any left waiting by :meth:`stop`."""
        if self._running:
            raise RuntimeError("CMB module already started")
        self._running = True
        self._resume_waiting()

    def stop(self):
        """Take no more chunks and persist no waiting ones (power loss).

        PM writes already issued still complete.
        """
        self._running = False

    def tap_intake(self, callback):
        """Register ``callback(offset, nbytes, payload)`` on every arrival.

        The Transport module mirrors the write stream through this tap —
        the mirroring point is the CMB intake, per Fig. 6 step (1).
        """
        self._intake_taps.append(callback)

    def watch_credit(self, callback):
        """Register ``callback(value)`` fired when the credit advances."""
        self._credit_watchers.append(callback)

    def arm_torn_write(self, count=1):
        """Truncate the next ``count`` arriving chunks to half their bytes."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._torn_armed += count

    # -- device-side intake ----------------------------------------------------------

    def receive(self, offset, nbytes, payload=None):
        """Accept a write chunk arriving via PCIe; returns an enqueue event.

        The event fires when the chunk has entered the intake queue (space
        permitting).  Persistence happens later, asynchronously, when its
        backing write completes; the host learns about it from the credit
        counter.  A stopped module drops the chunk.
        """
        if nbytes <= 0:
            raise ValueError("chunks must carry at least one byte")
        if not self._running:
            # The device lost power while the chunk was on the wire.
            self.chunks_dropped_stopped += 1
            return self._entered
        tracer = self.engine.tracer
        if self._torn_armed and nbytes > 1:
            self._torn_armed -= 1
            self.torn_writes += 1
            nbytes = nbytes // 2  # the tail never arrived
            if tracer.enabled:
                tracer.instant(self.name, "torn-write", flow=offset,
                               nbytes=nbytes)
        if (self.intake_bound_bytes is not None
                and self.intake_backlog_bytes + nbytes
                > self.intake_bound_bytes):
            # Shed before any accounting or taps: a shed chunk was never
            # received, so it is neither mirrored nor recorded — its
            # stream range is simply missing, like a drop on the wire.
            self.chunks_shed += 1
            self.bytes_shed += nbytes
            if tracer.enabled:
                tracer.instant(self.name, "intake-shed", flow=offset,
                               nbytes=nbytes,
                               backlog=self.intake_backlog_bytes)
            return self.engine.timeout(0.0)
        self.intake_backlog_bytes += nbytes
        self.intake_backlog_peak = max(self.intake_backlog_peak,
                                       self.intake_backlog_bytes)
        self.bytes_received += nbytes
        self.chunks_received += 1
        if tracer.enabled:
            # One span per chunk: arrival on the wire -> persisted in PM.
            # A retransmission reuses the offset; the superseded span
            # stays open in the trace, which is exactly what happened.
            self._trace_tokens[offset] = tracer.begin(
                self.name, "intake", flow=offset, nbytes=nbytes,
            )
        for tap in self._intake_taps:
            tap(offset, nbytes, payload)
        ring = self.ring
        if (not self._waiting and nbytes <= self._queue_free
                and offset + nbytes <= ring.released + ring.capacity):
            # The uncontended pipeline: take queue space, start the PM
            # write.  (``_running`` was checked above.)
            self._queue_free -= nbytes
            self._persist(offset, nbytes, payload)
            return self._entered
        entered = Event(self.engine)
        self._waiting.append((offset, nbytes, payload, entered))
        self._resume_waiting()
        return entered

    def receive_tlp(self, tlp):
        """Adapter: unpack an MMIO TLP's contributions into :meth:`receive`.

        Contributions are ``(stream_offset, nbytes, payload)`` triples the
        host API attached in ``tlp.metadata`` (the simulator's stand-in for
        inferring stream position from the write address).
        """
        contributions = tlp.metadata.get("contributions")
        if contributions is None:
            # Raw traffic from a non-streamed source: treat the wire
            # address as the stream offset (first-lap semantics).
            contributions = [(tlp.address, tlp.payload, None)]
        last = None
        for offset, nbytes, payload in contributions:
            last = self.receive(offset, nbytes, payload)
        if last is None:
            # Carrier TLP with no logical data attached.
            last = self.engine.timeout(0.0)
        return last

    # -- queue -> backing memory ------------------------------------------------------

    def ring_space_freed(self):
        """Destage notification: the PM ring released some space."""
        if self._waiting:
            self._resume_waiting()

    def _resume_waiting(self):
        """Move the wait line forward, in order, as far as space allows.

        Queue space goes to waiting chunks strictly first come, first
        served.  A chunk holding space persists once the PM ring's window
        has room for it: space frees as the destage module moves the head
        to flash, and a stall keeps the chunk's queue space taken, which is
        exactly how back-pressure propagates to the host's credit budget.
        """
        if not self._running:
            return
        waiting = self._waiting
        while self._granted < len(waiting):
            nbytes = waiting[self._granted][1]
            if nbytes > self._queue_free:
                break
            self._queue_free -= nbytes
            waiting[self._granted][3].succeed()
            self._granted += 1
        ring = self.ring
        while self._granted:
            offset, nbytes, payload, _entered = waiting[0]
            if offset + nbytes > ring.released + ring.capacity:
                break
            waiting.popleft()
            self._granted -= 1
            self._persist(offset, nbytes, payload)

    def _persist(self, offset, nbytes, payload):
        # Writes pipeline on the backing port (its bandwidth serializes
        # them; per-access latency overlaps) and complete in FIFO order.
        write = self.backing.write(nbytes)
        self._persisting.append((offset, nbytes, payload, write))
        write.then(self._on_persisted)

    def _on_persisted(self, _event):
        offset, nbytes, payload, _write = self._persisting.popleft()
        self.intake_backlog_bytes = max(0, self.intake_backlog_bytes - nbytes)
        self._queue_free += nbytes
        tracer = self.engine.tracer
        token = self._trace_tokens.pop(offset, None)
        try:
            advanced = self.ring.write(offset, nbytes, payload)
        except RingOverflowError:
            advanced = 0
            self.chunks_discarded += 1
            if tracer.enabled:
                tracer.instant(self.name, "chunk-discarded", flow=offset,
                               nbytes=nbytes)
                if token is not None:
                    tracer.end(token, discarded=True)
        else:
            if tracer.enabled and token is not None:
                tracer.end(token, advanced=advanced)
        if advanced:
            value = self.credit.advance(advanced)
            if tracer.enabled:
                tracer.counter(self.name, "credit", value)
            for watcher in self._credit_watchers:
                watcher(value)
        if self._waiting:
            self._resume_waiting()

    # -- control interface --------------------------------------------------------------

    def read_credit(self):
        """The counter value as the control interface returns it (instant).

        The *latency* of polling is paid by the caller through the MMIO
        ``load`` on the control region; this accessor is the device-side
        register read.
        """
        return self.credit.value

    @property
    def in_flight_bytes(self):
        """Bytes received but not yet persisted (queue + gaps)."""
        return self.bytes_received - self.credit.value

    @property
    def queue_free_bytes(self):
        """Free space left in the SRAM intake queue (flow-control head-room)."""
        return self._queue_free

    def drain_pending_to_backing(self):
        """Synchronously flush queue contents into the ring (crash path).

        Used by the power-loss protocol: reserve energy lets the device
        finish moving the intake queue into PM without simulation time
        (the supercapacitor budget is modeled in
        :mod:`repro.core.crash`).  Returns the bytes made contiguous.

        Salvaged are the chunks in SRAM: PM writes in flight (their
        completions are void) and waiting chunks that hold queue space,
        in arrival order.  Chunks still waiting for queue space never
        reached SRAM and are lost with the power.
        """
        salvaged = []
        for offset, nbytes, payload, write in self._persisting:
            write.cancel()
            salvaged.append((offset, nbytes, payload))
        self._persisting.clear()
        for _ in range(self._granted):
            offset, nbytes, payload, _entered = self._waiting.popleft()
            salvaged.append((offset, nbytes, payload))
        self._waiting.clear()
        self._granted = 0
        self._queue_free = self.queue_bytes
        advanced = 0
        for offset, nbytes, payload in salvaged:
            try:
                advanced += self.ring.write(offset, nbytes, payload)
            except RingOverflowError:
                self.chunks_discarded += 1
        self.intake_backlog_bytes = 0
        if advanced:
            self.credit.advance(advanced)
        return advanced
