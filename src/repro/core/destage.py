"""The Destage module: moving the CMB ring into NAND, opportunistically.

The module watches the CMB ring's contiguous data and bundles it into
flash pages, which it writes through the conventional side's scheduler as
``Source.DESTAGE`` requests into a dedicated LBA ring (Section 4.3,
Fig. 7).  Policy knobs:

* the **latency threshold**: if data has waited longer than the threshold
  but is less than a page's worth, destage it anyway, padding the page
  with filler;
* the scheduler's priority mode decides how destage programs compete with
  conventional writes (opportunistic destaging, Fig. 12).

The destaged area is itself a ring of LBAs: when it wraps, the head
advances (oldest log data is overwritten).  Head and tail are visible
through the log control interface; the secondary-side read path
(:func:`repro.host.api.x_pread`) uses them.
"""

from repro.ssd.scheduler import Source, WriteRequest

# Minimum wait quantum: floating-point clocks cannot represent arbitrarily
# small remainders near large timestamps, so a naive
# ``timeout(threshold - waited)`` can round to a zero-advance event and
# spin.  One nanosecond is far below anything we measure.
_MIN_WAIT_NS = 1.0


class DestagePage:
    """One flash page's worth of destaged log data (possibly padded)."""

    __slots__ = ("stream_offset", "chunks", "data_bytes", "filler_bytes")

    def __init__(self, stream_offset, chunks, data_bytes, filler_bytes):
        self.stream_offset = stream_offset
        self.chunks = chunks  # list of (offset, nbytes, payload)
        self.data_bytes = data_bytes
        self.filler_bytes = filler_bytes

    @property
    def end_offset(self):
        return self.stream_offset + self.data_bytes


class DestageModule:
    """Connects a CMB ring to the conventional side's flash."""

    def __init__(self, engine, cmb, scheduler, page_bytes,
                 lba_ring_start=0, lba_ring_blocks=4096,
                 latency_threshold_ns=50_000.0, max_outstanding_pages=32,
                 name="destage"):
        if lba_ring_blocks < 1:
            raise ValueError("destage ring needs at least one block")
        if max_outstanding_pages < 1:
            raise ValueError("need at least one outstanding destage page")
        self.engine = engine
        self.cmb = cmb
        self.scheduler = scheduler
        self.page_bytes = page_bytes
        self.lba_ring_start = lba_ring_start
        self.lba_ring_blocks = lba_ring_blocks
        self.latency_threshold_ns = latency_threshold_ns
        # Destaging pipelines across the flash array: up to this many page
        # programs in flight at once (the device's parallelism is what
        # lets the conventional side absorb the fast side's stream).
        self.max_outstanding_pages = max_outstanding_pages
        self.name = name
        # Pre-resolved tracing guard (the tracer is fixed per engine):
        # issue/completion run once per destaged page and should pay no
        # attribute chains when tracing is off.
        self._tracer = engine.tracer
        self._tracing = engine.tracer.enabled
        # Ring-of-LBAs state: sequence numbers count destaged pages forever;
        # the LBA is sequence % ring size.  head = oldest retained page.
        self.tail_sequence = 0  # next sequence to allocate
        self.durable_tail = 0  # sequences below this are readable on flash
        self.head_sequence = 0
        # Stream offset up to which data is safely on the conventional side.
        self.destaged_offset = 0
        self.pages_written = 0
        self.filler_bytes_total = 0
        # Out-of-order completion tracking (prefix rule, like the WAL's).
        self._outstanding = 0
        self._completed_pages = {}  # sequence -> DestagePage
        self._inflight_pages = {}  # sequence -> DestagePage (issued)
        # Tracing: open page-program spans keyed by sequence.
        self._trace_tokens = {}
        self._running = False
        self._kick = engine.event()
        # While the loop sleeps on a partial page: its deadline to destage
        # the page with filler anyway.  None otherwise.
        self._partial_deadline = None
        cmb.watch_credit(self._on_credit)

    # -- lifecycle -----------------------------------------------------------------

    def start(self):
        if self._running:
            raise RuntimeError("destage module already started")
        self._running = True
        return self.engine.process(self._loop(), name=f"{self.name}-loop")

    def stop(self):
        self._running = False
        self._wake()

    def _wake(self):
        if not self._kick.triggered:
            self._kick.succeed()

    def _on_credit(self, _value):
        """Wake the loop on a credit advance, unless it cannot act on it.

        A loop sleeping on a partial page re-decides on waking: it issues
        a page if the ring now holds a full one or the deadline is within
        the wait quantum, and otherwise waits again for the same deadline
        (more data does not move it).  When neither holds, the wake would
        only re-arm the same wait, so it is skipped.
        """
        deadline = self._partial_deadline
        if (deadline is not None
                and self.engine.now < deadline - _MIN_WAIT_NS
                and self.cmb.ring.consumable_bytes() < self.page_bytes):
            return
        self._wake()

    # -- the destage loop -----------------------------------------------------------

    def _loop(self):
        # Each pass decides from the ring, the outstanding page count and
        # the clock: issue a full page, issue a padded partial page whose
        # latency threshold has run out, or sleep.  Wakes come from page
        # completions, stop(), and credit advances; ``_on_credit`` drops
        # the credit wakes that cannot change the decision.
        waiting_since = None
        while self._running:
            if self._outstanding >= self.max_outstanding_pages:
                yield self._next_kick()
                continue
            available = self.cmb.ring.consumable_bytes()
            if available >= self.page_bytes:
                yield self.engine.process(self._issue_page())
                waiting_since = None
                continue
            if available > 0:
                if waiting_since is None:
                    waiting_since = self.engine.now
                deadline = waiting_since + self.latency_threshold_ns
                if self.engine.now >= deadline - _MIN_WAIT_NS:
                    # Partial page with filler to bound latency.
                    yield self.engine.process(self._issue_page())
                    waiting_since = None
                    continue
                # Wait for a full page or the threshold to expire; the
                # losing timer is cancelled so repeated kicks do not pile
                # dead timeout entries onto the timer queue.
                remaining = max(deadline - self.engine.now, _MIN_WAIT_NS)
                kick = self._next_kick()
                expiry = self.engine.timeout(remaining)
                self._partial_deadline = deadline
                yield self.engine.any_of([kick, expiry])
                self._partial_deadline = None
                expiry.cancel()
                continue
            waiting_since = None
            yield self._next_kick()

    def _next_kick(self):
        if self._kick.triggered:
            self._kick = self.engine.event()
        return self._kick

    def _issue_page(self):
        """Bundle the ring's head into one page and launch its program.

        Only the backing-memory read is awaited here (it orders the
        pipeline); the flash program itself proceeds concurrently with
        further issues, up to ``max_outstanding_pages``.
        """
        chunks = self.cmb.ring.consume(self.page_bytes)
        if not chunks:
            return
        total = sum(nbytes for _offset, nbytes, _payload in chunks)
        # The storage controller reads the backing memory directly (the
        # second of the two data movements of Section 5.1); on a DRAM
        # CMB this read contends with regular buffering traffic.
        yield self.cmb.backing.read(total)
        filler = max(0, self.page_bytes - total)
        page = DestagePage(
            stream_offset=chunks[0][0],
            chunks=chunks,
            data_bytes=total,
            filler_bytes=filler,
        )
        sequence = self.tail_sequence
        self.tail_sequence += 1
        if self.tail_sequence - self.head_sequence > self.lba_ring_blocks:
            self.head_sequence = self.tail_sequence - self.lba_ring_blocks
        lba = self.lba_ring_start + sequence % self.lba_ring_blocks
        self._outstanding += 1
        self._inflight_pages[sequence] = page
        tracer = self._tracer
        if self._tracing:
            # One span per destaged page, issue -> program completion; the
            # flow id is the page's stream offset, tying it back to the
            # CMB intake spans of the chunks it bundles.
            self._trace_tokens[sequence] = tracer.begin(
                self.name, "page-program", flow=page.stream_offset,
                sequence=sequence, lba=lba, data_bytes=total,
                filler_bytes=filler,
            )
            tracer.counter(self.name, "outstanding", self._outstanding)
        # The PM ring space is reclaimable as soon as the page is issued:
        # the in-flight program is covered by reserve energy (the crash
        # path emergency-completes issued pages), so the bytes no longer
        # need their ring slot.  Decoupling space from program completion
        # is what lets destaging pipeline deeper than the small SRAM ring.
        self.cmb.ring.release(page.end_offset)
        self.cmb.ring_space_freed()
        done = self.scheduler.enqueue(
            WriteRequest(
                source=Source.DESTAGE,
                lba=lba,
                payload=page,
                nbytes=self.page_bytes,  # a full flash page is programmed
            )
        )
        done.then(lambda _event, s=sequence, p=page: self._on_programmed(s, p))

    def _on_programmed(self, sequence, page):
        """Apply completions in sequence order (prefix rule)."""
        self._outstanding -= 1
        self._inflight_pages.pop(sequence, None)
        tracer = self._tracer
        if self._tracing:
            token = self._trace_tokens.pop(sequence, None)
            if token is not None:
                tracer.end(token)
            tracer.counter(self.name, "outstanding", self._outstanding)
        self._completed_pages[sequence] = page
        advanced = False
        while self.durable_tail in self._completed_pages:
            applied = self._completed_pages.pop(self.durable_tail)
            self.durable_tail += 1
            self.pages_written += 1
            self.filler_bytes_total += applied.filler_bytes
            # Durable prefix (space was already released at issue time).
            self.destaged_offset = applied.end_offset
            advanced = True
        if advanced and self._tracing:
            # The *publication* point: out-of-order completions only
            # become durable here, so this instant — not the program-done
            # span end — is the destage-ack transition checkers care
            # about.
            tracer.instant(self.name, "destage-ack",
                           flow=self.destaged_offset,
                           offset=self.destaged_offset,
                           tail=self.durable_tail)
        self._wake()

    @property
    def outstanding_pages(self):
        """Page programs issued to the scheduler but not yet completed."""
        return self._outstanding

    # -- crash path --------------------------------------------------------------------

    def destage_all_now(self):
        """Crash protocol: destage the full contiguous ring synchronously.

        Runs under reserve energy (Section 4.1, "Crash Consistency
        Behavior"): the device finishes destaging everything up to the
        first gap, then stops.  Returns the number of pages written.
        Simulation time does not advance — the host is already down; what
        matters is the post-reboot state.
        """
        pages = 0
        # First settle pages already consumed from the ring: completed
        # ones apply directly; in-flight programs finish under reserve
        # energy (their data would otherwise leave a hole in the stream).
        while (self.durable_tail in self._completed_pages
               or self.durable_tail in self._inflight_pages):
            sequence = self.durable_tail
            page = self._completed_pages.pop(
                sequence, None
            ) or self._inflight_pages.pop(sequence)
            lba = self.lba_ring_start + sequence % self.lba_ring_blocks
            if self.scheduler.ftl.table.lookup(lba) is None:
                self._emergency_program(lba, page)
            self.durable_tail = sequence + 1
            self.pages_written += 1
            self.filler_bytes_total += page.filler_bytes
            self.destaged_offset = page.end_offset
            self.cmb.ring.release(page.end_offset)
            pages += 1
        self._inflight_pages.clear()
        self._completed_pages.clear()
        # Then destage whatever contiguous data remains in the PM ring.
        while self.cmb.ring.consumable_bytes() > 0:
            chunks = self.cmb.ring.consume(self.page_bytes)
            total = sum(nbytes for _offset, nbytes, _payload in chunks)
            page = DestagePage(
                stream_offset=chunks[0][0],
                chunks=chunks,
                data_bytes=total,
                filler_bytes=max(0, self.page_bytes - total),
            )
            sequence = self.tail_sequence
            self.tail_sequence += 1
            if self.tail_sequence - self.head_sequence > self.lba_ring_blocks:
                self.head_sequence = self.tail_sequence - self.lba_ring_blocks
            lba = self.lba_ring_start + sequence % self.lba_ring_blocks
            # Bypass the scheduler: reserve energy powers a direct path.
            self.scheduler.ftl.table.unbind(lba)
            self._emergency_program(lba, page)
            self.durable_tail = max(self.durable_tail, sequence + 1)
            self.destaged_offset = page.end_offset
            self.cmb.ring.release(page.end_offset)
            pages += 1
        # Anything beyond the first gap is lost (consistent with the
        # credit counter the host saw); the crash injector accounts for
        # the dropped chunks.
        self.pages_written += pages
        return pages

    def _emergency_program(self, lba, page):
        """Zero-time program used only by the power-loss path."""
        ftl = self.scheduler.ftl
        channel_id, way, block, page_no = ftl.allocator.place()
        channel = ftl.channels[channel_id]
        die = channel.die(way)
        die.program_page(block, page_no, page, self.page_bytes)
        from repro.nand.geometry import PhysicalPageAddress

        ftl.table.bind(lba, PhysicalPageAddress(channel_id, way, block,
                                                page_no))

    # -- read path (for x_pread and secondaries) -----------------------------------------

    def read_page(self, sequence):
        """Read one destaged page by sequence number; returns an event.

        Raises ``IndexError`` for sequences outside [head, tail).
        """
        if not self.head_sequence <= sequence < self.durable_tail:
            raise IndexError(
                f"sequence {sequence} outside retained window "
                f"[{self.head_sequence}, {self.durable_tail})"
            )
        lba = self.lba_ring_start + sequence % self.lba_ring_blocks
        return self.scheduler.ftl.read(lba)
