"""The flash channel: a shared bus in front of the dies on one channel.

Data phases (moving page bytes to or from a die) serialize on the channel
bus; cell phases (tPROG, tR, tBERS) run inside the die and overlap with
other dies' bus activity.  This split is what creates the scheduling
"gaps" that opportunistic destaging exploits (Section 4.3): while one
die's cells are busy programming, the bus is free to feed another die.

Die-level sequencing beyond the one-op lock — erase suspend/resume,
cache-program pipelining, multi-plane commands — is arbitrated by the
channel's :class:`~repro.nand.dies.DieResourceManager`; which of those
features is active is a :class:`~repro.nand.dies.DieQos` policy decision
shared with the write scheduler.
"""

from repro.nand.dies import DieResourceManager
from repro.nand.flash_array import FlashDie
from repro.sim.resources import BandwidthPipe


class Channel:
    """One channel: its bus plus the dies (ways) hanging off it.

    All operations follow the same acquire-die / bus-transfer / cell-time /
    release protocol and return an event carrying the operation result.
    An optional read ``fault_model`` (see :mod:`repro.nand.ecc`) can fail
    reads with uncorrectable errors; a wear-aware model receives the target
    block's erase and read-disturb counts.
    """

    def __init__(self, engine, geometry, timing, channel_id, fault_model=None,
                 qos=None, name=None):
        self.engine = engine
        self.geometry = geometry
        self.timing = timing
        self.channel_id = channel_id
        self.fault_model = fault_model
        self.name = name or f"ch{channel_id}"
        self.dies = [
            FlashDie(engine, geometry, timing, channel_id, way)
            for way in range(geometry.ways_per_channel)
        ]
        self.resources = DieResourceManager(
            engine, geometry, timing, self.dies, qos=qos
        )
        self.bus = BandwidthPipe(
            engine, timing.bus_bandwidth, name=f"ch{channel_id}.bus"
        )
        # Tracing hooks resolved once: ``engine.tracer`` is fixed for the
        # engine's lifetime, so the per-operation attribute chain (engine
        # -> tracer -> enabled) is wasted work on the data path.
        self._tracer = engine.tracer
        self._tracing = engine.tracer.enabled

    def die(self, way):
        return self.dies[way]

    @property
    def qos(self):
        return self.resources.qos

    # -- operations ---------------------------------------------------------

    def program(self, way, block, page, payload, nbytes=None, cache=False):
        """Program one page; event value is the physical (block, page).

        With ``cache=True`` the data phase loads the die's cache register
        and may overlap the previous program's cell phase (cache-program
        pipelining); the completion still means "this page is in the
        array".
        """
        if nbytes is None:
            nbytes = self.geometry.page_bytes
        proc = (self._cache_program_proc if cache else self._program_proc)
        return self.engine.process(
            proc(way, block, page, payload, nbytes),
            name=f"prog ch{self.channel_id} w{way}",
        )

    def program_multi(self, way, ops, cache=False):
        """Multi-plane program: one cell phase covers one page per plane.

        ``ops`` is ``[(block, page, payload, nbytes), ...]`` addressing
        distinct planes of one aligned stripe at the same page offset.
        Event value is the list of physical ``(block, page)`` pairs.
        """
        ops = [
            (block, page, payload,
             self.geometry.page_bytes if nbytes is None else nbytes)
            for block, page, payload, nbytes in ops
        ]
        self.resources.validate_multi_plane(
            [(block, page) for block, page, _payload, _nbytes in ops]
        )
        return self.engine.process(
            self._program_multi_proc(way, ops, cache),
            name=f"mprog ch{self.channel_id} w{way}",
        )

    def read(self, way, block, page):
        """Read one page; event value is the :class:`Page`."""
        return self.engine.process(
            self._read_proc(way, block, page),
            name=f"read ch{self.channel_id} w{way}",
        )

    def erase(self, way, block, op_class="host"):
        """Erase one block; event value is None.

        ``op_class`` tags the erase for QoS: erases whose class is in
        ``qos.suspendable_classes`` may be suspended by host reads.
        """
        return self.engine.process(
            self._erase_proc(way, [block], op_class,
                             self.timing.t_erase),
            name=f"erase ch{self.channel_id} w{way}",
        )

    def erase_multi(self, way, blocks, op_class="host"):
        """Multi-plane erase: one tBERS covers one block per plane."""
        self.resources.validate_multi_plane([(block, 0) for block in blocks])
        duration = self.timing.t_erase * self.timing.multiplane_erase_factor
        self.resources.multi_plane_erases += 1
        return self.engine.process(
            self._erase_proc(way, list(blocks), op_class, duration),
            name=f"merase ch{self.channel_id} w{way}",
        )

    # -- protocol -----------------------------------------------------------

    def _program_proc(self, way, block, page, payload, nbytes):
        die = self.dies[way]
        tracer = self._tracer
        token = None
        if self._tracing:
            # The flow id follows the destaged page's stream offset when
            # the payload carries one (DestagePage does); conventional
            # payloads trace without a flow arrow.
            token = tracer.begin(
                self.name, "program", way=way, block=block, page=page,
                flow=getattr(payload, "stream_offset", None), nbytes=nbytes,
            )
        yield self.resources.acquire(way)
        try:
            # Data phase first (bus), then the cell program (die-internal).
            yield self.bus.transfer(nbytes)
            die.program_page(block, page, payload, nbytes)
            # Cell time via the shared-instant event: programs on other
            # dies finishing at the same instant ride the same timer entry
            # and complete in one callback sweep.
            engine = self.engine
            yield engine.at(engine.now + self.timing.t_program)
        finally:
            self.resources.release(way)
            if token is not None:
                tracer.end(token)
        return (block, page)

    def _cache_program_proc(self, way, block, page, payload, nbytes):
        die = self.dies[way]
        resources = self.resources
        tracer = self._tracer
        token = None
        if self._tracing:
            token = tracer.begin(
                self.name, "cache-program", way=way, block=block, page=page,
                flow=getattr(payload, "stream_offset", None), nbytes=nbytes,
            )
        # The cache register takes the data phase while the cell array may
        # still be busy with the previous page; the slot frees as soon as
        # our cell phase begins, letting the next page's transfer overlap.
        slot = resources.cache_slot(way)
        yield slot.request()
        slot_held = True
        try:
            yield self.bus.transfer(nbytes)
            yield resources.acquire(way)
            try:
                die.program_page(block, page, payload, nbytes)
                slot.release()
                slot_held = False
                resources.cache_programs += 1
                engine = self.engine
                yield engine.at(engine.now + self.timing.t_program)
            finally:
                resources.release(way)
        finally:
            if slot_held:
                slot.release()
            if token is not None:
                tracer.end(token)
        return (block, page)

    def _program_multi_proc(self, way, ops, cache):
        die = self.dies[way]
        resources = self.resources
        tracer = self._tracer
        token = None
        if self._tracing:
            token = tracer.begin(
                self.name, "multi-plane-program", way=way,
                blocks=[block for block, _p, _d, _n in ops],
                page=ops[0][1],
                nbytes=sum(nbytes for _b, _p, _d, nbytes in ops),
            )
        slot = resources.cache_slot(way) if cache else None
        slot_held = False
        if slot is not None:
            yield slot.request()
            slot_held = True
        try:
            if slot is None:
                yield resources.acquire(way)
            try:
                # One data phase per plane serializes on the bus; the cell
                # phase is shared.
                for _block, _page, _payload, nbytes in ops:
                    yield self.bus.transfer(nbytes)
                if slot is not None:
                    yield resources.acquire(way)
                try:
                    for block, page, payload, nbytes in ops:
                        die.program_page(block, page, payload, nbytes)
                    if slot_held:
                        slot.release()
                        slot_held = False
                    resources.multi_plane_programs += 1
                    engine = self.engine
                    duration = (self.timing.t_program
                                * self.timing.multiplane_program_factor)
                    yield engine.at(engine.now + duration)
                finally:
                    if slot is not None:
                        resources.release(way)
            finally:
                if slot is None:
                    resources.release(way)
        finally:
            if slot_held:
                slot.release()
            if token is not None:
                tracer.end(token)
        return [(block, page) for block, page, _payload, _nbytes in ops]

    def _read_proc(self, way, block, page):
        die = self.dies[way]
        tracer = self._tracer
        token = None
        if self._tracing:
            token = tracer.begin(self.name, "read", way=way, block=block,
                                 page=page)
        grant = self.resources.read_grant(way)
        yield grant.event
        try:
            # Cell read first, then the data phase moves bytes out.
            engine = self.engine
            yield engine.at(engine.now + self.timing.t_read)
            if self.fault_model is not None:
                target = die.blocks[block]
                self.fault_model.check_read(
                    self.channel_id, way, block, page,
                    erase_count=target.erase_count,
                    read_count=target.read_count,
                )
            result = die.read_page(block, page)
            yield self.bus.transfer(result.nbytes or self.geometry.page_bytes)
        finally:
            self.resources.end_read(way, grant)
            if token is not None:
                tracer.end(token)
        return result

    def _erase_proc(self, way, blocks, op_class, duration):
        die = self.dies[way]
        tracer = self._tracer
        token = None
        if self._tracing:
            token = tracer.begin(self.name, "erase", way=way, blocks=blocks,
                                 op_class=op_class)
        yield self.resources.acquire(way)
        try:
            def erase_blocks():
                for block in blocks:
                    die.erase_block(block)

            yield from self.resources.run_erase(
                way, duration, op_class, erase_blocks
            )
        finally:
            self.resources.release(way)
            if token is not None:
                tracer.end(token)
        return None

    # -- introspection -------------------------------------------------------

    def idle_ways(self):
        """Ways with no operation running or queued (scheduling gaps)."""
        return [way for way, die in enumerate(self.dies) if die.is_idle]
