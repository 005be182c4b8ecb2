"""The Transport module: replicating the CMB stream across devices.

Data path (Fig. 6 of the paper): the primary's transport taps the CMB
intake, repackages each chunk as a TLP, and ships it over NTB to each
secondary — one mirror flow per secondary, each advancing at its own
pace.  A secondary's transport feeds arriving packets into its own CMB
module (so the secondary's persistence pipeline is identical to a local
write), and periodically reports its credit counter back to the primary,
which stores it in a *shadow counter*.

Control knobs:

* **role** — standalone / primary / secondary, switched at runtime via
  vendor-specific NVMe admin commands;
* **update period** — how often a secondary forwards its counter
  (Fig. 13's x-axis): frequent updates give the primary a fresh, tight
  view at the cost of interconnect bandwidth;
* **replication policy** — how the primary combines shadow counters into
  the value the database sees (:mod:`repro.core.replication`).

The counter reporter ticks on a grid of update periods and sends only
when its report value moved since the last send.  A tick that finds
nothing new parks the reporter on a wake event, with no timer pending,
so an idle replica costs no events.  Every input of the report value
pokes that event: a local credit advance, a successor's shadow update,
a peer added or removed, a role change or halt, and a new update
period.  The woken reporter steps its grid forward to the first tick at
or after the poke and goes on from there, so it sends at exactly the
instants a reporter ticking every period would.  The one exception is
an input that moves at a grid instant after a polling reporter would
already have ticked there: the parked reporter sees it one period
earlier.
"""

import enum

from repro.core.replication import EagerReplication
from repro.pcie.tlp import Tlp, TlpType
from repro.sim.rng import derive
from repro.sim.stats import Counter

# Wire size of one credit-counter update: an 8-byte counter value in a
# minimal memory-write TLP.
COUNTER_UPDATE_BYTES = 8

# Per-chunk repackaging cost in the mirror path: the transport rewrites
# the TLP's address for the peer's domain and re-queues it on the NTB
# port (Section 4.2 "the module repackages the traffic").
MIRROR_REPACKAGE_NS = 800.0

# Cost of composing and posting one counter-update TLP on the secondary.
COUNTER_UPDATE_COST_NS = 400.0


class TransportRole(enum.Enum):
    STANDALONE = "standalone"
    PRIMARY = "primary"
    SECONDARY = "secondary"


class MirrorFlow:
    """One primary->secondary replication stream.

    Chunks queue here and a dedicated pump ships them in order over the
    NTB port, so a slow secondary delays only its own flow (Section 4.2:
    "it allows each secondary to receive traffic at an independent
    pace").

    Sends observed as dropped at the link layer are retried with bounded
    exponential backoff (the PCIe data-link layer's replay, writ large):
    ``retry_limit`` extra attempts spaced ``retry_backoff_ns * 2**n``
    apart, each scaled by seeded jitter in [0.5, 1.5) so concurrent
    flows do not replay in lockstep.  The jitter stream comes from
    ``rng`` (derived from the device's ``transport_seed``), which keeps
    chaos runs byte-deterministic.  A chunk that exhausts its retries is
    *abandoned* — recorded so reconfiguration-time resync can re-ship
    the range — because an unbounded replay against a dead cable would
    wedge the flow forever.
    """

    def __init__(self, engine, peer_name, ntb_port, retry_limit=4,
                 retry_backoff_ns=5_000.0, rng=None, name=None):
        self.engine = engine
        self.peer_name = peer_name
        self.ntb_port = ntb_port
        self.retry_limit = retry_limit
        self.retry_backoff_ns = retry_backoff_ns
        self._rng = rng
        self.name = name or f"mirror->{peer_name}"
        self._backlog = []
        self._kick = engine.event()
        self.bytes_shipped = 0
        self.sends_retried = 0
        self.chunks_abandoned = []  # (offset, nbytes) given up after retries
        self.running = True

    def offer(self, offset, nbytes, payload):
        self._backlog.append((offset, nbytes, payload))
        if not self._kick.triggered:
            self._kick.succeed()

    def pump(self):
        # The tracer is fixed for the engine's lifetime; resolving it (and
        # its enabled flag) once keeps the per-chunk loop free of
        # attribute-chain lookups.
        tracer = self.engine.tracer
        tracing = tracer.enabled
        while self.running:
            if not self._backlog:
                if self._kick.triggered:
                    self._kick = self.engine.event()
                    continue
                yield self._kick
                continue
            offset, nbytes, payload = self._backlog.pop(0)
            token = None
            if tracing:
                # One span per mirrored chunk: repackage -> delivered (or
                # abandoned).  Flow id = stream offset, linking the span
                # to the primary's intake and the peer's intake.
                token = tracer.begin(self.name, "mirror-ship", flow=offset,
                                     nbytes=nbytes)
            yield self.engine.timeout(MIRROR_REPACKAGE_NS)
            attempt = 0
            while self.running:
                tlp = Tlp(
                    TlpType.MEMORY_WRITE,
                    address=offset,
                    payload=nbytes,
                    metadata={"contributions": [(offset, nbytes, payload)],
                              "kind": "mirror"},
                )
                delivered = yield self.ntb_port.send(tlp)
                if delivered is not None:
                    self.bytes_shipped += nbytes
                    if token is not None:
                        tracer.end(token, attempts=attempt + 1)
                        token = None
                    break
                if attempt >= self.retry_limit:
                    self.chunks_abandoned.append((offset, nbytes))
                    if token is not None:
                        tracer.instant(self.name, "chunk-abandoned",
                                       flow=offset, nbytes=nbytes)
                        tracer.end(token, abandoned=True,
                                   attempts=attempt + 1)
                        token = None
                    break
                self.sends_retried += 1
                if token is not None:
                    tracer.instant(self.name, "send-retried", flow=offset,
                                   attempt=attempt)
                backoff = self.retry_backoff_ns * (2 ** attempt)
                if self._rng is not None:
                    backoff *= 0.5 + self._rng.random()
                yield self.engine.timeout(backoff)
                attempt += 1


class TransportModule:
    """Role-aware replication engine of one X-SSD device."""

    def __init__(self, engine, cmb, name="transport",
                 update_period_ns=400.0, policy=None, seed=0):
        self.engine = engine
        self.cmb = cmb
        self.name = name
        # Pre-resolved tracing guard: the tracer never changes after the
        # engine is built, so the receive path pays zero attribute chains
        # per packet when tracing is off.
        self._tracer = engine.tracer
        self._tracing = engine.tracer.enabled
        self.role = TransportRole.STANDALONE
        self._update_period_ns = update_period_ns
        self.policy = policy or EagerReplication()
        # Root of every randomized decision this transport makes (today:
        # mirror-retry backoff jitter).  Scenario builders thread their
        # master seed through the device config so runs replay exactly.
        self.seed = seed
        self.ntb_port = None
        self._flows = {}  # peer name -> MirrorFlow
        self.shadow_counters = {}  # peer name -> Counter
        # When each peer's last counter update arrived, by peer name —
        # heartbeat evidence for the failure detectors (repro.health).
        self.update_arrival_ns = {}
        self._primary_port = None  # secondary: where counter updates go
        self._primary_name = None
        self._shadow_watchers = []
        self._tap_installed = False
        # Identity token of the live reporter loop (None: no reporter).  A
        # loop whose token was replaced retires after its final tick, so a
        # quick halt + set_secondary never leaves two loops reporting.
        self._reporter = None
        # The wake event a parked reporter waits on (None while it ticks).
        self._idle_wake = None
        cmb.watch_credit(lambda _value: self._poke_reporter())
        self.status_register = "ok"  # Section 7.1's transport status
        self.counter_updates_sent = 0
        self.counter_updates_received = 0
        self.corrupt_dropped = 0  # poisoned TLPs discarded at receive
        # A halted device no longer accepts packets: a dead replica's port
        # may still be cabled, but nothing behind it is listening.
        self.receiving = True
        self.dropped_while_down = 0
        # Replication history: every chunk that passed the intake tap,
        # retained while flows exist so a lagging or rejoining peer can be
        # resynced (the Section 7.1 reconfiguration step re-ships the
        # range the database knows the peer is missing; the simulator
        # keeps the chunks so tests can drive that step directly).
        self.history = []
        # Staleness detection: if a shadow counter lags the local counter
        # while no update arrives for this long, the replication path is
        # presumed broken and the status register flips to "stale".
        self.staleness_threshold_ns = 1_000_000.0  # 1 ms
        self._monitor_running = False

    # -- role management (driven by vendor admin commands) -------------------------

    def attach_ntb(self, port):
        """Give the transport its network adapter; installs the receive sink."""
        self.ntb_port = port
        port.attach_sink(self._on_ntb_packet)

    def attach_extra_port(self, port):
        """Route an additional port's traffic into this transport.

        Daisy-chained setups give a middle server two adapters: one toward
        its predecessor, one toward its successor.
        """
        port.attach_sink(self._on_ntb_packet)
        return port

    def set_standalone(self):
        self.role = TransportRole.STANDALONE
        for flow in self._flows.values():
            flow.running = False
        self._flows.clear()
        self.shadow_counters.clear()
        self._retire_reporter()
        return self.role

    def set_primary(self):
        if self.ntb_port is None:
            raise RuntimeError("attach an NTB port before becoming primary")
        self.role = TransportRole.PRIMARY
        self._retire_reporter()
        return self.role

    def set_secondary(self, primary_name):
        if self.ntb_port is None:
            raise RuntimeError("attach an NTB port before becoming secondary")
        self.role = TransportRole.SECONDARY
        self._primary_name = primary_name
        # Retain intake history even before any downstream flow exists: a
        # chain tail promoted to upstream at reattach time must be able to
        # re-ship the range a rejoining peer missed.
        if not self._tap_installed:
            self.cmb.tap_intake(self._on_local_write)
            self._tap_installed = True
        if self._reporter is None:
            self._reporter = token = object()
            self.engine.process(self._report_loop(token),
                                name=f"{self.name}-reporter")
        return self.role

    @property
    def update_period_ns(self):
        """How often a secondary forwards its counter (Fig. 13's x-axis)."""
        return self._update_period_ns

    @update_period_ns.setter
    def update_period_ns(self, period_ns):
        # Wake a parked reporter so it rejoins its grid under the old
        # period first: the new one applies from the step after the
        # pending one, as it would for a reporter that never parked.
        self._poke_reporter()
        self._update_period_ns = period_ns

    def start_staleness_monitor(self, check_period_ns=200_000.0):
        """Background detection of stalled replication (Section 7.1).

        When the database's data outruns a secondary's shadow counter and
        no update arrives within the staleness threshold, the status
        register flips to ``"stale"`` so pwrite/fsync implementations can
        stop spinning on a counter that will never move and escalate to
        reconfiguration instead.
        """
        if self._monitor_running:
            raise RuntimeError("staleness monitor already running")
        self._monitor_running = True
        return self.engine.process(
            self._staleness_monitor(check_period_ns),
            name=f"{self.name}-staleness",
        )

    def stop_staleness_monitor(self):
        self._monitor_running = False

    def _staleness_monitor(self, check_period_ns):
        while self._monitor_running:
            yield self.engine.timeout(check_period_ns)
            if self.role is not TransportRole.PRIMARY:
                continue
            local = self.cmb.credit.value
            now = self.engine.now
            stale = False
            for counter in self.shadow_counters.values():
                lagging = counter.value < local
                quiet_for = now - counter.last_advanced_at
                if lagging and quiet_for > self.staleness_threshold_ns:
                    stale = True
            self.status_register = "stale" if stale else "ok"

    def add_peer(self, peer_name, port=None):
        """Open a mirror flow toward ``peer_name`` (over ``port`` if given).

        Primaries mirror to every peer; a *secondary* with a peer is a
        chain intermediate — it forwards the stream it receives onward
        (Section 4.2's chain-replication wiring).
        """
        if self.role is TransportRole.STANDALONE:
            raise RuntimeError("standalone devices do not mirror to peers")
        if peer_name in self._flows:
            raise ValueError(f"peer {peer_name!r} already registered")
        if not self._tap_installed:
            self.cmb.tap_intake(self._on_local_write)
            self._tap_installed = True
        flow = MirrorFlow(self.engine, peer_name, port or self.ntb_port,
                          rng=derive(self.seed, "mirror-backoff", peer_name),
                          name=f"{self.name}->{peer_name}")
        self._flows[peer_name] = flow
        self.shadow_counters[peer_name] = Counter(
            self.engine, name=f"shadow:{peer_name}"
        )
        self._poke_reporter()  # a fresh successor shadow reads 0
        self.engine.process(flow.pump(), name=f"mirror->{peer_name}")
        return flow

    def remove_peer(self, peer_name):
        """Tear down the mirror flow toward ``peer_name`` (dead or dropped).

        The flow's pump stops, the shadow counter is forgotten, and the
        visible counter immediately stops waiting on the departed peer —
        the transport half of the Section 7.1 reconfiguration flow.
        """
        flow = self._flows.pop(peer_name, None)
        if flow is None:
            raise KeyError(f"no mirror flow toward {peer_name!r}")
        flow.running = False
        if not flow._kick.triggered:
            flow._kick.succeed()
        self.shadow_counters.pop(peer_name, None)
        self.update_arrival_ns.pop(peer_name, None)
        self._poke_reporter()
        return flow

    def resync_peer(self, peer_name, from_offset=0, skip_offsets=()):
        """Re-ship retained history chunks at/after ``from_offset``.

        ``skip_offsets`` names chunk starts the peer already holds parked
        beyond its gap (duplicates would be discarded at the peer anyway;
        skipping them saves wire bandwidth).  Chunks straddling
        ``from_offset`` are re-shipped from the missing byte onward.
        Returns the number of bytes offered.
        """
        flow = self._flows.get(peer_name)
        if flow is None:
            raise KeyError(f"no mirror flow toward {peer_name!r}")
        skip = set(skip_offsets)
        offered = 0
        for offset, nbytes, payload in self.history:
            end = offset + nbytes
            if end <= from_offset or offset in skip:
                continue
            if offset < from_offset:
                # Re-ship only the missing tail of a partially received
                # chunk (the torn-write case).
                flow.offer(from_offset, end - from_offset, payload)
                offered += end - from_offset
            else:
                flow.offer(offset, nbytes, payload)
                offered += nbytes
        return offered

    def halt(self):
        """Power loss: stop flows, reporting, monitoring, and receiving."""
        for flow in self._flows.values():
            flow.running = False
            if not flow._kick.triggered:
                flow._kick.succeed()
        self._retire_reporter()
        self._monitor_running = False
        self.receiving = False

    def restart_flows(self):
        """Replace halted mirror flows with fresh pumps (replica rejoin).

        Backlogged chunks of the dead flow are dropped — the rejoin
        protocol re-ships missing ranges from history instead, so the new
        pump starts clean.
        """
        self.receiving = True
        for peer_name, flow in list(self._flows.items()):
            if flow.running:
                continue
            fresh = MirrorFlow(
                self.engine, peer_name, flow.ntb_port,
                retry_limit=flow.retry_limit,
                retry_backoff_ns=flow.retry_backoff_ns,
                rng=flow._rng,  # continue the flow's jitter stream
                name=flow.name,
            )
            fresh.bytes_shipped = flow.bytes_shipped
            self._flows[peer_name] = fresh
            self.engine.process(fresh.pump(), name=f"mirror->{peer_name}")

    def watch_shadow(self, callback):
        """Register ``callback(peer_name, value)`` on shadow updates."""
        self._shadow_watchers.append(callback)

    # -- aggregate flow statistics ------------------------------------------------------

    @property
    def sends_retried(self):
        """Total link-layer retries across all mirror flows."""
        return sum(flow.sends_retried for flow in self._flows.values())

    @property
    def chunks_abandoned(self):
        """Chunks given up after exhausting retries, across all flows."""
        return [chunk for flow in self._flows.values()
                for chunk in flow.chunks_abandoned]

    # -- primary data path -----------------------------------------------------------

    def _on_local_write(self, offset, nbytes, payload):
        # Mirror whenever flows exist: a primary mirrors local writes,
        # a chain intermediate mirrors the stream it receives (its CMB
        # intake carries both cases — replication feeds the same intake).
        self.history.append((offset, nbytes, payload))
        for flow in self._flows.values():
            flow.offer(offset, nbytes, payload)

    # -- packet receive (both roles) ----------------------------------------------------

    def _on_ntb_packet(self, tlp):
        if not self.receiving:
            self.dropped_while_down += 1
            if self._tracing:
                self._tracer.instant(self.name, "dropped-while-down",
                                     address=tlp.address)
            return
        if tlp.metadata.get("corrupted"):
            # Failed end-to-end check: the packet never reaches the CMB.
            # Its stream range stays missing until re-shipped, exactly
            # like a drop — but the wire bandwidth was spent.
            self.corrupt_dropped += 1
            if self._tracing:
                self._tracer.instant(self.name, "corrupt-dropped",
                                     address=tlp.address)
            return
        kind = tlp.metadata.get("kind")
        if kind == "mirror":
            # Secondary: feed the mirrored write into the local CMB.
            self.cmb.receive_tlp(tlp)
        elif kind == "counter-update":
            peer = tlp.metadata["peer"]
            value = tlp.metadata["value"]
            self.counter_updates_received += 1
            self.update_arrival_ns[peer] = self.engine.now
            shadow = self.shadow_counters.get(peer)
            if shadow is not None:
                shadow.set_at_least(value)
                self._poke_reporter()
                if self._tracing:
                    self._tracer.counter(self.name, f"shadow:{peer}",
                                         shadow.value)
                for watcher in self._shadow_watchers:
                    watcher(peer, shadow.value)
        # Unknown kinds are ignored (forward compatibility).

    # -- secondary reporting loop ---------------------------------------------------------

    def _retire_reporter(self):
        """Stop the reporter after its pending tick (role change or halt)."""
        self._reporter = None
        self._poke_reporter()

    def _poke_reporter(self):
        """An input of the report value moved: wake a parked reporter."""
        wake = self._idle_wake
        if wake is not None:
            self._idle_wake = None
            wake.succeed()

    def _report_loop(self, token):
        engine = self.engine
        last_sent = self._report_value()  # nothing to say until it moves
        if self._reporter is not token:
            return
        due = engine.now
        period = self.update_period_ns
        while True:
            due += period
            while due < engine.now:
                # Back from parking: rejoin the grid by the same float
                # steps a reporter that never parked would have taken.
                due += period
            # Shared-instant wakeup: secondaries configured with the same
            # update period tick on the same instants, so a fleet of
            # reporters shares one timer entry per period instead of one
            # entry each.
            yield engine.at(due)
            value = self._report_value()
            if value == last_sent:
                period = self.update_period_ns
                if self._reporter is not token:
                    return
                # Every further tick would read the same value until an
                # input moves: park instead of ticking, and let the
                # input's poke resume the grid.
                self._idle_wake = wake = engine.event()
                yield wake
                continue
            last_sent = value
            self.counter_updates_sent += 1
            if self._tracing:
                self._tracer.instant(self.name, "counter-update-sent",
                                     value=value)
            yield engine.timeout(COUNTER_UPDATE_COST_NS)
            update = Tlp(
                TlpType.MEMORY_WRITE,
                address=0,
                payload=COUNTER_UPDATE_BYTES,
                metadata={
                    "kind": "counter-update",
                    "peer": self.name,
                    "value": value,
                },
            )
            yield self.ntb_port.send(update)
            if self._reporter is not token:
                return
            due = engine.now
            period = self.update_period_ns

    def _report_value(self):
        """What this secondary reports upstream.

        With a successor (chain topology) it relays the minimum of its own
        progress and the successor's shadow — which converges to the
        tail's counter, as chain replication requires.
        """
        own = self.cmb.credit.value
        if self.shadow_counters:
            successor = min(
                counter.value for counter in self.shadow_counters.values()
            )
            return min(own, successor)
        return own

    # -- the database-visible counter -------------------------------------------------------

    def visible_counter(self):
        """The credit value the control interface exposes under the policy."""
        shadows = {
            name: counter.value
            for name, counter in self.shadow_counters.items()
        }
        return self.policy.visible_counter(self.cmb.credit.value, shadows)
