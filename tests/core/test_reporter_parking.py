"""Differential tests: the parked counter reporter against the polling one.

A secondary forwards its credit counter upstream "periodically" (Section
4.2, Fig. 13).  The transport's reporter sleeps on a wake event while its
report value cannot change, instead of ticking every update period.
``PollingTransport`` below keeps the straightforward loop that ticks
forever as the reference: every scenario runs once with each, and the
counter-update streams every transport receives — ``(time, receiver,
peer, value)`` — must be identical.
"""

import pytest

from repro.cluster.topology import replicated_chain, replicated_pair
from repro.core import device as device_module
from repro.core.cmb import CmbModule
from repro.core.transport import (
    COUNTER_UPDATE_BYTES,
    COUNTER_UPDATE_COST_NS,
    TransportModule,
)
from repro.pcie.ntb import NtbBridge, NtbPort
from repro.pcie.tlp import Tlp, TlpType
from repro.pm.backing import sram_backing
from repro.sim import Engine
from repro.ssd.nvme import AdminOpcode

from tests.conftest import small_villars_config


class PollingTransport(TransportModule):
    """Reference reporter: wakes every update period, sends on change."""

    def _report_loop(self, token):
        engine = self.engine
        last_sent = self._report_value()  # nothing to say until it moves
        while self._reporter is not None:
            yield engine.at(engine.now + self.update_period_ns)
            value = self._report_value()
            if value == last_sent:
                continue
            last_sent = value
            self.counter_updates_sent += 1
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


def record_streams(monkeypatch, transport_cls):
    """Build devices with ``transport_cls``; return the arrival log."""
    arrivals = []
    receive = TransportModule._on_ntb_packet

    def recording(self, tlp):
        if tlp.metadata.get("kind") == "counter-update":
            arrivals.append((self.engine.now, self.name,
                             tlp.metadata["peer"], tlp.metadata["value"]))
        return receive(self, tlp)

    monkeypatch.setattr(TransportModule, "_on_ntb_packet", recording)
    monkeypatch.setattr(device_module, "TransportModule", transport_cls)
    return arrivals


def differential(scenario):
    """Run ``scenario()`` under both reporters; return the polled stream."""
    streams = []
    for transport_cls in (PollingTransport, TransportModule):
        with pytest.MonkeyPatch.context() as monkeypatch:
            arrivals = record_streams(monkeypatch, transport_cls)
            scenario()
            streams.append(arrivals)
    polled, parked = streams
    assert parked == polled
    assert polled, "the scenario sent no counter updates"
    return polled


def write(engine, server, record, nbytes, settle_ns=2_000_000.0):
    def proc():
        yield server.log.x_pwrite(record, nbytes)
        yield server.log.x_fsync()

    engine.process(proc())
    engine.run(until=engine.now + settle_ns)


def bursts(engine, server, count, gap_ns, nbytes=192):
    """``count`` writes with irregular gaps, none waiting on the last."""

    def proc():
        for index in range(count):
            yield engine.timeout(gap_ns * (1 + index % 3) + 37.5 * index)
            yield server.log.x_pwrite(f"w{index}", nbytes + 64 * (index % 4))
        yield server.log.x_fsync()

    engine.process(proc())
    engine.run(until=engine.now + 20_000_000.0)


@pytest.mark.parametrize("period_us", [0.4, 0.8, 1.2, 1.6])
def test_fig13_periods_match_polling(period_us):
    def scenario():
        engine = Engine()
        cluster = replicated_pair(
            engine,
            lambda: small_villars_config(
                transport_update_period_ns=period_us * 1_000.0))
        bursts(engine, cluster.primary, count=12, gap_ns=3_100.0)
        bursts(engine, cluster.primary, count=6, gap_ns=90_000.0)

    assert len(differential(scenario)) >= 6


def test_chain_peer_changes_on_intermediate_match_polling():
    """Dropping a cut-off tail lifts the middle's report to its own
    credit; re-adding it opens a fresh shadow at 0, so the report drops
    to 0 until the resynced tail catches up."""

    def scenario():
        engine = Engine()
        cluster = replicated_chain(engine, small_villars_config,
                                   secondaries=2)
        middle = cluster.servers["secondary-1"]
        transport = middle.device.transport
        write(engine, cluster.primary, "first", 512)
        cluster.bridges[1].sever()
        write(engine, cluster.primary, "beyond-the-cut", 256)
        transport.remove_peer("secondary-2")
        engine.run(until=engine.now + 1_000_000.0)
        cluster.bridges[1].restore()
        transport.add_peer("secondary-2", port=middle.right_port)
        engine.run(until=engine.now + 1_000_000.0)
        bursts(engine, cluster.primary, count=5, gap_ns=7_000.0)
        tail = cluster.servers["secondary-2"].device
        transport.resync_peer("secondary-2",
                              from_offset=tail.cmb.credit.value)
        engine.run(until=engine.now + 1_000_000.0)

    relayed = [value for _time, receiver, _peer, value
               in differential(scenario) if receiver == "primary"]
    dropped = relayed.index(0)
    assert relayed[dropped - 1] == 768  # the middle's own credit
    assert relayed[-1] > 768


def test_halt_and_restart_match_polling():
    """A crash mid-burst: the halted reporter's final tick reports what
    the reserve-energy drain salvaged; the rejoined one starts afresh."""

    def scenario():
        engine = Engine()
        cluster = replicated_pair(engine, small_villars_config)
        secondary = cluster.servers["secondary"]
        bursts(engine, cluster.primary, count=6, gap_ns=5_000.0)

        def crash_mid_burst():
            yield engine.timeout(9_250.0)
            secondary.crash()

        engine.process(crash_mid_burst())
        bursts(engine, cluster.primary, count=6, gap_ns=1_500.0)
        secondary.rejoin()
        cluster.resync("secondary")
        engine.run(until=engine.now + 5_000_000.0)
        bursts(engine, cluster.primary, count=6, gap_ns=4_000.0)

    differential(scenario)


def test_period_change_while_parked_matches_polling():
    def scenario():
        engine = Engine()
        cluster = replicated_pair(engine, small_villars_config)
        secondary = cluster.servers["secondary"].device
        bursts(engine, cluster.primary, count=4, gap_ns=3_000.0)
        # The reporter is parked now; retime it between grid instants.
        engine.run(until=engine.now + 1_234.5)
        engine.process(_admin(secondary, update_period_ns=1_600.0))
        engine.run(until=engine.now + 3_000_000.0)
        bursts(engine, cluster.primary, count=4, gap_ns=2_900.0)
        engine.process(_admin(secondary, update_period_ns=700.0))
        bursts(engine, cluster.primary, count=4, gap_ns=5_300.0)

    differential(scenario)


def _admin(device, **arguments):
    yield device.admin(AdminOpcode.XSSD_CONFIGURE, **arguments)


def make_bare_pair(period_ns):
    """Two CMB + transport stacks over one NTB bridge, no SSD behind.

    Built with the transport class devices use, so :func:`differential`
    swaps in the reference here too.
    """
    engine = Engine()
    stacks = []
    for name in ("primary", "secondary"):
        cmb = CmbModule(engine, sram_backing(engine, capacity=128 * 1024),
                        queue_bytes=64 * 1024, name=f"{name}.cmb")
        cmb.start()
        transport = device_module.TransportModule(
            engine, cmb, name=name, update_period_ns=period_ns)
        port = NtbPort(engine, name)
        transport.attach_ntb(port)
        stacks.append((cmb, transport, port))
    NtbBridge(engine, stacks[0][2], stacks[1][2])
    stacks[0][1].set_primary()
    stacks[0][1].add_peer("secondary")
    stacks[1][1].set_secondary("primary")
    return engine, stacks[1][1], stacks[1][0]


def test_halt_while_parked_reports_salvaged_credit():
    """Power loss mid-persist: the reserve-energy drain advances the
    credit without waking anyone, and the halted reporter's final tick
    still sends it, as the polling reporter's next tick did."""
    period, nbytes = 100.0, 4096

    def scenario():
        engine, transport, cmb = make_bare_pair(period)
        cmb.receive(0, nbytes, "in-flight")
        engine.run(until=3.5 * period)  # parked: nothing persisted yet
        assert cmb.credit.value == 0
        transport.halt()
        cmb.stop()
        assert cmb.drain_pending_to_backing() == nbytes
        engine.run(until=1_000_000.0)

    stream = differential(scenario)
    assert [value for _time, _receiver, _peer, value in stream] == [nbytes]


def test_credit_advance_on_a_tick_matches_polling():
    """The persist lands exactly on a grid instant, and its timer
    predates the polling reporter's tick there: both report it at once."""
    period, nbytes = 100.0, 4096
    engine, _transport, cmb = make_bare_pair(period)
    persisted = []
    cmb.watch_credit(lambda _value: persisted.append(engine.now))
    cmb.receive(0, nbytes, "probe")
    engine.run(until=1_000_000.0)
    latency = persisted[0]
    assert latency > period
    start = 30 * period - latency
    assert start + latency == 30 * period

    def scenario():
        engine, _transport, cmb = make_bare_pair(period)
        engine.run(until=start)
        cmb.receive(0, nbytes, "on-the-grid")
        engine.run(until=1_000_000.0)

    stream = differential(scenario)
    assert [value for _time, _receiver, _peer, value in stream] == [nbytes]


def test_quiesced_chain_schedules_nothing():
    """With no monitors attached, an idle chain's event queue empties:
    the parked reporters hold no timer."""
    engine = Engine()
    cluster = replicated_chain(engine, small_villars_config, secondaries=2)
    write(engine, cluster.primary, "settle", 768)
    engine.run(until=engine.now + 50_000_000.0)
    assert engine.peek() is None
    tail = cluster.servers["secondary-2"].device
    assert tail.transport.counter_updates_sent > 0
    # A parked reporter still answers the next write.
    sent = tail.transport.counter_updates_sent
    write(engine, cluster.primary, "again", 128)
    assert tail.transport.counter_updates_sent > sent
    primary = cluster.primary.device.transport
    assert primary.shadow_counters["secondary-1"].value == 768 + 128
