"""Tests for the CMB module: intake queue, persistence, credit counter."""

import pytest

from repro.core.cmb import CmbModule
from repro.pm.backing import sram_backing
from repro.sim import Engine


def make_cmb(queue_bytes=512, capacity=128 * 1024):
    engine = Engine()
    backing = sram_backing(engine, capacity=capacity)
    cmb = CmbModule(engine, backing, queue_bytes=queue_bytes)
    cmb.start()
    return engine, cmb


def test_write_persists_and_advances_credit():
    engine, cmb = make_cmb()

    def proc():
        yield cmb.receive(0, 100, "chunk")

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 100
    assert cmb.ring.frontier == 100


def test_credit_advances_only_after_backing_write():
    """Step (3) of Fig. 5: the counter increments after PM, never before."""
    engine, cmb = make_cmb()
    timeline = []
    cmb.watch_credit(lambda value: timeline.append((engine.now, value)))

    def proc():
        yield cmb.receive(0, 256, "c")

    engine.process(proc())
    engine.run()
    (when, value), = timeline
    assert value == 256
    # Persisting 256 bytes through a 4 B/ns port takes at least 64 ns
    # plus access latency; credit cannot appear before that.
    assert when >= 256 / 4.0


def test_out_of_order_chunks_hold_credit_back():
    engine, cmb = make_cmb()

    def proc():
        yield cmb.receive(100, 50, "later")
        yield engine.timeout(1_000.0)
        assert cmb.credit.value == 0  # gap rule
        yield cmb.receive(0, 100, "first")

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 150


def test_queue_full_defers_enqueue_not_data_loss():
    """A burst larger than the queue is absorbed as the drain frees space."""
    engine, cmb = make_cmb(queue_bytes=256)

    def proc():
        for i in range(8):
            yield cmb.receive(i * 128, 128, f"c{i}")

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 8 * 128


def test_in_flight_accounting():
    engine, cmb = make_cmb(queue_bytes=4096)
    samples = []

    def proc():
        yield cmb.receive(0, 1000, "x")
        samples.append(cmb.in_flight_bytes)

    engine.process(proc())
    # Run only until the enqueue finishes, before persistence completes.
    engine.run(until=1.0)
    if samples:
        assert samples[0] > 0
    engine.run()
    assert cmb.in_flight_bytes == 0


def test_receive_tlp_unpacks_contributions():
    from repro.pcie.tlp import Tlp, TlpType

    engine, cmb = make_cmb()
    tlp = Tlp(
        TlpType.MEMORY_WRITE, address=0, payload=64,
        metadata={"contributions": [(0, 32, "a"), (32, 32, "b")]},
    )

    def proc():
        yield cmb.receive_tlp(tlp)

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 64
    payloads = [p for _o, _n, p in cmb.ring.peek_ready()]
    assert payloads == ["a", "b"]


def test_intake_tap_sees_every_chunk():
    engine, cmb = make_cmb()
    seen = []
    cmb.tap_intake(lambda offset, nbytes, payload: seen.append(offset))

    def proc():
        yield cmb.receive(0, 10, "a")
        yield cmb.receive(10, 10, "b")

    engine.process(proc())
    engine.run()
    assert seen == [0, 10]


def test_drain_pending_to_backing_salvages_queue():
    engine, cmb = make_cmb(queue_bytes=4096)

    def proc():
        yield cmb.receive(0, 500, "queued")

    engine.process(proc())
    engine.run(until=1.0)  # chunk is enqueued, not yet persisted
    cmb.stop()
    salvaged = cmb.drain_pending_to_backing()
    assert salvaged == 500
    assert cmb.credit.value == 500


def test_zero_byte_chunk_rejected():
    engine, cmb = make_cmb()
    with pytest.raises(ValueError):
        cmb.receive(0, 0)


def test_invalid_queue_size_rejected():
    engine = Engine()
    backing = sram_backing(engine)
    with pytest.raises(ValueError):
        CmbModule(engine, backing, queue_bytes=0)


# -- contended intake: chunks that cannot persist on arrival ---------------------------


def test_chunks_waiting_for_queue_space_keep_fifo_order_and_credit():
    """Four 128 B chunks against a 256 B queue: two wait for space."""
    engine, cmb = make_cmb(queue_bytes=256)
    credits = []
    entered = []
    cmb.watch_credit(credits.append)
    for i in range(4):
        cmb.receive(i * 128, 128, f"c{i}").then(
            lambda _event, i=i: entered.append((i, engine.now)))
    engine.run()
    assert credits == [128, 256, 384, 512]
    assert [i for i, _when in entered] == [0, 1, 2, 3]
    assert entered[0][1] == entered[1][1] == 0.0
    # The waiting pair entered only once persisted chunks returned space.
    assert 0.0 < entered[2][1] <= entered[3][1]
    assert [p for _o, _n, p in cmb.ring.peek_ready()] == [
        "c0", "c1", "c2", "c3"]
    assert cmb.queue_free_bytes == 256
    assert cmb.in_flight_bytes == 0


def _fill_ring_and_stall(extra_chunks):
    """A 512 B ring, four 128 B chunks filling it, then ``extra_chunks``
    more that must wait for ring room (the queue itself has space)."""
    engine, cmb = make_cmb(queue_bytes=2048, capacity=512)
    for i in range(4 + extra_chunks):
        cmb.receive(i * 128, 128, f"c{i}")
    engine.run()
    assert cmb.credit.value == 512
    return engine, cmb


def _destage_head(cmb, nbytes):
    """Play the destage module: consume and release the ring's head."""
    taken = cmb.ring.consume(nbytes)
    cmb.ring.release(taken[-1][0] + taken[-1][1])
    return taken


def test_ring_room_stall_resumes_on_ring_space_freed():
    engine, cmb = _fill_ring_and_stall(extra_chunks=2)
    engine.run(until=engine.now + 100_000.0)
    assert cmb.credit.value == 512  # stalled, not lost, not overflowed
    assert cmb.in_flight_bytes == 256
    _destage_head(cmb, 256)
    cmb.ring_space_freed()
    engine.run()
    assert cmb.credit.value == 768
    assert [o for o, _n, _p in cmb.ring.peek_ready()] == [256, 384, 512, 640]
    assert cmb.chunks_discarded == 0


def test_restart_resumes_chunks_left_waiting_by_stop():
    """A halt without power loss (replica reboot) keeps waiting chunks."""
    engine, cmb = _fill_ring_and_stall(extra_chunks=1)
    cmb.stop()
    _destage_head(cmb, 128)
    cmb.ring_space_freed()  # a stopped module persists nothing
    engine.run()
    assert cmb.credit.value == 512
    cmb.start()
    engine.run()
    assert cmb.credit.value == 640


def test_drain_pending_to_backing_salvages_waiting_chunks_in_stream_order():
    """Crash with PM writes in flight: reserve energy finishes them."""
    engine, cmb = make_cmb(queue_bytes=384)
    # Arrival order differs from stream order; the fourth chunk finds
    # the queue full and never enters it before the power fails.
    for offset, tag in ((128, "b"), (0, "a"), (256, "c"), (384, "d")):
        cmb.receive(offset, 128, tag)
    engine.run(until=1.0)  # all three queued chunks are still in flight
    assert cmb.credit.value == 0
    cmb.stop()
    salvaged = cmb.drain_pending_to_backing()
    assert salvaged == 384
    assert cmb.credit.value == 384
    assert [(o, p) for o, _n, p in cmb.ring.peek_ready()] == [
        (0, "a"), (128, "b"), (256, "c")]
    assert cmb.chunks_discarded == 0


def test_halted_cmb_drops_late_chunks_and_restart_credits_once():
    engine, cmb = make_cmb()
    mirrored = []
    credits = []
    cmb.tap_intake(lambda offset, nbytes, payload: mirrored.append(offset))
    cmb.watch_credit(credits.append)
    cmb.receive(0, 256, "before")
    engine.run()
    assert cmb.credit.value == 256
    cmb.stop()
    cmb.receive(256, 256, "late")  # still on the wire at power loss
    engine.run()
    assert cmb.credit.value == 256
    assert mirrored == [0]
    assert cmb.chunks_dropped_stopped == 1
    cmb.start()
    cmb.receive(256, 128, "after")
    cmb.receive(384, 128, "after")
    engine.run()
    assert credits == [256, 384, 512]
    assert mirrored == [0, 256, 384]
