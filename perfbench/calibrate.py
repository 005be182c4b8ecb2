"""Host time at a reference host speed, by interleaved calibration.

The host the benchmark runs on is shared: its speed drifts by tens of
percent within seconds and between minutes, and CPU time drifts with
wall time (the slowdown comes from neighbours on the same hardware, not
from scheduling).  So a phase's bare wall time measures the neighbours
as much as the program.

A :class:`HostClock` times each phase and, while it runs, owes the host
a fixed calibration call (:func:`calibration_call`, a small pure-Python
event loop that uses nothing from the program) for every
``PERIOD_S`` of program time.  The workloads step the simulator in
short slices and settle the debt after each slice, so the calls sample
the host's speed evenly across the phase.  A phase's *reference*
seconds are its program time times ``REFERENCE_CALL_S`` over the mean
calibration call it saw: what the phase would have taken on a host
where one call takes ``REFERENCE_CALL_S``.  A change to the program
moves the program time and not the calibration, so it moves reference
seconds one for one; a slower host moves both and cancels.
"""

import collections
import gc
import heapq
import time

# A calibration call interleaved with the program takes about this long
# on the quiet 2-vCPU Xeon host the bounds were set on (more than alone:
# the program's slices evict its rows from the caches), so reference
# seconds read as that host's wall seconds.  It is a unit, not a
# measurement: any fixed value gives the same ratios between runs.
REFERENCE_CALL_S = 1.8e-3

# Program time between calibration calls (about 7% more host time).
# Slices this short follow the host's speed changes, which come and go
# within tenths of a second.
PERIOD_S = 0.025

CALL_PROCESSES = 30
CALL_STEPS = 25
TABLE_ROWS = 4093  # prime, so the processes' keys spread over every row

# Built once, so every call finds the same ~1 MB of rows to update, as a
# simulator finds its long-lived state.
_TABLE = {f"k{row}": [0, 0, []] for row in range(TABLE_ROWS)}


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, process, value):
        self.callbacks = [process]
        self.value = value


class _Process:
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body

    def resume(self, event):
        try:
            return self.body.send(event.value)
        except StopIteration:
            return None


def _body(index, log):
    for step in range(CALL_STEPS):
        key = f"k{(index * 131 + step * 17) % TABLE_ROWS}"
        row = _TABLE[key]
        row[0] += step
        row[1] += 1
        if len(row[2]) < 8:
            row[2].append(step)
        log.append((index, step, key))
        yield (index * 7 + step * 13) % 17


def calibration_call():
    """One fixed unit of host work shaped like a simulator's hot loop.

    Event objects with callback lists, generator processes resumed from
    a deque of immediate events and a heap of (time, sequence) timers,
    string-keyed row updates and a growing log: 750 events, about 1.2 ms
    alone on a quiet host.
    It uses nothing from the program, so a change to the program leaves
    it alone.
    """
    heap = []
    immediate = collections.deque()
    log = []
    sequence = 0
    now = 0
    for index in range(CALL_PROCESSES):
        immediate.append(_Event(_Process(_body(index, log)), None))
    while immediate or heap:
        if immediate:
            event = immediate.popleft()
        else:
            now, _, event = heapq.heappop(heap)
        callbacks = event.callbacks
        event.callbacks = []
        for process in callbacks:
            delay = process.resume(event)
            if delay is None:
                continue
            resumed = _Event(process, now)
            if delay == 0:
                immediate.append(resumed)
            else:
                sequence += 1
                heapq.heappush(heap, (now + delay, sequence, resumed))
    return len(log)


class HostClock:
    """Times phases in reference seconds; see the module docstring.

    ``calibrate=False`` makes a clock that only times (reference seconds
    are then raw program seconds), for a rep whose host time must hold
    nothing but the program's, such as a profiled one.
    """

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.raw = {}  # phase -> program seconds, calibration excluded
        self.reference = {}  # phase -> reference seconds
        self.call_s = {}  # phase -> mean calibration call

    def measure(self, phase, function):
        """Run ``function()`` as ``phase``; return its result."""
        self._start = time.perf_counter()
        self._calls = 0
        self._calibration_s = 0.0
        result = function()
        self.settle()
        program = time.perf_counter() - self._start - self._calibration_s
        self.raw[phase] = program
        if self.calibrate:
            call = self._calibration_s / self._calls
            self.call_s[phase] = call
            self.reference[phase] = program * REFERENCE_CALL_S / call
        else:
            self.reference[phase] = program
        return result

    def settle(self):
        """Make the calibration calls the phase owes so far (at least one)."""
        if not self.calibrate:
            return
        program = time.perf_counter() - self._start - self._calibration_s
        # The collector stays off during a call: its passes scan the
        # program's heap, and would make the call measure the program.
        collecting = gc.isenabled()
        gc.disable()
        try:
            while self._calls == 0 or self._calls * PERIOD_S < program:
                start = time.perf_counter()
                calibration_call()
                self._calibration_s += time.perf_counter() - start
                self._calls += 1
        finally:
            if collecting:
                gc.enable()

    def step(self, function, *args, **kwargs):
        """Run one slice of a phase's work, then settle."""
        result = function(*args, **kwargs)
        self.settle()
        return result
