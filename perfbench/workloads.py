"""The four benchmark workloads, each one rep of a fixed, seeded input.

A workload instance is one rep.  The harness calls its phases in order:

* ``inputs()`` — derive the rep's inputs from the seed (arrival lists,
  crash schedules); host time only, no engine;
* ``build()`` — engines, devices, fleets (the ``setup.stack_s`` span);
* ``populate()`` — schemas and pre-loaded rows (``setup.populate_s``);
* ``run()`` — the timed phase (``wall_ref_s``);
* ``results()`` — simulated metrics and per-layer counts, plain numbers;
* ``verify()`` — correctness checks; a list of failure strings.

Simulated metrics depend only on the seed, so two reps of one seed must
produce identical ``results()`` — the harness compares their digests.
Every workload drives the program only through its public API, and
steps the simulator in short slices through ``self.clock`` (a
:class:`~perfbench.calibrate.HostClock`), which calibrates the host's
speed between slices.
"""

import bisect
import heapq

from perfbench.calibrate import HostClock
from repro.bench.fleet import make_tenant
from repro.bench.stacks import TXN_CPU_NS, build_tpcc_database, build_villars
from repro.check import (
    CheckConfig,
    crash_candidates,
    enumerate_schedules,
    probe_transitions,
    run_schedule,
)
from repro.cluster.fleet import Fleet
from repro.cluster.topology import replicated_chain
from repro.core.metrics import device_snapshot
from repro.db.engine import Database
from repro.db.recovery import recover_from_pages
from repro.db.txn import TransactionAborted
from repro.faults.scenario import chaos_config_factory
from repro.health.errors import DeviceBusy
from repro.host.api import XssdLogFile
from repro.host.baselines import NoLogFile
from repro.sim import Engine
from repro.sim.rng import derive
from repro.sim.stats import percentile
from repro.workloads.diurnal import DiurnalTrafficModel
from repro.workloads.tpcc import TpccConfig, TpccWorkload

# The latency target of the SLO bench and the diurnal workload's
# controller; slo_met_frac counts commits acked within it on every
# workload.
SLO_TARGET_NS = 150_000.0

# A bound on any drain after the offered work: a rep whose work has not
# finished by then reports the stragglers as failed, never hangs.
DRAIN_CAP_NS = 200e6
DRAIN_SLICE_NS = 200_000.0


class AckTracker:
    """Time from a primary CMB intake until the device may call it safe.

    On a replicated primary that is the moment the secondary's shadow
    counter covers the write (``transport.watch_shadow``, as Fig. 13
    measures it); on a standalone device, the moment the local credit
    covers it (``cmb.watch_credit``).  Both counters count stream bytes,
    so a chunk at ``offset`` of ``nbytes`` is covered once the counter
    reaches ``offset + nbytes``.
    """

    def __init__(self, engine, device, replicated):
        self.engine = engine
        self.pending = []  # heap of (covering value, intake time)
        self.samples = []
        device.cmb.tap_intake(self._on_intake)
        if replicated:
            device.transport.watch_shadow(
                lambda _peer, value: self._cover(value))
        else:
            device.cmb.watch_credit(self._cover)

    def _on_intake(self, offset, nbytes, _payload):
        heapq.heappush(self.pending, (offset + nbytes, self.engine.now))

    def _cover(self, value):
        pending = self.pending
        now = self.engine.now
        while pending and pending[0][0] <= value:
            self.samples.append(now - heapq.heappop(pending)[1])


def _nand_bytes(snapshot, page_bytes):
    conv = snapshot["conventional_side"]
    by_source = conv["bytes_by_source"]
    return (by_source["conventional"] + by_source["destage"]
            + conv["gc"]["pages_migrated"] * page_bytes)


class Workload:
    """Shared measurement for one rep; subclasses fill in the phases."""

    name = None
    replicated = True

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.scale = scale
        self.engine = None
        self.databases = []  # closed-loop commit latencies come from here
        self.trackers = []
        self.latencies_ns = None  # open loop: due time -> ack, set by run
        self.offered = 0  # transactions offered by the timed phase
        self.acked = 0
        self.schedules_run = 0  # crash schedules, each one more attempt
        self.start_ns = 0.0
        self.end_ns = 0.0
        self.clock = HostClock()

    def scaled(self, count, minimum=1):
        return max(minimum, int(round(count * self.scale)))

    # -- stepping --------------------------------------------------------

    def advance(self, until_ns):
        """Run the engine to ``until_ns`` in slices."""
        engine = self.engine
        while engine.now < until_ns:
            self.clock.step(engine.run,
                            until=min(engine.now + DRAIN_SLICE_NS, until_ns))

    def drain(self, done, start_ns):
        """Step the engine until ``done()`` or the drain cap; True if done.

        Stepping in slices matters: replication reporters keep the event
        queue non-empty forever, so one long run would grind to the cap.
        """
        engine = self.engine
        while not done() and engine.now < start_ns + DRAIN_CAP_NS:
            self.clock.step(engine.run, until=engine.now + DRAIN_SLICE_NS)
        return done()

    # -- phases (overridden) ---------------------------------------------

    def inputs(self):
        pass

    def build(self):
        raise NotImplementedError

    def populate(self):
        pass

    def run(self):
        raise NotImplementedError

    def devices(self):
        raise NotImplementedError

    def extra_counts(self):
        return {}

    def verify(self):
        """Failed correctness checks, one string each (unacked work is
        counted separately, from ``offered`` and ``acked``)."""
        return []

    # -- results ---------------------------------------------------------

    def track(self, device):
        self.trackers.append(AckTracker(self.engine, device, self.replicated))

    def commit_latencies(self):
        if self.latencies_ns is not None:
            return self.latencies_ns
        samples = []
        for database in self.databases:
            samples.extend(database.stats.latency.samples)
        return samples

    def results(self):
        """This rep's simulated outcome: samples, totals, per-layer counts.

        Plain numbers only, so a digest of it compares reps exactly;
        :func:`summarize` turns several reps' outcomes into metrics.
        """
        commits = sorted(self.commit_latencies())
        snapshots = [(device_snapshot(device), device.conventional.block_bytes)
                     for device in self.devices()]
        return {
            "commit_ns": commits,
            "ack_ns": sorted(sample for tracker in self.trackers
                             for sample in tracker.samples),
            "offered": self.offered,
            "acked": self.acked,
            "met": sum(1 for value in commits if value <= SLO_TARGET_NS),
            "elapsed_ns": self.end_ns - self.start_ns,
            "nand_bytes": sum(_nand_bytes(snap, page)
                              for snap, page in snapshots),
            "log_bytes": sum(snap["fast_side"]["bytes_received"]
                             for snap, _ in snapshots),
            "counts": self._counts(snapshots),
        }

    def _counts(self, snapshots):
        flushes = sum(db.log_manager.flushes for db in self.databases)
        flushed = sum(db.log_manager.bytes_flushed for db in self.databases)

        def total(*path):
            value = 0
            for snap, _ in snapshots:
                node = snap
                for key in path:
                    node = node[key]
                value += node
            return value

        hits = total("conventional_side", "buffer", "hits")
        lookups = hits + total("conventional_side", "buffer", "misses")
        devices = len(snapshots)
        counts = {
            "db.commits": sum(db.stats.commits for db in self.databases),
            "db.aborts": sum(db.stats.aborts for db in self.databases),
            "db.group_bytes_mean": flushed / flushes if flushes else 0.0,
            "core.cmb_bytes_received": total("fast_side", "bytes_received"),
            "core.destage_pages": total("destage", "pages_written"),
            "core.destage_filler_bytes": total("destage", "filler_bytes"),
            "core.intake_backlog_peak_bytes": max(
                snap["fast_side"]["intake_backlog_peak"]
                for snap, _ in snapshots),
            "core.transport_updates_sent": total("transport", "updates_sent"),
            "core.transport_sends_retried": total("faults", "sends_retried"),
            "ftl.writes": total("conventional_side", "ftl", "writes"),
            "ftl.reads": total("conventional_side", "ftl", "reads"),
            "ftl.gc_pages_migrated": total("conventional_side", "gc",
                                           "pages_migrated"),
            "ftl.read_retries": total("conventional_side", "ftl",
                                      "read_retries"),
            "ssd.buffer_hit_frac": hits / lookups if lookups else 0.0,
            "pcie.link_up_util": total("link", "up_utilization") / devices,
            "pcie.link_down_util": total("link", "down_utilization") / devices,
            "health.admission_rejections": 0,
            "health.bytes_shed": total("faults", "bytes_shed"),
            "slo.escalations": 0,
            "slo.deescalations": 0,
            "slo.fence_violations": 0,
            "check.schedules": 0,
            "check.enumerated": 0,
            "check.failures": 0,
            "sim.arrival_lateness_max_ns": 0.0,
        }
        counts.update(self.extra_counts())
        return counts


class TpccLocal(Workload):
    """Fig. 9's hot cell: 8 TPC-C workers, one Villars-SRAM device."""

    name = "tpcc-local"
    replicated = False
    WORKERS = 8
    TXNS_PER_WORKER = 150

    def build(self):
        self.engine = Engine()
        self.device = build_villars(self.engine, "sram")
        self.log_file = XssdLogFile(self.device)

    def populate(self):
        self.database = build_tpcc_database(self.engine, self.log_file,
                                            self.WORKERS)
        self.databases = [self.database]
        self.track(self.device)

    def _workload(self, worker_id):
        return TpccWorkload(TpccConfig(seed=self.seed), worker_id=worker_id)

    def run(self):
        engine = self.engine
        per_worker = self.scaled(self.TXNS_PER_WORKER)
        self.offered = per_worker * self.WORKERS
        self.start_ns = engine.now
        done = [
            self.database.run_worker(self._workload(worker), per_worker,
                                     txn_cpu_ns=TXN_CPU_NS, async_commit=True)
            for worker in range(self.WORKERS)
        ]
        self.drain(lambda: all(e.triggered for e in done), self.start_ns)
        stats = self.database.stats
        self.acked = stats.commits
        self.end_ns = stats.last_commit_at
        # Let the destage timer push the log tail to NAND, so recovery
        # sees every acked commit.
        destage = self.device.destage
        self.drain(lambda: (destage.destaged_offset
                            >= self.device.cmb.credit.value
                            and not destage.outstanding_pages),
                   engine.now)

    def devices(self):
        return [self.device]

    def verify(self):
        """Rebuild the tables from destaged pages; checksums must match."""
        failures = []
        pages = []
        destage = self.device.destage

        def reader():
            for sequence in range(destage.head_sequence,
                                  destage.durable_tail):
                page = yield destage.read_page(sequence)
                pages.append(page)

        engine = self.engine
        done = engine.process(reader(), name="perfbench-page-read")
        if not self.drain(lambda: done.triggered, engine.now):
            failures.append("tpcc-local: page read-back did not finish")
            return failures
        fresh_engine = Engine()
        fresh = Database(fresh_engine, NoLogFile(fresh_engine))
        workload = self._workload(0)
        workload.create_schema(fresh)
        workload.populate(fresh)
        recover_from_pages(fresh, pages)
        if fresh.checksum() != self.database.checksum():
            failures.append("tpcc-local: recovered checksum differs from "
                            "the live database")
        return failures


class _FleetWorkload(Workload):
    """Shared fleet plumbing: per-node primaries tracked, devices listed."""

    def devices(self):
        return [server.device
                for _name, node in sorted(self.fleet.nodes.items())
                for server in node.cluster.servers.values()]

    def _track_primaries(self):
        self.databases = [node.database
                          for _name, node in sorted(self.fleet.nodes.items())]
        for _name, node in sorted(self.fleet.nodes.items()):
            self.track(node.device)

    def _admission_rejections(self):
        return sum(node.admission.rejections
                   for node in self.fleet.nodes.values())


class FleetChain(_FleetWorkload):
    """4 nodes x (primary + NTB secondary), 12 zero-think-time tenants."""

    name = "fleet-chain"
    NODES = 4
    TENANTS_PER_NODE = 3
    TXNS_PER_TENANT = 200

    def build(self):
        self.engine = Engine()
        self.fleet = Fleet(self.engine, chaos_config_factory(self.seed),
                           replicas=1)
        self.fleet.add_nodes(self.NODES)

    def populate(self):
        self.tenants = []
        for index in range(self.NODES * self.TENANTS_PER_NODE):
            # TPC-C and YCSB alternate by slot within a node, as in the
            # fleet bench's scaling cells.
            slot = index // self.NODES
            kind = "tpcc" if slot % 2 == 0 else "ycsb"
            workload, bootstrap = make_tenant(kind, self.seed, slot)
            shard = self.fleet.create_shard(
                f"tenant{index}", node=f"node{index % self.NODES}",
                bootstrap=bootstrap, est_txn_bytes=2048)
            self.tenants.append((shard, workload))
        self._track_primaries()

    def _tenant(self, shard, workload, count, delay_ns):
        engine = self.engine
        yield engine.timeout(delay_ns)
        bodies = iter(workload)
        for _ in range(count):
            body = next(bodies)
            while True:
                try:
                    yield from shard.run_body(body)
                    break
                except DeviceBusy as busy:
                    yield engine.timeout(busy.retry_after_ns)
                except TransactionAborted:
                    continue
            self.acked += 1

    def run(self):
        engine = self.engine
        per_tenant = self.scaled(self.TXNS_PER_TENANT)
        self.offered = per_tenant * len(self.tenants)
        self.start_ns = engine.now
        procs = [
            engine.process(
                # Staggered starts keep colocated tenants out of
                # group-commit lockstep (as the fleet bench does).
                self._tenant(shard, workload, per_tenant,
                             (index // self.NODES) * 7_300.0),
                name=f"perfbench-tenant{index}")
            for index, (shard, workload) in enumerate(self.tenants)
        ]
        self.drain(lambda: all(p.triggered for p in procs), self.start_ns)
        self.end_ns = max(db.stats.last_commit_at for db in self.databases)
        # Quiesce: let every secondary report its final credit.
        self.advance(engine.now + DRAIN_SLICE_NS)

    def extra_counts(self):
        return {"health.admission_rejections": self._admission_rejections()}

    def verify(self):
        failures = []
        if self.fleet.total_commits() != self.acked:
            failures.append(
                f"fleet-chain: {self.acked} acked but Fleet.total_commits() "
                f"= {self.fleet.total_commits()}")
        for name, node in sorted(self.fleet.nodes.items()):
            credit = node.device.cmb.credit.value
            for peer, shadow in node.device.transport.shadow_counters.items():
                if shadow.value < credit:
                    failures.append(
                        f"fleet-chain: {name} shadow of {peer} at "
                        f"{shadow.value} < primary credit {credit}")
        return failures


class DiurnalSlo(_FleetWorkload):
    """Open loop: one process per pre-generated diurnal arrival, 2 nodes.

    The day comes from a :class:`DiurnalTrafficModel` with every tenant
    in one region (so the fleet has a real daily peak) and flash crowds
    placed by the seed.  Arrival times follow the model's fleet-wide
    rate curve deterministically: the k-th arrival is due where the
    integrated rate reaches k + 1/2 of the day's ``ARRIVALS``.  The seed
    picks each arrival's tenant in proportion to the tenants' rates at
    that instant, and its value size (lognormal).  Poisson jitter is
    left out on purpose: at this size it moved the p99 by ~20% between
    seeds, more than any change the benchmark is meant to detect.  A
    refused arrival backs off exponentially and retries, so every
    arrival eventually commits and refusals show up as latency and as
    admission counts.
    """

    name = "diurnal-slo"
    NODES = 2
    TENANTS = 12
    ARRIVALS = 2400
    MEAN_RATE_PER_S = 30_000.0
    RATE_STEPS = 1000  # integration grid over the day
    VALUE_BYTES = 160  # median; sizes are lognormal per arrival
    # Admission reserves this per transaction (about the real log size),
    # so a tenant's lane holds a few arrivals in flight, not just one.
    EST_TXN_BYTES = 768
    POLL_NS = 40_000.0

    def inputs(self):
        count = self.scaled(self.ARRIVALS, minimum=10)
        self.day_ns = count / self.MEAN_RATE_PER_S * 1e9
        model = DiurnalTrafficModel(
            seed=self.seed, tenants=self.TENANTS, day_ns=self.day_ns,
            base_rate_per_ns=self.MEAN_RATE_PER_S / 1e9, regions=1,
            diurnal_depth=0.5, zipf_alpha=0.5, crowd_rate_per_day=30.0,
            crowd_amplitude=1.0, crowd_decay_fraction=0.005,
        )
        step = self.day_ns / self.RATE_STEPS
        rates = [[model.rate_at(tenant, (index + 0.5) * step)
                  for tenant in range(self.TENANTS)]
                 for index in range(self.RATE_STEPS)]
        cumulative = [0.0]
        for row in rates:
            cumulative.append(cumulative[-1] + sum(row) * step)
        per_arrival = cumulative[-1] / count
        rng = derive(self.seed, "perfbench-tenants")
        tenants = range(self.TENANTS)
        self.arrivals = []
        for arrival in range(count):
            target = (arrival + 0.5) * per_arrival
            index = bisect.bisect_left(cumulative, target) - 1
            due = (index + (target - cumulative[index])
                   / (cumulative[index + 1] - cumulative[index])) * step
            tenant = rng.choices(tenants, weights=rates[index])[0]
            value_bytes = rng.lognormal_bytes(self.VALUE_BYTES, maximum=1024)
            self.arrivals.append((due, tenant, value_bytes))

    def build(self):
        self.engine = Engine()
        self.fleet = Fleet(self.engine, chaos_config_factory(self.seed))
        self.fleet.add_nodes(self.NODES)

    def populate(self):
        self.shards = [
            self.fleet.create_shard(f"tenant{index}",
                                    est_txn_bytes=self.EST_TXN_BYTES)
            for index in range(self.TENANTS)
        ]
        self._track_primaries()
        self.controller = self.fleet.enable_slo(
            target_p99_ns=SLO_TARGET_NS, poll_ns=self.POLL_NS)

    def _arrival(self, due_ns, tenant, value_bytes, seq):
        engine = self.engine
        yield engine.timeout(due_ns - engine.now)
        self.lateness_ns = max(self.lateness_ns, engine.now - due_ns)
        shard = self.shards[tenant]
        value = f"{shard.shard_id}-v{seq}-" + "x" * value_bytes
        keys = [f"a{seq}.{slot}" for slot in range(3)]

        def body(txn):
            for key in keys:
                txn.write("kv", key, value)

        backoff = None
        while True:
            try:
                yield from shard.run_body(body)
                break
            except DeviceBusy as busy:
                # Exponential client backoff, capped: a refused arrival
                # keeps trying without spinning at the device's
                # suggested period for the whole crowd.
                base = busy.retry_after_ns
                backoff = base if backoff is None else min(2 * backoff,
                                                           64 * base)
                yield engine.timeout(backoff)
            except TransactionAborted:
                continue
        self.latencies_ns.append(engine.now - due_ns)
        self.acked_writes.append((tenant, keys, value))
        self.acked += 1
        self.end_ns = engine.now

    def run(self):
        engine = self.engine
        self.offered = len(self.arrivals)
        self.latencies_ns = []
        self.acked_writes = []
        self.lateness_ns = 0.0
        self.start_ns = base = engine.now
        for seq, (due, tenant, value_bytes) in enumerate(self.arrivals):
            engine.process(self._arrival(base + due, tenant, value_bytes, seq),
                           name="perfbench-arrival")
        self.advance(base + self.day_ns)
        self.drain(lambda: self.acked == self.offered, base)

    def extra_counts(self):
        events = self.controller.events
        return {
            "health.admission_rejections": self._admission_rejections(),
            "slo.escalations": sum(1 for event in events
                                   if event["action"] == "escalate"),
            "slo.deescalations": sum(1 for event in events
                                     if event["action"] == "deescalate"),
            "slo.fence_violations": len(self.controller.invariant_violations),
            "sim.arrival_lateness_max_ns": self.lateness_ns,
        }

    def verify(self):
        failures = []
        if self.controller.invariant_violations:
            failures.append(
                f"diurnal-slo: {len(self.controller.invariant_violations)} "
                "durability-fence violations")
        if self.lateness_ns != 0.0:
            failures.append(f"diurnal-slo: arrivals ran late by up to "
                            f"{self.lateness_ns} ns")
        missing = 0
        for tenant, keys, value in self.acked_writes:
            table = self.shards[tenant].view.table("kv")
            missing += sum(1 for key in keys if table.get(key) != value)
        if missing:
            failures.append(f"diurnal-slo: {missing} acked writes missing "
                            "from shard state")
        return failures


class CrashCheck(Workload):
    """The checker's chain scenario: a fault-free run, then crash schedules.

    The fault-free run (the scenario's 3-server chain and group-commit
    settings, 4 writers, seeded key/value sizes and think times) gives
    the commit and durable-ack metrics; the first ``SCHEDULES`` crash
    schedules ``repro.check`` enumerates for the seed give the verdicts
    and exercise halt/restart, page read-back and recovery.
    """

    name = "crash-check"
    WRITERS = 4
    TXNS_PER_WRITER = 300
    SCHEDULES = 40

    def inputs(self):
        self.config = CheckConfig(scenario="chain", seed=self.seed)
        candidates = crash_candidates(probe_transitions(self.config))
        self.enumerated = enumerate_schedules(self.config, candidates)
        self.schedules = self.enumerated[:self.scaled(self.SCHEDULES)]

    def build(self):
        self.engine = Engine()
        self.cluster = replicated_chain(
            self.engine, chaos_config_factory(self.seed),
            secondaries=self.config.secondaries)

    def populate(self):
        self.database = self.cluster.primary.with_database(
            group_commit_bytes=self.config.group_commit_bytes,
            group_commit_timeout_ns=self.config.group_commit_timeout_ns)
        self.database.create_table("kv")
        self.databases = [self.database]
        self.track(self.cluster.primary.device)

    def _writer(self, index, count):
        engine = self.engine
        rng = derive(self.seed, "perfbench-check-writer", index)
        for _ in range(count):
            yield engine.timeout(rng.exponential_ns(5_000.0))
            txn = self.database.begin()
            for _ in range(rng.randint(1, 3)):
                txn.write("kv", f"w{index}k{rng.randrange(64)}",
                          "v" * rng.lognormal_bytes(64, maximum=512))
            try:
                yield txn.commit()
            except TransactionAborted:
                continue  # disjoint per-writer keys: unreachable
            self.acked += 1

    def run(self):
        engine = self.engine
        per_writer = self.scaled(self.TXNS_PER_WRITER)
        self.offered = per_writer * self.WRITERS
        self.start_ns = engine.now
        procs = [engine.process(self._writer(index, per_writer),
                                name=f"perfbench-writer{index}")
                 for index in range(self.WRITERS)]
        self.drain(lambda: all(p.triggered for p in procs), self.start_ns)
        self.end_ns = self.database.stats.last_commit_at
        self.outcomes = [
            self.clock.step(run_schedule, self.config, schedule)
            for schedule in self.schedules]
        self.schedules_run = len(self.outcomes)

    def devices(self):
        return [server.device for server in self.cluster.servers.values()]

    def extra_counts(self):
        return {
            "check.schedules": len(self.outcomes),
            "check.enumerated": len(self.enumerated),
            "check.failures": sum(1 for outcome in self.outcomes
                                  if not outcome.ok),
        }

    def verify(self):
        return [f"crash-check: {outcome.schedule.family} schedule failed: "
                f"{outcome.flat_violations()[:3]}"
                for outcome in self.outcomes if not outcome.ok]


def summarize(outcomes):
    """End-to-end simulated metrics pooled over reps' :meth:`results`.

    Percentiles are taken over every rep's samples together and ratios
    over summed totals, so three inputs act like one three times larger.
    """
    commits = sorted(value for out in outcomes for value in out["commit_ns"])
    acks = sorted(value for out in outcomes for value in out["ack_ns"])

    def total(key):
        return sum(out[key] for out in outcomes)

    return {
        "commits": len(commits),
        "commit_p50_us": percentile(commits, 0.50, presorted=True) / 1e3,
        "commit_p99_us": percentile(commits, 0.99, presorted=True) / 1e3,
        "sim_ktxn_per_s": total("acked") / total("elapsed_ns") * 1e6,
        "slo_met_frac": total("met") / total("offered"),
        "nand_bytes_per_log_byte": total("nand_bytes") / total("log_bytes"),
        "durable_acks": len(acks),
        "durable_ack_p99_us": percentile(acks, 0.99, presorted=True) / 1e3,
    }


WORKLOADS = {cls.name: cls
             for cls in (TpccLocal, FleetChain, DiurnalSlo, CrashCheck)}
