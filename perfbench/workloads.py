"""The benchmark's four seeded workloads, driven through the public API.

Each workload is a fixed scenario (code, cluster, WLD-4x bandwidths,
dead nodes, stripe layout) whose content comes from the run's seed.  A
*round* is the workload's unit of work; every round has the same shape,
so round wall times are samples of one quantity.  A workload has
``sim_rounds`` distinct input sets: round ``r`` takes its bandwidth draw
and network churn from ``r`` alone and its content (payload bytes,
client traces) from the seed and ``r``.  Round ``r + sim_rounds``
replays round ``r`` and must reproduce its simulated results exactly
(the run checks that it does).

The scenarios do not vary with the seed because the simulated metrics
are guards: with seeded bandwidths and layouts the makespans spread by
7-16% from seed to seed, more than a regression they should catch, and
the work of a round moved with them.

Only the calls into the system are timed (:meth:`Tally.call`); building
inputs and checking outputs are not.  Every byte the system returns is
compared with what the benchmark wrote or can recompute from the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time

import numpy as np

from repro.cluster.bandwidth import make_wld
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.faults.schedule import FaultSchedule
from repro.simnet import NetworkTrace
from repro.system.coordinator import Coordinator
from repro.system.request import RepairRequest
from repro.workload import (
    ServeRequest,
    ServingPlane,
    WorkloadGenerator,
    WorkloadSpec,
    object_payload,
)

MB = float(1 << 20)
KIB = 1 << 10
#: the seed of each scenario's fixed stripe layout.
LAYOUT_SEED = 2023


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input stream of one round."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def build_system(k, m, n_data, n_spare, block_bytes, *, bw_seed, layout_seed, **kw):
    """A coordinator over WLD-4x nodes ``0..n_data-1`` plus spares."""
    ds = make_wld(n_data + n_spare, "WLD-4x", seed=bw_seed)
    node = lambda i: Node(i, float(ds.uplinks[i]), float(ds.downlinks[i]))  # noqa: E731
    coord = Coordinator(
        Cluster([node(i) for i in range(n_data)]), RSCode(k, m),
        block_bytes=block_bytes, rng=layout_seed, **kw,
    )
    for i in range(n_data, n_data + n_spare):
        coord.add_spare(node(i))
    return coord


class Tally:
    """Timed calls, per-phase work, and the operation/failure counts.

    With a ``tracer`` (see ``tracing.py``), spans are recorded only inside
    timed calls, so the trace covers exactly the wall time ``wall_s`` sums.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        #: phase -> [seconds, MB, units]
        self.phases: dict[str, list[float]] = {}

    def call(self, phase: str, fn, *args, ops: int = 1, mb: float = 0.0, **kwargs):
        """Time ``fn(*args, **kwargs)`` as ``ops`` operations of ``phase``.

        A raised exception counts as one failed operation and returns
        ``None``; callers skip whatever depended on the result.
        """
        self.attempted += ops
        if self.tracer is not None:
            self.tracer.active[0] = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            if ops == 0:
                self.attempted += 1
            self.fail(f"{phase}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active[0] = False
            self.wall_s += dt
            row = self.phases.setdefault(phase, [0.0, 0.0, 0.0])
            row[0] += dt
            row[1] += mb

    def units(self, phase: str, n: float) -> None:
        """Credit ``n`` units of completed work (blocks, stripes, ops) to ``phase``."""
        self.phases.setdefault(phase, [0.0, 0.0, 0.0])[2] += n

    def fail(self, why: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.errors.append(why)
        print(f"perfbench: FAILED {why}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """A wrong byte: counted as failed and as wrong (the run is incorrect)."""
        if not ok:
            self.wrong += 1
            self.fail(f"wrong bytes: {what}")

    def read_back(self, got: bytes, want: bytes, what: str) -> None:
        """An untimed verifying read: one more operation, checked."""
        self.attempted += 1
        self.check(got == want, what)


def _bus(coord) -> tuple[float, int]:
    return coord.bus.total_bytes() / MB, coord.bus.transfer_count


class Workload:
    """One scenario; :meth:`run_round` returns ``(sim, layers)``.

    ``sim`` holds the round's simulated results (``makespan_s``,
    ``wire_mb`` and anything else that must repeat exactly); ``layers``
    holds per-layer counts read off results and system state.
    """

    name = ""
    #: distinct input sets; the simulated metrics sum over them.
    sim_rounds = 1

    def __init__(self, seed: int):
        self.seed = int(seed)

    def setup(self) -> None:
        """Build what the first round needs (timed as ``setup_s``)."""
        raise NotImplementedError

    def run_round(self, t: Tally, r: int) -> tuple[dict, dict]:
        """Run round ``r`` (``0 <= r < sim_rounds``), timing system calls into ``t``."""
        raise NotImplementedError


class RepairWide(Workload):
    """The ROADMAP baseline on bytes: write, degraded read, HMBR repair.

    (32,8) code, 80 data nodes + 8 spares, 24 MB per round in 64 KiB
    blocks (12 stripes), nodes 3/17/29/41 crashed, one degraded read, one
    per-stripe HMBR repair with parity verify, and a read-back compare.
    The layout and the four bandwidth draws are fixed; the seed draws
    each round's payload.
    """

    name = "repair-wide"
    sim_rounds = 4
    DEAD = (3, 17, 29, 41)
    NBYTES = 24 << 20

    def _system(self, r):
        return build_system(32, 8, 80, 8, 64 * KIB, bw_seed=sub_seed(LAYOUT_SEED, 1, r),
                            layout_seed=LAYOUT_SEED)

    def setup(self):
        self._system(0)

    def run_round(self, t, r):
        sim = {"makespan_s": 0.0, "wire_mb": 0.0}
        layers = {}
        coord = self._system(r)
        data = np.random.default_rng(sub_seed(self.seed, 2, r)).bytes(self.NBYTES)
        mb = self.NBYTES / MB
        if t.call("write", coord.write, "obj", data, mb=mb) is None:
            return sim, layers
        for v in self.DEAD:
            coord.crash_node(v)
        got = t.call("read", coord.read, "obj", mb=mb)
        if got is not None:
            t.check(got == data, f"degraded read, round {r}")
        res = t.call("repair", coord.repair, RepairRequest(scheme="hmbr"))
        if res is None:
            return sim, layers
        t.units("repair", res.blocks_recovered)
        t.read_back(coord.read("obj"), data, f"read-back after repair, round {r}")
        sim.update(makespan_s=res.makespan_s, wire_mb=res.bytes_on_wire_mb_model,
                   blocks=res.blocks_recovered, stripes=len(res.stripes_repaired))
        layers["system.bus.mb"], layers["system.bus.transfers"] = _bus(coord)
        return sim, layers


class PlanScale(Workload):
    """Metadata-only planning at scale: ``plan_repair`` for four schemes.

    (32,8), 120 data nodes + 4 spares, 100 stripes placed without bytes
    (the fixed layout leaves 62 affected), nodes 5/77 dead, four fixed
    bandwidth draws.  No input depends on the seed: planning reads only
    metadata.  The simulated metrics sum the ``hmbr``, ``mlf`` and
    ``auto`` plans; CR's centralized bottleneck (10-20x HMBR's makespan)
    would swamp the sum, so a worse CR plan moves no end-to-end metric
    (its makespan is printed with the others).
    """

    name = "plan-scale"
    sim_rounds = 4
    DEAD = (5, 77)
    SCHEMES = ("cr", "hmbr", "mlf", "auto")
    GUARDED = ("hmbr", "mlf", "auto")
    STRIPES = 100

    def __init__(self, seed):
        super().__init__(seed)
        self._systems = {}

    def _system(self, r):
        coord = build_system(32, 8, 120, 4, 64 * KIB, bw_seed=sub_seed(LAYOUT_SEED, 1, r),
                             layout_seed=LAYOUT_SEED)
        coord.place_stripes(self.STRIPES, materialize=False)
        for v in self.DEAD:
            coord.crash_node(v)
        return coord

    def setup(self):
        self._systems = {r: self._system(r) for r in range(self.sim_rounds)}

    def run_round(self, t, r):
        sim = {"makespan_s": 0.0, "wire_mb": 0.0}
        coord = self._systems[r]
        for scheme in self.SCHEMES:
            timing = t.call("plan", coord.plan_repair, scheme)
            if timing is None:
                continue
            t.units("plan", len(timing.stripes))
            sim[f"{scheme}.makespan_s"] = timing.makespan_s
            sim[f"{scheme}.blocks"] = timing.blocks_recovered
            if scheme in self.GUARDED:
                sim["makespan_s"] += timing.makespan_s
                sim["wire_mb"] += timing.bytes_on_wire_mb_model
        return sim, {}


class ServeStorm(Workload):
    """Open-loop client traffic beside a background repair storm.

    (16,4), 40 data nodes + 4 spares, 16 KiB stored / 4 MB modeled blocks,
    64 objects, zipf 1.1, 90% whole-object reads and 10% parity-delta
    writes arriving as a Poisson process at 20 ops/s, nodes 3/11 dead, a
    batched HMBR storm at background priority, ``chunks=4``.  Each round
    serves exactly 300 ops (about 15 simulated seconds) of its own trace,
    so the four input sets pool over a thousand reads.  Writes the
    plane refuses because they touch a dead-hosted block are retried
    through ``Coordinator.update`` once the storm has landed, as a client
    would; every object is then read back against the recomputed state.

    The cluster is one fixed scenario; the seed drives the client trace
    and the object bodies.  (Seeded bandwidths moved the fluid solver's
    work, and so the round's wall time, by ~20% between seeds.)
    """

    name = "serve-storm"
    sim_rounds = 4
    DEAD = (3, 11)
    RATE_OPS_S = 20.0
    N_OPS = 300

    def _spec(self, r):
        spec = WorkloadSpec(
            n_objects=64, object_bytes=16 * 16 * KIB, duration_s=10 * self.N_OPS / self.RATE_OPS_S,
            rate_ops_s=self.RATE_OPS_S, zipf_s=1.1, read_fraction=0.9, write_bytes=256,
            seed=sub_seed(self.seed, 3, r) % (1 << 31),
        )
        # the arrival stream does not depend on the window, so ending the
        # window between the n-th and (n+1)-th arrival keeps exactly n ops
        t = WorkloadGenerator(spec).arrivals()
        return dataclasses.replace(spec, duration_s=(t[self.N_OPS - 1] + t[self.N_OPS]) / 2)

    def _system(self, spec):
        coord = build_system(16, 4, 40, 4, 16 * KIB, bw_seed=LAYOUT_SEED,
                             layout_seed=LAYOUT_SEED, block_size_mb=4.0)
        ServingPlane(coord, spec).provision()
        return coord

    def setup(self):
        self._system(self._spec(0))

    def run_round(self, t, r):
        sim = {"makespan_s": 0.0, "wire_mb": 0.0, "latencies": ()}
        layers = {}
        spec = self._spec(r)
        coord = self._system(spec)
        for v in self.DEAD:
            coord.crash_node(v)
        storm = (RepairRequest(scheme="hmbr", batched=True, priority="background"),)
        res = t.call("serve", coord.serve, ServeRequest(spec=spec, repair=storm, chunks=4), ops=0)
        if res is None:
            return sim, layers
        gen = WorkloadGenerator(spec)
        ops = gen.ops()
        t.attempted += len(ops)
        t.units("serve", len(res.outcomes))
        for _ in range(len(ops) - len(res.outcomes)):
            t.fail(f"serve dropped an op, round {r}")
        refused, expected, latencies = self._replay(t, res, gen, ops)
        for op in refused:
            patch = gen.patch_bytes(op)
            if t.call("update", coord.update, op.obj, op.offset, patch, ops=0) is not None:
                expected[op.obj][op.offset:op.offset + len(patch)] = patch
        for obj, body in expected.items():
            t.read_back(coord.read(obj), bytes(body), f"final state of {obj}, round {r}")
        sim.update(makespan_s=res.repair.makespan_s, wire_mb=res.repair.bytes_on_wire_mb_model,
                   latencies=tuple(latencies))
        stats = res.plan_cache_stats
        layers.update({
            "workload.degraded_reads": res.degraded_reads,
            "workload.fast_path_reads": res.fast_path_reads,
            "workload.refused_writes": len(refused),
            "sched.jobs_failed": len(res.repair.failed),
            "plan_cache.hits": stats.get("hits", 0),
            "plan_cache.misses": stats.get("misses", 0),
        })
        layers["system.bus.mb"], layers["system.bus.transfers"] = _bus(coord)
        return sim, layers

    @staticmethod
    def _replay(t, res, gen, ops):
        """Check every read digest against the state recomputed from the spec.

        Applies accepted writes in op order.  Returns the refused write
        ops, the expected object bodies after the accepted writes, and
        the latencies of the completed reads.
        """
        spec = gen.spec
        by_id = {op.op_id: op for op in ops}
        expected = {spec.object_name(i): bytearray(object_payload(spec, i))
                    for i in range(spec.n_objects)}
        refused, latencies = [], []
        for o in res.outcomes:
            op = by_id[o.op_id]
            if o.kind == "read":
                if not o.ok:
                    t.fail(f"read op {o.op_id}: {o.error}")
                    continue
                want = hashlib.sha256(bytes(expected[o.obj])).hexdigest()
                t.check(o.digest == want and o.nbytes == len(expected[o.obj]),
                        f"read op {o.op_id} of {o.obj}")
                latencies.append(o.latency_s)
            elif o.ok:
                patch = gen.patch_bytes(op)
                expected[o.obj][op.offset:op.offset + len(patch)] = patch
            else:
                refused.append(op)
        return refused, expected, latencies


class RepairChurn(Workload):
    """Repairs while the environment changes: faults, then network churn.

    (16,4), 48 data nodes + 8 spares, 8 MB written in 32 KiB blocks,
    nodes 3/17/29 crashed.  One fault round (a helper slowed, one flapping,
    one killed mid-repair), then nodes 5/9 crash and one adaptive repair
    rides OU churn (sigma 0.3) plus a x6 degrade of a quarter of the
    survivors.  Each repair's bytes are read back and compared.

    The cluster, the fault targets, the degraded quarter and the four
    input sets' OU paths are fixed; the seed drives the payload.  (A
    seeded OU path moved the number of re-plans, and so the round's work,
    from seed to seed.)
    """

    name = "repair-churn"
    sim_rounds = 4
    DEAD = (3, 17, 29)
    LATE_DEAD = (5, 9)
    NBYTES = 8 << 20

    def _system(self):
        return build_system(16, 4, 48, 8, 32 * KIB, bw_seed=LAYOUT_SEED, layout_seed=LAYOUT_SEED)

    def setup(self):
        self._system()

    def _faults(self, coord) -> FaultSchedule:
        rng = np.random.default_rng(LAYOUT_SEED)
        pool = [n for n in coord.data_nodes()
                if coord.agents[n].alive and n not in self.LATE_DEAD]
        slow, flap, kill = (int(v) for v in rng.choice(pool, size=3, replace=False))
        return FaultSchedule.from_tuples(
            [(0.002, "slow", slow, 4.0), (0.004, "flap", flap, 0.5), (0.006, "kill", kill)]
        )

    def _network(self, coord, r) -> NetworkTrace:
        alive = [n for n in coord.data_nodes() if coord.agents[n].alive]
        slow = np.random.default_rng(LAYOUT_SEED).choice(alive, size=len(alive) // 4, replace=False)
        return (NetworkTrace.ou(60.0, rel_sigma=0.3, seed=sub_seed(LAYOUT_SEED, 5, r))
                + NetworkTrace.degrade(sorted(int(v) for v in slow), at_time=1.0, factor=6.0))

    def run_round(self, t, r):
        sim = {"makespan_s": 0.0, "wire_mb": 0.0}
        layers = {}
        coord = self._system()
        data = np.random.default_rng(sub_seed(self.seed, 2, r)).bytes(self.NBYTES)
        if t.call("write", coord.write, "obj", data, mb=self.NBYTES / MB) is None:
            return sim, layers
        for v in self.DEAD:
            coord.crash_node(v)
        res = t.call("repair", coord.repair, RepairRequest(scheme="hmbr", faults=self._faults(coord)))
        if res is None:
            return sim, layers
        t.read_back(coord.read("obj"), data, f"read-back after the fault repair, round {r}")
        t.units("repair", res.blocks_recovered)
        rep = res.report
        moved = rep.executed_transfer_bytes + rep.wasted_transfer_bytes
        layers.update({
            "faults.retries": rep.retries,
            "faults.replans": rep.replans,
            "faults.useful_ratio": rep.executed_transfer_bytes / moved if moved else 1.0,
        })
        sim["fault.makespan_s"] = res.makespan_s
        sim["makespan_s"] += res.makespan_s
        sim["wire_mb"] += res.bytes_on_wire_mb_model

        for v in self.LATE_DEAD:
            coord.crash_node(v)
        net = self._network(coord, r)
        # reference, untimed: the static plan's makespan on the same trace
        sim["static.makespan_s"] = coord.plan_repair("hmbr", network=net).makespan_s
        res = t.call("repair", coord.repair, RepairRequest(
            scheme="hmbr", network=net, adaptive=True, max_replans=8))
        if res is None:
            return sim, layers
        t.read_back(coord.read("obj"), data, f"read-back after the adaptive repair, round {r}")
        t.units("repair", res.blocks_recovered)
        wire = res.bytes_on_wire_mb_model
        layers.update({
            "adaptive.replans": res.plan_summary["replans"],
            "adaptive.useful_ratio": 1.0 - float(res.plan_summary["wasted_mb"]) / wire if wire else 1.0,
        })
        sim["adaptive.makespan_s"] = res.makespan_s
        sim["makespan_s"] += res.makespan_s
        sim["wire_mb"] += wire
        layers["system.bus.mb"], layers["system.bus.transfers"] = _bus(coord)
        return sim, layers


WORKLOADS = {w.name: w for w in (RepairWide, PlanScale, ServeStorm, RepairChurn)}
