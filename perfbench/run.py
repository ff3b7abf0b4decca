"""The repo benchmark: one seeded workload per run, timed through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repair-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs rounds untraced for half the time, then with every
layer's public functions wrapped (``tracing.py``) for the other half, and
reports the per-layer split; a traced round must reproduce the simulated
results of the same untraced round exactly.  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A wrong byte makes
the run incorrect and exits 1.

A round's wall time is reported as ``round_ref``: the median round wall
per input set, averaged over the sets and divided by the mean time of a
fixed reference task (:func:`reference_s`) run between the rounds, so
that the machine's speed changes cancel.  Set-up (import, GF backend
warm-up, cluster build and provisioning) is timed in fresh interpreters
started at even intervals through the run, and reported as the median.
The native GF kernel is compiled, if needed, into the build directory
(``$CARGO_TARGET_DIR`` or ``.bench_build``) before anything is timed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Import with the bytecode cache on, as a user's interpreter would, so that
# set-up time does not depend on whether the caller's environment disables it.
sys.dont_write_bytecode = False
# One thread: numpy's BLAS would otherwise start a worker per core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
#: seeds kept out of tuning; a later gain is confirmed on these too.
HELD_OUT_SEEDS = (90001, 90002)
SETUP_SAMPLES = 9
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: metric -> unit; an untraced run reports every end-to-end metric, a
#: traced run every per-layer one.
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def build_dir() -> Path:
    """Where build products and traces go (inside the checkout)."""
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def warm_backend() -> dict:
    """Load (compiling if needed) the best GF kernel tier; report the env."""
    import numpy as np
    from repro.gf.backend import select_backend

    cache = Path(os.environ["REPRO_GF_NATIVE_CACHE"])
    before = set(cache.glob("gfkern-*.so")) if cache.is_dir() else set()
    backend = select_backend(8)
    after = set(cache.glob("gfkern-*.so")) if cache.is_dir() else set()
    return {
        "gf_backend": backend.name,
        "native_compiled": bool(after - before),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in (0, 1])."""
    vals = sorted(values)
    if not vals:
        return 0.0
    rank = max(1, -(-len(vals) * q // 1))
    return float(vals[int(rank) - 1])


def mapped(nbytes: int):
    """A zeroed uint8 array in its own anonymous mapping, unmapped when freed.

    The reference task's large arrays bypass the allocator, so freeing
    them leaves its state (and the resident memory the rounds start from)
    as the program left it.
    """
    import numpy as np

    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)


def reference_s() -> float:
    """Wall seconds of a fixed task that runs no program code.

    Seven parts of about equal time, for the kinds of work the workloads
    do: an interpreter-bound arithmetic loop, a dict-and-heap loop, small
    numpy matrix products, many numpy calls on tiny arrays, streaming over
    a 16 MB array, XORs between 4 MB arrays, and byte-table lookups over
    64 KiB rows (the shape of a GF kernel).  Timed between rounds, it says
    how fast the machine was while the rounds ran (``round_ref``).
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    heap, table, acc = [], {}, 0.0
    for i in range(45_000):
        k = i % 991
        table[k] = table.get(k, 0.0) + i * 0.5
        heapq.heappush(heap, (acc % 97.0, k))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    a, b, c = (np.arange(1600, dtype=np.float64).reshape(40, 40) / (1 + i) for i in range(3))
    for _ in range(6000):
        x = a @ b
        x += c
        np.argmax(x, axis=1)
    v = np.arange(64, dtype=np.float64)
    for _ in range(15_000):
        v.min()
        np.maximum(v, 3.0)
    big = mapped(16 << 20)
    big.fill(1)
    for _ in range(5):
        big.sum(dtype=np.uint64)
        np.bitwise_xor(big, 1, out=big)
    src, dst = mapped(4 << 20), mapped(4 << 20)
    src.fill(1)
    for _ in range(40):
        np.bitwise_xor(dst, src, out=dst)
    ramp = np.arange(256, dtype=np.uint8)
    lut = np.multiply.outer(ramp, ramp)
    rows = mapped(32 * (64 << 10)).reshape(32, 64 << 10)
    rows[:] = np.resize(ramp, 64 << 10)
    for _ in range(8):
        out = np.zeros(64 << 10, dtype=np.uint8)
        for i in range(32):
            out ^= lut[i + 1][rows[i]]
    return time.perf_counter() - t0


def reset_peak_rss() -> None:
    """Start a new peak-resident-memory window (Linux; elsewhere a no-op)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


class Round(NamedTuple):
    """One measured round: its input index, timings and results."""

    r: int
    ref_s: float
    rss_mb: float
    tally: object
    sim: dict
    layers: dict


def measure(workload, seconds: float, tracer=None, min_rounds: int = 1,
            between=None) -> list:
    """Run rounds ``0, 1, ...`` (inputs cycling) until the next would end past ``seconds``.

    At least ``min_rounds`` run.  With a ``tracer`` its spans accumulate.
    The reference task runs before the first round and after each one; a
    round's ``ref_s`` is the mean of the two beside it.  A round's
    ``rss_mb`` is the peak resident memory while it ran, so the reference
    task's arrays are not counted.  After each round
    ``between(progress)`` is called with the share of ``seconds`` used so
    far (1.0 after the last round); its own time is not counted against
    ``seconds``.
    """
    from workloads import Tally

    rounds: list[Round] = []
    t0 = time.perf_counter()
    ref_before = reference_s()
    elapsed = time.perf_counter() - t0
    while True:
        r = len(rounds) % workload.sim_rounds
        gc.collect()  # every round starts from the same heap state
        reset_peak_rss()
        t0 = time.perf_counter()
        tally = Tally(tracer)
        sim, layers = workload.run_round(tally, r)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_after = reference_s()
        ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        elapsed += time.perf_counter() - t0
        rounds.append(Round(r, ref_s, rss_mb, tally, sim, layers))
        done = len(rounds) >= min_rounds and elapsed + 0.5 * elapsed / len(rounds) >= seconds
        if between is not None:
            between(1.0 if done else elapsed / seconds)
        if done:
            return rounds


def first_of_each(rounds) -> dict:
    """Input index -> the first round run with it."""
    out = {}
    for rnd in rounds:
        out.setdefault(rnd.r, rnd)
    return out


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def setup_sampler(workload: str, seed: int, samples: list):
    """A ``between`` hook for :func:`measure` that spreads set-up samples.

    Sample ``i`` of :data:`SETUP_SAMPLES` is taken once the run is
    ``i / SETUP_SAMPLES`` of the way through, so the samples see the
    machine as the rounds do; the last call tops up to the full count.
    """

    def take(progress: float) -> None:
        while len(samples) < SETUP_SAMPLES and len(samples) <= progress * SETUP_SAMPLES:
            samples.append(child_setup_s(workload, seed))

    return take


def round_wall_s(rounds) -> float:
    """A round's wall seconds: per input set the median, then their mean.

    Input sets differ in work, so taking the median per set keeps the
    figure the same whichever sets the run had time to repeat.
    """
    walls: dict[int, list[float]] = {}
    for rnd in rounds:
        walls.setdefault(rnd.r, []).append(rnd.tally.wall_s)
    return statistics.fmean(statistics.median(w) for w in walls.values())


def e2e_metrics(setup_samples, rounds) -> dict:
    """The end-to-end metrics of one untraced run."""
    sims = [rnd.sim for rnd in first_of_each(rounds).values()]
    return {
        "setup_s": statistics.median(setup_samples),
        "round_ref": round_wall_s(rounds) / statistics.fmean(rnd.ref_s for rnd in rounds),
        "peak_rss_mb": max(rnd.rss_mb for rnd in rounds),
        "repair_makespan_s": sum(sim["makespan_s"] for sim in sims),
        "repair_wire_mb": sum(sim["wire_mb"] for sim in sims),
    }


def pooled_rate(rounds, phase: str, of: str = "units") -> float:
    """Work of ``phase`` (units, or MB) per wall second of its calls."""
    seconds = sum(rnd.tally.phases.get(phase, (0.0,))[0] for rnd in rounds)
    col = 1 if of == "mb" else 2
    work = sum(rnd.tally.phases.get(phase, (0.0, 0.0, 0.0))[col] for rnd in rounds)
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(untraced, traced, tracer) -> dict:
    """The per-layer metrics, per round, from a traced run.

    Span figures come from the traced rounds; rates and counts read off
    results come from the untraced rounds, which tracing cannot slow.
    """
    n = len(traced)
    out = {name: 0.0 for name in LAYER_UNITS}
    summary = tracer.summary()
    for name, row in summary.items():
        for field in ("calls", "self_s"):
            if f"{name}.{field}" in out:
                out[f"{name}.{field}"] = row[field] / n
    out["repair.split_search.probes"] = summary.get("repair.split_search", {}).get("probes", 0) / n
    for key, value in tracer.counts.items():
        out[key] = value / n

    for key in {k for rnd in untraced for k in rnd.layers}:
        if key in out:
            out[key] = statistics.fmean(float(rnd.layers.get(key, 0.0)) for rnd in untraced)
    hits = sum(rnd.layers.get("plan_cache.hits", 0) for rnd in untraced)
    misses = sum(rnd.layers.get("plan_cache.misses", 0) for rnd in untraced)
    out["repair.plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    out["system.write.mbps"] = pooled_rate(untraced, "write", "mb")
    out["system.read.mbps"] = pooled_rate(untraced, "read", "mb")
    out["system.repair.blocks_per_s"] = pooled_rate(untraced, "repair")
    out["system.plan.stripes_per_s"] = pooled_rate(untraced, "plan")
    out["workload.serve.ops_per_s"] = pooled_rate(untraced, "serve")
    sims = [rnd.sim for rnd in first_of_each(untraced + traced).values()]
    lat = [x for sim in sims for x in sim.get("latencies", ())]
    out["workload.read_p50_s"] = quantile(lat, 0.50)
    out["workload.read_p99_s"] = quantile(lat, 0.99)
    out["workload.read_samples"] = float(len(lat))
    ratios = [sim["adaptive.makespan_s"] / sim["static.makespan_s"]
              for sim in sims if sim.get("static.makespan_s")]
    if ratios:
        out["adaptive.vs_static_ratio"] = statistics.fmean(ratios)

    out["round.wall_s"] = round_wall_s(untraced)
    out["round.reference_s"] = statistics.fmean(rnd.ref_s for rnd in untraced)
    traced_wall = sum(rnd.tally.wall_s for rnd in traced)
    out["trace.coverage_ratio"] = tracer.root_seconds() / traced_wall if traced_wall > 0 else 0.0
    out["trace.overhead_s"] = (statistics.median(rnd.tally.wall_s for rnd in traced)
                               - statistics.median(rnd.tally.wall_s for rnd in untraced))
    return out


def report(workload, env, rounds, metrics, units, notes) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"perfbench env: {json.dumps(env, sort_keys=True)}")
    for phase in sorted({p for rnd in rounds for p in rnd.tally.phases}):
        seconds = sum(rnd.tally.phases.get(phase, (0.0,))[0] for rnd in rounds)
        mbps, ups = pooled_rate(rounds, phase, "mb"), pooled_rate(rounds, phase)
        rate = f"{mbps:.2f} MB/s" if mbps else f"{ups:.2f} units/s" if ups else ""
        print(f"  phase {phase:<8} {seconds:8.3f} s over {len(rounds)} rounds  {rate}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {workload.name:<13} {name:<28} {value:14.6f} {units[name]}")


def run(args) -> int:
    """One workload, one seed: measure, check, print."""
    sys.path.insert(0, str(ROOT / "src"))
    env = warm_backend()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env.update(workload=workload.name, seed=args.seed, held_out_seeds=list(HELD_OUT_SEEDS),
               seconds=args.seconds, trace=args.trace, setup_in_process_s=setup_s)

    tracer = None
    samples: list[float] = []
    if args.trace:
        from tracing import REQUIRED_SPANS, Tracer

        # every input set runs untraced, so the simulated figures pool all of them
        untraced = measure(workload, args.seconds / 2, min_rounds=workload.sim_rounds)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        take = setup_sampler(workload.name, args.seed, samples)
        take(0.0)
        rounds = measure(workload, args.seconds, min_rounds=workload.sim_rounds, between=take)
        env["setup_samples_s"] = samples

    attempted = sum(rnd.tally.attempted for rnd in rounds)
    failed = sum(rnd.tally.failed for rnd in rounds)
    wrong = sum(rnd.tally.wrong for rnd in rounds)
    problems = [f"{wrong} wrong results"] if wrong else []
    firsts = first_of_each(rounds)
    if any(rnd.sim != firsts[rnd.r].sim for rnd in rounds):
        problems.append("a replayed round's simulated results differ from its first run")
    notes = [f"rounds: {len(rounds)} over {len(firsts)} input sets; ops attempted {attempted}, "
             f"failed {failed}, ops_failed_ratio {failed / max(attempted, 1):.6f}"]

    if tracer is not None:
        summary = tracer.summary()
        missing = [s for s in REQUIRED_SPANS[workload.name]
                   if summary.get(s, {}).get("calls", 0) == 0]
        if missing:
            problems.append(f"spans with zero calls on {workload.name}: {', '.join(missing)}")
        metrics = layer_metrics(untraced, traced, tracer)
        units = LAYER_UNITS
        out_dir = build_dir() / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, meta=env)
        notes.append(f"chrome trace: {trace_path} ({len(tracer.spans)} spans)")
        notes.append("spans per traced round: " + ", ".join(
            f"{k}={v['calls'] / len(traced):g}" for k, v in sorted(summary.items())))
    else:
        metrics = e2e_metrics(samples, rounds)
        units = E2E_UNITS
        notes.append(f"round walls (s): {[round(rnd.tally.wall_s, 4) for rnd in rounds]}")
        notes.append(f"reference task (s): {[round(rnd.ref_s, 4) for rnd in rounds]}")
        notes.append(f"round_ref: mean over {len(firsts)} input sets of the median round wall "
                     f"({len(rounds)} rounds) / mean reference time")
        notes.append(f"setup_s: median of {len(samples)} fresh-interpreter set-ups; "
                     f"simulated metrics: sum over {len(firsts)} input sets")
        sums = {}
        for rnd in firsts.values():
            for key, value in rnd.sim.items():
                if key != "latencies":
                    sums[key] = sums.get(key, 0.0) + value
        notes.append("simulated, summed over input sets: " + ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(sums.items())))

    report(workload, env, rounds, metrics, units, notes)
    for problem in problems:
        print(f"perfbench: INCORRECT {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process, results gathered by name."""
    from_here = str(Path(__file__).resolve())
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, from_here, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.environ.setdefault("REPRO_GF_NATIVE_CACHE", str(build_dir() / "gf-native"))
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
