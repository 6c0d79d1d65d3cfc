"""The repository benchmark: one workload per run, metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tenants --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with the program exactly
as a caller runs it: passes of the workload run back to back for
``--seconds`` seconds and the medians are reported.  A fixed
calibration (``bench_calibrate.py``) runs between the operations, and
the times are reported at the calibration's reference host speed, so
that the host's own drift does not show as a change of the program.  ``--trace 1``
instead wraps each layer's entry points (``bench_trace.py``), takes
counts from the library's ``instrument=`` KernelStats, and reports
per-layer metrics; it also writes the spans as a Chrome trace under
``perfbench/out/``.  Either way every operation's output is checked and
the last line of standard output is the result object.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: idle BLAS pools must not compete with fleet's workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4
CALIBRATIONS = 3  # per set-up, after one unmeasured warm-up
CHANNELS = ("death", "comp", "boot", "reap", "arr")


def _cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _calibrate() -> tuple[float, float]:
    """One calibration, with the collector off so that the program's
    garbage is not collected (and timed) inside it."""
    import bench_calibrate as bc

    gc.disable()
    try:
        return bc.calibrate()
    finally:
        gc.enable()


class Pass:
    """Times of one pass: in total, per operation (``ops`` maps each to
    its (wall, CPU) seconds), and the (wall, CPU) seconds of the
    calibrations run before its first and after each of its operations
    when the pass was calibrated."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.ops: dict[str, tuple[float, float]] = {}
        self.cals: list[tuple[float, float]] = []


def _at_reference(passes: list[Pass]) -> tuple[float, float]:
    """(wall, CPU) seconds of a pass at the reference host speed.

    Each operation takes its median over the passes; their sum is
    scaled by ``REFERENCE_S`` over the mean of all the run's
    calibrations.  The mean over a run follows the host's drift, which
    lasts minutes, and averages out the scatter of single 20 ms
    calibrations, which would otherwise land on single operations.
    """
    import bench_calibrate as bc

    cals = [c for p in passes for c in p.cals]
    return tuple(
        sum(statistics.median(p.ops[n][i] for p in passes) for n in passes[0].ops)
        * bc.REFERENCE_S / statistics.fmean(c[i] for c in cals)
        for i in (0, 1)
    )


class Runner:
    """Runs passes of one workload, checks and digests every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.results: list = []  # outputs of ``keep=True`` passes, for KernelStats

    def run_pass(self, *, instrument: bool, serial: bool, tracer=None, keep=False,
                 calibrate=False) -> Pass:
        """One timed pass.  With ``calibrate``, a calibration runs before
        the first operation and after each one, outside the timed regions."""
        from repro.policies.checkpointing import FixedPointWarning

        ops = self.workload.ops(instrument=instrument, serial=serial)
        outcomes = []
        p = Pass()
        if calibrate:
            p.cals.append(_calibrate())
        if tracer is not None:
            tracer.begin("bench.pass")
        for op in ops:
            if tracer is not None:
                tracer.begin("bench.op", op.name)
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", FixedPointWarning)
                    outcomes.append((op, op.run(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                outcomes.append((op, None, f"{type(exc).__name__}: {exc}"))
            finally:
                wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
                if tracer is not None:
                    tracer.end()
            p.wall += wall
            p.cpu += cpu
            p.ops[op.name] = (wall, cpu)
            if calibrate:
                p.cals.append(_calibrate())
        if tracer is not None:
            tracer.end()
        self._check(outcomes, keep)
        return p

    def _check(self, outcomes, keep: bool) -> None:
        import bench_workloads as bw

        for op, result, error in outcomes:
            self.attempted += 1
            bad = [error] if error else op.check(result)
            if not error:
                d = bw.digest(result)
                if self.digests.setdefault(op.name, d) != d:
                    bad.append("output differs from an earlier pass at the same seed")
                if keep:
                    self.results.append(result)
            if bad:
                self.failed += 1
                self.problems.extend(f"{op.name}: {p}" for p in bad)

    def passes(self, seconds: float, **kw) -> list[Pass]:
        """Run passes until ``seconds`` have elapsed (at least one)."""
        out = []
        t0 = time.perf_counter()
        while not out or time.perf_counter() - t0 < seconds:
            out.append(self.run_pass(**kw))
        return out


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child (a shard worker), in MiB; ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _setup_at_reference(setup_s: float) -> float:
    """``setup_s`` at the reference host speed, calibrated right after."""
    import bench_calibrate as bc

    _calibrate()  # warm-up
    cal = statistics.median(_calibrate()[0] for _ in range(CALIBRATIONS))
    return setup_s * bc.REFERENCE_S / cal


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter (imports, law, inputs): raw
    and at the reference host speed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["setup_ref_s"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, args, setup: tuple[float, float]) -> dict:
    timings = runner.passes(args.seconds, instrument=False, serial=False, calibrate=True)
    sweep_s, cpu_s = _at_reference(timings)
    rss = _peak_rss_mb()
    # Fresh interpreters after the timed passes, so the probes neither
    # perturb the passes nor enter the children's peak RSS above.
    setups = [setup] + [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    print(f"passes {len(timings)}: wall " + " ".join(f"{p.wall:.3f}" for p in timings)
          + f" | at reference {sweep_s:.3f}"
          + " | setup " + " ".join(f"{s:.3f}/{r:.3f}" for s, r in setups), file=sys.stderr)
    return {
        "sweep_s": _metric(sweep_s, "s"),
        "cpu_s": _metric(cpu_s, "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "setup_s": _metric(statistics.median([r for _, r in setups]), "s"),
        "success_frac": _metric(1.0 - runner.failed / max(runner.attempted, 1), "frac"),
    }


def per_layer(runner: Runner, args) -> dict:
    """Untraced passes, then traced passes of the same configuration,
    then one instrumented pass for the ``KernelStats`` counts.

    The spans and the counts come from separate passes because
    ``instrument=True`` does work of its own (the service kernels'
    boot-grace census calls Eq. 8 again), which would inflate the spans.
    """
    import bench_trace as bt

    serial = args.workload == "fleet"  # spans in forked workers are lost
    half = args.seconds / 2.0
    plain = runner.passes(half, instrument=False, serial=serial)
    tracer = bt.Tracer()
    tracer.install({type(d) for d in runner.workload.dists})
    try:
        traced = runner.passes(half, instrument=False, serial=serial, tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    # Sharded, as the end-to-end run is: fleet's shard and merge phases.
    runner.run_pass(instrument=True, serial=False, keep=True)
    stats = [s for r in runner.results for s in _stats_of(r)]
    vec = [s for s in stats if s.backend != "event"]
    event = [s for s in stats if s.backend == "event"]
    layer_self = tracer.layer_self()
    m = {}

    def put(name, total, unit, passes=n):
        m[name] = _metric(total / passes, unit)

    def counted(name, total, unit="count"):  # from the one instrumented pass
        m[name] = _metric(total, unit)

    def phase(name):
        return sum(s.phase_seconds.get(name, 0.0) for s in stats)

    put("backend.self_s", layer_self["backend"], "s")
    counted("backend.shards_s", phase("shards"), "s")
    counted("backend.merge_s", phase("merge"), "s")
    counted("backend.chunks", sum(len(s.chunk_sizes) for s in stats))
    counted("backend.shards", sum(len(s.shards) for s in stats))
    put("kernel.self_s", layer_self["kernel"], "s")
    counted("arena.rounds", sum(s.n_rounds for s in vec))
    counted("arena.events", sum(sum(s.channel_events.values()) for s in vec))
    for ch in CHANNELS:
        counted(f"arena.events.{ch}", sum(s.channel_events.get(ch, 0) for s in vec))
    counted("draw.rows", sum(s.rng_rows for s in stats))
    counted("draw.values", sum(s.n_draws for s in stats))
    for span in ("arena.select", "draw.ppf", "eq8.pairs", "eq8.scalar",
                 "dp.plan", "dp.walk", "dp.solve"):
        put(f"{span}_calls", tracer.calls.get(span, 0), "count")
        put(f"{span}_s", tracer.incl.get(span, 0.0), "s")
    put("eq8.pairs", tracer.elements.get("eq8.pairs", 0), "count")
    put("oracle.s", tracer.incl.get("oracle", 0.0), "s")
    counted("oracle.events", sum(sum(s.channel_events.values()) for s in event))
    put("oracle.self_s", layer_self["oracle"], "s")
    put("bench.self_s", layer_self["bench"], "s")
    sweep = sum(p.wall for p in traced)
    for layer in bt.LAYERS:
        put(f"{layer}.share", layer_self[layer], "frac", sweep)
    traced_s = statistics.median([p.wall for p in traced])
    m["trace.sweep_s"] = _metric(traced_s, "s")
    m["trace.overhead_frac"] = _metric(traced_s / statistics.median([p.wall for p in plain]) - 1.0, "frac")
    path = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    tracer.write_chrome_trace(str(path))
    print(f"chrome trace: {path.relative_to(HERE.parent)} "
          f"({len(tracer.spans)} spans, {n} traced passes)", file=sys.stderr)
    return m


def _stats_of(result):
    if isinstance(result, tuple):
        return [s for r in result for s in _stats_of(r)]
    stats = getattr(result, "stats", None)
    return [stats] if stats is not None else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the set-up time")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = bw.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T_START
    runner = Runner(workload)
    if args.trace:
        metrics = per_layer(runner, args)
    else:
        setup = (setup_s, _setup_at_reference(setup_s))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0], "setup_ref_s": setup[1]}))
            return 0
        metrics = end_to_end(runner, args, setup)
    combined = bw.digest(tuple(sorted(runner.digests.items())))
    print(f"digest {args.workload} seed={args.seed} sha256={combined}")
    for p in runner.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
