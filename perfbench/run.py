"""qfakit benchmark: one workload per process, one caller, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program under test is imported from ``src/`` of the same checkout.
With ``--trace 0`` the run times the set-up in fresh child processes,
does one warm-up pass, then runs timed passes for ``--seconds`` seconds
and prints the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes over the same time and prints the per-layer
metrics (per set-up plus pass) and the tracing overhead.  Every pass is
checked against the exact oracles in oracle.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, the gate and the sample counts.  The exit
code is 2, with no result printed, when the program cannot be imported
or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5  # child processes timed per run for setup_s
TRACED_SETUPS = 3
# Layer metrics printed with --trace 1.  "<span>.s" is the span's self
# time, "<span>.calls" its call count, both per set-up plus pass.
LAYER_METRICS = (
    "qfa.step.calls",
    "qfa.step.s",
    "qfa.run.calls",
    "qfa.run.s",
    "qfa.accept_probability.calls",
    "circulant.matmul.calls",
    "circulant.matmul.s",
    "circulant.power.s",
    "circulant.iter_powers.s",
    "circulant.classify_special.calls",
    "circulant.classify_special.s",
    "circulant.to_dense.s",
    "divisibility.build_qfa.s",
    "modular.quad_exp_sum.calls",
    "modular.quad_exp_sum.s",
    "modular.factorize.s",
    "divisibility.minimize_dfa.s",
    "divisibility.minimize_dfa.states",
    "divisibility.build_dfa.s",
    "divisibility.is_member.calls",
    "cli.scan_report.self_s",
    "cli.lemma_report.self_s",
    "cli.compare_report.self_s",
)
MODULES = ("modular", "circulant", "qfa", "divisibility", "cli")


class SetupError(RuntimeError):
    pass


def _import_program():
    """Import qfakit from this checkout's src/, or raise SetupError."""
    if not (SRC / "qfakit" / "__init__.py").is_file():
        raise SetupError(f"no qfakit package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import qfakit
        import workloads
    except ImportError as exc:
        raise SetupError(f"cannot import qfakit: {exc}") from exc
    if Path(qfakit.__file__).resolve().parent != SRC / "qfakit":
        raise SetupError(f"qfakit imported from {qfakit.__file__}, not from {SRC}")
    return workloads


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfakit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _time_setups(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh child processes, and their start-up times.

    Each child starts the interpreter and imports numpy, then reads
    CLOCK_MONOTONIC, imports qfakit, builds the machines and makes the
    inputs, and reads the clock again.  The set-up time is the span
    between the two readings; the start-up time runs from just before
    the spawn to the first reading.  The two are kept apart because the
    numpy import alone took from 0.07 to 0.17 s in back-to-back child
    processes on a 2-vCPU VM, far more than qfakit's own set-up.
    """
    setups, startups = [], []
    for _ in range(SETUP_REPEATS):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
        spawned = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        started, ready = map(float, proc.stdout.split()[-2:])
        setups.append(ready - started)
        startups.append(started - spawned)
    return setups, startups


def _tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile with ten samples beyond it.

    With nearest-rank percentiles that is the eleventh-largest sample,
    at percentile 100 * (n - 10) / n.  The percentile moves smoothly
    with the pass count, so runs of the same code whose counts differ a
    little report nearly the same percentile.  With fewer than 20
    samples the median is reported, and the count beyond it says so.
    """
    ordered = sorted(times)
    count = len(ordered)
    rank = max(count - 10, math.ceil(count / 2))
    return 100 * rank / count, ordered[rank - 1], count - rank


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _measure(workload, inputs, seconds: float, gate, tracer=None):
    """Warm up once, then run passes for `seconds`.

    Returns (untraced pass times, traced pass times, per-traced-pass
    tracer deltas).  With a tracer, every second pass is traced.
    """
    warm = workload.run_pass(inputs, 0)
    workload.check_pass(inputs, warm, gate)
    warm = None
    plain, traced, deltas = [], [], []
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if tracer is not None and index % 2 == 0:
            tracer.install()
            before = tracer.snapshot()
            t0 = time.perf_counter()
            with tracer.span("bench.pass"):
                out = workload.run_pass(inputs, index)
            traced.append(time.perf_counter() - t0)
            tracer.uninstall()
            deltas.append(_delta(tracer.snapshot(), before))
        else:
            t0 = time.perf_counter()
            out = workload.run_pass(inputs, index)
            plain.append(time.perf_counter() - t0)
        workload.check_pass(inputs, out, gate)
        out = None
        index += 1
    return plain, traced, deltas


def _end_to_end(workload, seed: int, seconds: float, gate, info: dict) -> dict:
    setups, startups = _time_setups(workload.name, seed)
    t0 = time.perf_counter()
    inputs = workload.setup(seed)
    info["setup_inprocess_s"] = time.perf_counter() - t0
    times, _, _ = _measure(workload, inputs, seconds, gate)
    workload.finish(inputs, gate)
    q, tail, beyond = _tail(times)
    info.update(
        setup_samples_s=setups,
        startup_samples_s=startups,
        passes=len(times),
        pass_s_min=min(times),
        pass_s_quartiles=statistics.quantiles(times, n=4),
        tail_percentile=q,
        samples_beyond_tail=beyond,
        items_per_pass=workload.items_per_pass,
    )
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "verdict_s": _metric(statistics.median(times), "s"),
        "verdict_s_tail": _metric(tail, "s"),
        "items_per_s": _metric(workload.items_per_pass * len(times) / sum(times), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(workload, seed: int, seconds: float, gate, info: dict) -> dict:
    tracer = Tracer()
    setup_deltas = []
    for _ in range(TRACED_SETUPS):
        tracer.install()
        before = tracer.snapshot()
        with tracer.span("bench.setup"):
            inputs = workload.setup(seed)
        tracer.uninstall()
        setup_deltas.append(_delta(tracer.snapshot(), before))
    plain, traced, pass_deltas = _measure(workload, inputs, seconds, gate, tracer)
    workload.finish(inputs, gate)

    def per_iteration(key: str) -> float:
        return sum(statistics.median_low([d.get(key, 0) for d in deltas]) for deltas in (setup_deltas, pass_deltas))

    metrics = {}
    for name in LAYER_METRICS:
        if name.endswith(".s"):
            metrics[name] = _metric(per_iteration(name[:-2] + ".self_s"), "s")
        else:
            metrics[name] = _metric(per_iteration(name), "s" if name.endswith("_s") else "count")
    steps, dim = metrics["qfa.step.calls"]["value"], workload.dim
    metrics["qfa.step.flops_computed"] = _metric(8 * dim * dim * steps, "flop")
    metrics["qfa.step.bytes_computed"] = _metric(16 * dim * dim * steps, "B")
    attempts = per_iteration("circulant.classify_special.calls")
    hits = per_iteration("circulant.classify_special.hits")
    metrics["circulant.classify_special.hit_ratio"] = _metric(hits / attempts if attempts else 0.0, "ratio")
    verdict_traced, verdict_plain = statistics.median(traced), statistics.median(plain)
    metrics["trace.overhead_frac"] = _metric(verdict_traced / verdict_plain - 1.0, "ratio")

    # Share of the traced pass time spent in each module's own code.
    info["self_share_of_traced_pass"] = {
        module: statistics.median(
            sum(v for k, v in d.items() if k.startswith(module + ".") and k.endswith(".self_s"))
            for d in pass_deltas
        )
        / verdict_traced
        for module in MODULES
    }
    info.update(
        absent=tracer.absent,
        passes_untraced=len(plain),
        passes_traced=len(traced),
        verdict_s_untraced=verdict_plain,
        verdict_s_traced=verdict_traced,
    )
    spans_file = HERE / "out" / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_file, {"workload": workload.name, "seed": seed, "stats": tracer.stats})
    info["spans_file"] = spans_file.relative_to(ROOT).as_posix()
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.setup_only:
            import numpy  # noqa: F401  (counted as start-up, not as qfakit's set-up)

            started = time.monotonic()
        workloads = _import_program()
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]
        if args.setup_only:
            workload.setup(args.seed)
            print(started, time.monotonic())
            return 0

        self_test = oracle.self_test()
        gate = oracle.Gate()
        info = {
            "benchmark": "qfakit",
            "workload": workload.name,
            "inputs": "seeded" if workload.seeded else "fixed (seed ignored)",
            "trace": args.trace,
            "seconds": args.seconds,
            "env": _environment(args.seed),
        }
        measure = _per_layer if args.trace else _end_to_end
        metrics = measure(workload, args.seed, args.seconds, gate, info)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # A gate that cannot flag a perturbed probability and a wrong DFA count certifies nothing.
    gate_can_fail = self_test.failed == 2
    info["gate"] = gate.summary()
    info["gate_self_test"] = self_test.summary()
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0 and gate_can_fail,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
