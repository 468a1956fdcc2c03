#!/usr/bin/env python3
"""trigvee benchmark: time to verdict on four workloads, per-layer traced timings.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rootsys-exact, multiplicity-search, catalog-sweep, cli-cold.
The run goes round the workload's fixed task list (one task at a time, BLAS
threads pinned to 1, the whole process on one CPU) until at least S seconds
have passed and every task has run, checks every verdict against its
reference answer, and prints a report followed by one JSON line with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (setup_s, cpu_s, task_cpu_ms_p50, task_cpu_ms_p90,
ok_ratio, peak_rss_mb; the report also prints wall-clock figures); with
--trace 1 untraced and traced passes alternate, and the metrics are the
per-layer ones plus the tracing overhead.

Times in the metrics are CPU times at the reference speed of `speed.py`:
each measured CPU time is scaled by the host speed sampled while it ran.

`attempted` is the number of tasks in the list; `failed` counts those whose
verdict disagreed with the reference on any run of them, including the two
known defects (ROADMAP items D and E), which are listed by name.  `correct`
is false when any other disagreement or error occurs.

Every run is appended to .bench_runs/runs.jsonl; a traced run also writes
its spans to .bench_runs/spans-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import Sampler, pin_to_one_cpu

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5  # fresh processes timed for setup_s
IMPORT_SAMPLES = 3  # `python -X importtime` children per traced run
TAIL_MIN_BEYOND = 10  # samples a tail percentile needs beyond it

# End-to-end metrics (--trace 0) and their units.  Times are CPU time of
# the thread or child processes doing the work, at the reference speed: on a
# shared virtual machine wall time also counts the time the hypervisor gives
# to other guests, and raw CPU time moves with the load they put on the
# host.  The report lines also print the wall-clock figures.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "task_cpu_ms_p50": "ms",
    "task_cpu_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken task lists, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--cli-trace", metavar="OUT", help=argparse.SUPPRESS)
    p.add_argument("cli_argv", nargs="*", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.cli_trace is None and args.workload is None:
        p.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# child-process modes
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time of this thread and of this process's waited-for children:
    the work a task does, without the speed sampler's thread."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def setup_probe(args) -> int:
    """Imports, input generation and warm-up; then prints 'ready <cpu s>'."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        wl.warm_up()
    finally:
        wl.close()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)  # cli-cold's warm-up
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    print(f"ready {cpu!r}", flush=True)
    return 0


def cli_trace(args) -> int:
    """Run one CLI command in this process with tracing on."""
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    from trigvee import cli

    tr.active = True
    try:
        code = cli.main(args.cli_argv)
    finally:
        tr.active = False
        tr.uninstall()
        with open(args.cli_trace, "w", encoding="utf-8") as fh:
            json.dump(tr.snapshot(), fh)
    return code


def _time_child(cmd: list[str], env: dict, speed: Sampler) -> tuple[float, float, float]:
    """Wall seconds from spawning `cmd` until it prints 'ready <cpu s>', the
    CPU seconds it reports, and those at the reference speed."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if len(line) != 2 or line[0] != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {cmd}")
    cpu = float(line[1])
    return elapsed, cpu, cpu * speed.factor(start, start + elapsed)


def measure_setup(args, samples: int, speed: Sampler) -> list[tuple[float, float, float]]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONPATH=SRC)
    return [_time_child(cmd, env, speed) for _ in range(samples)]


def import_times(samples: int, speed: Sampler) -> dict[str, float]:
    """Median cumulative import ms of numpy, scipy.optimize and the rest of
    trigvee.cli at the reference speed, from `python -X importtime` children."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = {"numpy_ms": [], "scipy_ms": [], "trigvee_ms": []}
    for _ in range(samples):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trigvee.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stderr
        scale = speed.factor(start, time.perf_counter())
        cumulative = {}
        for line in out.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000 * scale)
        numpy_ms, scipy_ms = cumulative["numpy"], cumulative["scipy.optimize"]
        runs["numpy_ms"].append(numpy_ms)
        runs["scipy_ms"].append(scipy_ms)
        runs["trigvee_ms"].append(cumulative["trigvee.cli"] - numpy_ms - scipy_ms)
    return {k: statistics.median(v) for k, v in runs.items()}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _last_line() -> str:
    return traceback.format_exc(limit=-3).strip().splitlines()[-1]


def run_task(task, tracer, speed: Sampler) -> dict:
    """Run one task; time its body and check its outputs untimed."""
    if tracer is not None:
        tracer.task = task.name
        tracer.active = True
    cpu = cpu_seconds()
    start = time.perf_counter()
    error = None
    # a task that raises, or whose output its check cannot read, is an
    # unexpected failure; the run goes on measuring
    try:
        out = task.body(tracer)
    except Exception:
        error = ("run", _last_line())
    finally:
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu
        if tracer is not None:
            tracer.active = False
    if error is None:
        try:
            findings = [vars(f) for f in task.check(out)]
        except Exception:
            error = ("check", _last_line())
    if error is not None:
        findings = [{"stage": error[0], "detail": error[1], "defect": None}]
    return {
        "task": task.name,
        "start": start,
        "s": end - start,
        "cpu": cpu,
        "ref": cpu * speed.factor(start, end),
        "findings": findings,
    }


def run_pass(wl, tracer, speed: Sampler) -> list[dict]:
    return [run_task(task, tracer, speed) for task in wl.tasks]


def measure(wl, seconds: float, speed: Sampler) -> list[dict]:
    """Round the task list until `seconds` have passed and every task has run."""
    records = []
    start = time.perf_counter()
    while len(records) < len(wl.tasks) or time.perf_counter() - start < seconds:
        records.append(run_task(wl.tasks[len(records) % len(wl.tasks)], None, speed))
    return records


def measure_traced(wl, seconds: float, tr, speed: Sampler):
    """An untraced and a traced pass in turn until `seconds` have passed.
    The wrappers are installed only for the traced passes, so the untraced
    ones pay nothing for them."""
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(wl, None, speed))
        tr.install()
        try:
            traced.append(run_pass(wl, tr, speed))
        finally:
            tr.uninstall()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def pass_total(records, clock: str = "s") -> float:
    """Seconds of one pass: wall ("s"), CPU ("cpu") or CPU at the reference
    speed ("ref")."""
    return sum(r[clock] for r in records)


def per_task(records, clock: str) -> dict[str, float]:
    """Median over its runs of each task's seconds."""
    runs: dict[str, list[float]] = {}
    for r in records:
        runs.setdefault(r["task"], []).append(r[clock])
    return {task: statistics.median(v) for task, v in runs.items()}


def _tail(ms: list[float]) -> tuple[float, int]:
    """p90, interpolated between samples, and the number beyond it."""
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return p90, sum(x > p90 for x in ms)


def summarize(records):
    """Names of the tasks that failed on any run, and of those that failed
    other than by a known defect."""
    failed = {r["task"] for r in records if r["findings"]}
    unexpected = {
        r["task"] for r in records if any(f["defect"] is None for f in r["findings"])
    }
    return failed, unexpected


def end_to_end_metrics(wl, records, setup) -> tuple[dict, list[str]]:
    failed, _ = summarize(records)
    ref_ms = [v * 1000 for v in per_task(records, "ref").values()]
    wall_ms = [v * 1000 for v in per_task(records, "s").values()]
    ref_p90, ref_beyond = _tail(ref_ms)
    p90, beyond = _tail(wall_ms)
    if wl.cli is not None:
        rss_kb = wl.cli.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = f"n = {len(ref_ms)} tasks, each the median of its runs"
    weak = f" (fewer than {TAIL_MIN_BEYOND}: a weak tail estimate)"
    ref = "CPU at the reference speed"
    rows = [
        ("setup_s", statistics.median(r for _w, _c, r in setup), "s",
         f"{ref}, median of {len(setup)} fresh processes: imports, inputs, warm-up"),
        ("setup_cpu_s", statistics.median(c for _w, c, _r in setup), "s", "raw CPU, same processes"),
        ("setup_wall_s", statistics.median(w for w, _c, _r in setup), "s", "wall, same processes"),
        ("cpu_s", sum(ref_ms) / 1000, "s",
         f"{ref}, one pass: the sum over tasks of their medians over {len(records)} task runs"),
        ("wall_s", sum(wall_ms) / 1000, "s", "wall, same sum"),
        ("task_cpu_ms_p50", statistics.median(ref_ms), "ms", f"{ref}, {n}"),
        ("task_ms_p50", statistics.median(wall_ms), "ms", f"wall, {n}"),
        ("task_cpu_ms_p90", ref_p90, "ms",
         f"{ref}, {n}, {ref_beyond} beyond" + ("" if ref_beyond >= TAIL_MIN_BEYOND else weak)),
        ("task_ms_p90", p90, "ms",
         f"wall, {n}, {beyond} beyond" + ("" if beyond >= TAIL_MIN_BEYOND else weak)),
        ("ok_ratio", 1 - len(failed) / len(wl.tasks), "ratio", "tasks agreeing with the reference"),
        ("fail_ratio", len(failed) / len(wl.tasks), "ratio",
         f"{len(failed)}/{len(wl.tasks)} tasks failed on some run"),
        ("peak_rss_mb", rss_kb / 1024, "MB",
         "peak over the CLI child processes" if wl.cli is not None else "this process"),
    ]
    lines = [f"{k} = {v:.6g} {unit}  ({note})" for k, v, unit, note in rows]
    return {k: v for k, v, _u, _n in rows if k in END_TO_END}, lines


def layer_metrics(tr, n_passes: int, scale: float, imports: dict, untraced, traced) -> dict:
    """Per-layer metrics, per pass of the task list; span times are scaled
    to the reference speed by `scale`."""
    from tracer import SPANS

    ms = scale / 1e6 / n_passes  # ns of all traced passes -> ms per pass
    m = {}
    for name, _mod, _path in SPANS:
        m[f"{name}.ms"] = tr.total_ns.get(name, 0) * ms
        m[f"{name}.self_ms"] = tr.self_ns.get(name, 0) * ms
    for name in ("configuration.build_configuration", "configuration.alpha_series"):
        m[f"{name}.calls"] = tr.calls.get(name, 0) / n_passes
    m["multipoly.evaluate_float.ms"] = tr.total_ns.get("multipoly.evaluate_float", 0) * ms
    m["multipoly.evaluate_float.calls"] = tr.calls.get("multipoly.evaluate_float", 0) / n_passes
    for key in (
        "configuration.vee_product.calls",
        "configuration.series",
        "configuration.components",
        "veecheck.residuals",
        "veecheck.residuals_nonzero",
        "wdvv.points",
        "cms.cms_to_vee.nonscalar",
        "constraints.polys",
        "constraints.terms",
        "constraints.starts",
        "constraints.certified",
    ):
        m[key] = tr.counts.get(key, 0) / n_passes
    m["constraints.certified_ratio"] = (
        m["constraints.certified"] / m["constraints.starts"] if m["constraints.starts"] else 0.0
    )
    m["veecheck.lambda2_bits"] = tr.maxima.get("veecheck.lambda2_bits", 0)
    for key, value in imports.items():
        m[f"cli.import.{key}"] = value
    m["trace.wall_s_untraced"] = untraced[0]
    m["trace.wall_s_traced"] = traced[0]
    m["trace.overhead_ms"] = (traced[0] - untraced[0]) * 1000
    m["trace.overhead_cpu_ms"] = (traced[1] - untraced[1]) * 1000
    return m


def layer_unit(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.startswith("trace.wall_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bit"
    return "count"


def baseline_lines(tr, workload: str, n_passes: int) -> list[str]:
    """Traced figures next to the ROADMAP baseline rows they reproduce.  The
    rows are wall times, so these figures are too, unscaled."""
    with open(os.path.join(BENCH_DIR, "baseline.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    lines = []
    for row in rows:
        if row["workload"] != workload:
            continue
        span = row["metric"].rsplit(".", 1)[0]
        calls = tr.task_calls.get((row["task"], span), 0)
        if not calls:
            lines.append(f"baseline {row['roadmap']}: task {row['task']} not run")
            continue
        total_ms = tr.task_ns[(row["task"], span)] / 1e6
        value_ms = total_ms / calls if row.get("per_call") else total_ms / n_passes
        low, high = row["roadmap_ms"]
        ratio = value_ms / ((low + high) / 2)
        inside = low * 0.6 <= value_ms <= high * 1.4
        lines.append(
            f"baseline {row['roadmap']}: roadmap {low:g}-{high:g} ms, measured {value_ms:.1f} ms "
            f"({row['task']} {row['metric']}{' per call' if row.get('per_call') else ''}), "
            f"ratio {ratio:.2f}, {'within' if inside else 'OUTSIDE'} +-40%"
        )
    return lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def input_hash(wl) -> str:
    spec = [[t.name, t.spec] for t in wl.tasks]
    return hashlib.sha256(json.dumps(spec, sort_keys=True, default=str).encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trigvee", "__init__.py")):
        print(f"error: no trigvee sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if args.cli_trace is not None:
        return cli_trace(args)
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    with Sampler() as speed:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        try:
            wl.warm_up()
            speed.wait_for_samples()
            return report(args, wl, speed)
        finally:
            wl.close()


def report(args, wl, speed: Sampler) -> int:
    env = environment()
    digest = input_hash(wl)
    lines = [
        f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}"
        + (", tiny" if args.tiny else ""),
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        f"inputs: {len(wl.tasks)} tasks, sha256 {digest}",
        "loop: closed, one task at a time, BLAS threads pinned to 1, one CPU",
    ]
    spans_path = None
    if args.trace == 0:
        setup = measure_setup(args, 1 if args.tiny else SETUP_SAMPLES, speed)
        records = measure(wl, args.seconds, speed)
        metrics, metric_lines = end_to_end_metrics(wl, records, setup)
        units = END_TO_END
        lines += metric_lines
    else:
        from tracer import Tracer

        tr = Tracer()
        untraced, traced = measure_traced(wl, args.seconds, tr, speed)
        records = [r for p in untraced + traced for r in p]
        imports = import_times(1 if args.tiny else IMPORT_SAMPLES, speed)
        wall = [statistics.median(pass_total(p) for p in ps) for ps in (untraced, traced)]
        ref = [statistics.median(pass_total(p, "ref") for p in ps) for ps in (untraced, traced)]
        # the traced passes' CPU over their wall time: span times are wall
        # times, scaled by the host speed while they ran
        scale = sum(pass_total(p, "ref") for p in traced) / sum(pass_total(p, "cpu") for p in traced)
        metrics = layer_metrics(tr, len(traced), scale, imports, (wall[0], ref[0]), (wall[1], ref[1]))
        units = {k: layer_unit(k) for k in metrics}
        lines.append(
            f"tracing overhead: {metrics['trace.overhead_ms']:.1f} ms per pass "
            f"wall, {metrics['trace.overhead_cpu_ms']:.1f} ms CPU at the reference speed "
            f"({wall[0]:.3f} s wall untraced over {len(untraced)} passes, "
            f"{wall[1]:.3f} s traced over {len(traced)} passes)"
        )
        lines += [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
        lines += baseline_lines(tr, wl.name, len(traced))
        os.makedirs(RUNS_DIR, exist_ok=True)
        spans_path = os.path.join(RUNS_DIR, f"spans-{wl.name}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "task", "start_ns", "end_ns"], "spans": tr.spans}, fh
            )

    failed, unexpected = summarize(records)
    seen: dict[tuple, int] = {}
    for rec in records:
        for f in rec["findings"]:
            key = (rec["task"], f["stage"], f["detail"], f["defect"])
            seen[key] = seen.get(key, 0) + 1
    for (task, stage, detail, defect), count in seen.items():
        tag = f"known defect {defect}" if defect else "UNEXPECTED"
        lines.append(f"failed: {task} {stage}: {detail} [{tag}] x{count} runs")
    result = {
        "correct": not unexpected,
        "attempted": len(wl.tasks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        entry = {
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "environment": env,
            "input_sha256": digest,
            "task_runs": [[r["task"], r["s"], r["cpu"], r["ref"]] for r in records],
            "speed_samples": len(speed.chunks),
            "spans": spans_path,
            "failures": [[*key, count] for key, count in seen.items()],
            "result": result,
        }
        fh.write(json.dumps(entry) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
