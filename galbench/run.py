"""The galchar benchmark: one workload, one process, closed loop, one client.

    python3 galbench/run.py --workload theorem --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it builds the workload's inputs SETUP_REPEATS times, then
runs whole passes over them until ``--seconds`` have passed, and at least the
workload's MIN_PASSES, and prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs set-up plus one pass untraced, then the same again
with spans around galchar's public functions, checks that both give the same
answers, and prints the per-layer metrics.  Every answer is checked against ``expected.json``.  The last line
of standard output is the JSON result; the exit code is 1 if any input
failed.  Records, and for a traced run the spans, go to ``.galbench-out/``.
See NOTES.md for why each workload exists.
"""
import time

# Start-up before this line runs on one thread, so its CPU time is its wall time.
_STARTED = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".galbench-out")
SETUP_REPEATS = 3

# galchar is imported from the checkout's sources; without them this fails.
sys.path.insert(0, os.path.join(ROOT, "src"))
import numpy  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def build_inputs(workload: str, seed: int, tracer=None) -> list:
    """(key, group JSON, declared answers) for every buildable input."""
    out = []
    for spec in workloads.specs(workload):
        if tracer is not None:
            tracer.input_id = spec.key
        try:
            group = spec.build()
        except workloads.constructors.ParamsInvalid:
            continue
        out.append((spec.key, workloads.relabel(group, seed, spec.key), spec.declared))
    return out


def run_pass(job: str, inputs, seed: int, expected: dict, tracer=None):
    """Time and check every input once: (seconds per input, answers, failures)."""
    times, answers, failures = [], [], 0
    for key, text, _ in inputs:
        if tracer is not None:
            tracer.input_id = key
        t0 = time.perf_counter()
        try:
            answer = workloads.run_input(job, text, seed)
            problems = workloads.mismatches(answer, expected[key])
        except Exception as exc:  # noqa: BLE001 - a failed input is counted, not fatal
            answer, problems = None, [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t0)
        for problem in problems:
            print(f"FAIL {key}: {problem}", file=sys.stderr)
        failures += bool(problems)
        answers.append(answer)
    return times, answers, failures


def missing_inputs(inputs, expected: dict) -> int:
    """Inputs built but not expected, or expected but not built."""
    keys = {key for key, _, _ in inputs}
    for key in sorted(keys ^ set(expected)):
        print(f"FAIL {key}: built and expected inputs differ", file=sys.stderr)
    return len(keys ^ set(expected))


def measure(args, expected: dict, import_s: float):
    """End-to-end metrics of untraced passes, with tracing off."""
    job = workloads.JOBS[args.workload]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = build_inputs(args.workload, args.seed)
        builds.append(time.perf_counter() - t0)
    failed = missing_inputs(inputs, expected)
    attempted = failed
    min_passes = workloads.MIN_PASSES.get(args.workload, 1)
    walls, per_input = [], [[] for _ in inputs]
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        times, _, failures = run_pass(job, inputs, args.seed, expected)
        walls.append(time.perf_counter() - t0)
        for acc, t in zip(per_input, times):
            acc.append(t)
        attempted += len(inputs)
        failed += failures
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    record = {
        # the slowest input's median time: too noisy for a bounded metric
        "group_s_max": max(statistics.median(ts) for ts in per_input),
        "passes": len(walls),
        "pass_s": walls,
        "setup_build_s": builds,
        "import_s": import_s,
        "input_s": {key: ts for (key, _, _), ts in zip(inputs, per_input)},
    }
    return metrics, attempted, failed, record


def measure_traced(args, expected: dict):
    """Per-layer metrics: set-up plus one pass untraced, then traced."""
    job = workloads.JOBS[args.workload]
    t0 = time.perf_counter()
    inputs = build_inputs(args.workload, args.seed)
    _, plain, failed_plain = run_pass(job, inputs, args.seed, expected)
    wall_plain = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        inputs = build_inputs(args.workload, args.seed, tracer)
        _, traced, failed_traced = run_pass(job, inputs, args.seed, expected, tracer)
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    differ = sum(a != b for a, b in zip(plain, traced))
    if differ:
        print(f"FAIL: {differ} traced answers differ from untraced ones", file=sys.stderr)
    failed = missing_inputs(inputs, expected) + failed_plain + failed_traced + differ
    metrics = tracer.layer_metrics(wall_traced)
    metrics["trace_overhead_frac"] = wall_traced / wall_plain - 1
    record = {
        "untraced_s": wall_plain,
        "traced_s": wall_traced,
        "span_fields": ["name", "layer", "start", "end", "parent", "input"],
        "spans": tracer.spans,
    }
    return metrics, 2 * len(inputs), failed, record


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads_known = [w["name"] for w in spec["workloads"]] + ["smoke"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads_known)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_s = time.perf_counter() - _STARTED
    expected = workloads.load_expected()[args.workload]
    if args.trace:
        metrics, attempted, failed, record = measure_traced(args, expected)
    else:
        metrics, attempted, failed, record = measure(args, expected, import_s)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load_1m,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result, **record}, fh)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
