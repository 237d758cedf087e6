#!/usr/bin/env python3
"""greymatch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload yearly-search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``
of that checkout and nowhere else, so the command fails (exit 1, no result)
where ``src/greymatch`` is missing.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a readable
summary goes to standard error, and the full record (environment, output
digests, per-call samples, checks) to ``.perfbench/<workload>-seed<n>-trace<t>.json``.

A run repeats the workload's cycle of calls (see ``workloads.py``) in one
closed loop with one client: always one whole cycle, then further calls until
``--seconds`` have passed.  Timings are per call: each call's median over the
run, so a run that stops part way through a cycle still weighs every call once.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- importing greymatch and building the inputs, the median of
  three fresh interpreters (each pays the import again);
* ``wall_s`` -- one cycle, as the sum of the per-call medians;
* ``ops_per_s`` -- operations of one cycle over ``wall_s``; an operation is
  an exponent candidate (yearly-search), a (replication, estimator) fit
  (mc-sweep) or a command (cli-session);
* ``call_p50_ms`` -- the median over the cycle's calls of their median latency;
* ``peak_rss_mb`` -- peak resident memory of this process (one workload per process).

``--trace 1`` measures the cycle untraced for half of ``--seconds`` and then
runs exactly one cycle with every public function of every greymatch module
wrapped (``tracer.py``); it reports the per-layer metrics of that cycle and
``trace.overhead_pct``, the traced cycle's extra time over the untraced one.
It fails (``correct`` false) if a layer the workload exercises reads zero.

Every repeat of a call must reproduce the digest of its first outputs, the
traced cycle included, and the outputs of the cycle must pass the package's
acceptance bounds (``workloads.check``).  ``attempted`` counts the operations
of every call made; ``failed`` those of calls that raised or returned another
outcome than the workload expects.  The flagged failures the program is meant
to produce (Monte Carlo blow-ups, the CLI exit 5 of the domain-error command)
are expected outcomes and are reported per layer instead.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
#: after the first cycle, a call that would likely end past this multiple of
#: --seconds is skipped, which bounds the length of a run
STOP_SLACK = 1.15

#: layer metrics that must be non-zero after one traced cycle of each workload
COVERAGE = {
    "yearly-search": ("ode.integrations", "ode.rk4_steps", "ode.rhs_evals", "ode.self_s",
                      "core.basis_evals", "core.self_s", "integral_matching.fits",
                      "integral_matching.candidates", "integral_matching.candidates_scored_ratio",
                      "integral_matching.self_s", "transform.calls", "metrics.calls",
                      "cli.commands", "cli.io_s", "cli.self_s"),
    "mc-sweep": ("ode.integrations", "ode.rk4_steps", "ode.rhs_evals", "ode.self_s",
                 "core.basis_evals", "core.jacobian_evals", "core.self_s",
                 "grey_twostep.fits", "grey_twostep.self_s", "grey_twostep.lstsq_calls",
                 "integral_matching.fits", "integral_matching.design_s",
                 "integral_matching.self_s", "simulate.replications", "simulate.clean_s",
                 "simulate.noise_s", "simulate.self_s", "transform.calls", "metrics.calls"),
    "cli-session": ("ode.integrations", "ode.rk4_steps", "ode.rhs_evals", "ode.self_s",
                    "ode.domain_exits", "core.basis_evals", "core.jacobian_evals",
                    "core.self_s", "grey_twostep.fits", "grey_twostep.self_s",
                    "grey_twostep.init_searches", "grey_twostep.init_integrations",
                    "grey_twostep.init_s", "integral_matching.fits",
                    "integral_matching.design_s", "transform.calls", "metrics.calls",
                    "cli.commands", "cli.io_s", "cli.self_s"),
}


def coverage_gaps(name, metrics):
    """Layer metrics that read zero although the workload exercises that layer."""
    return [key for key in COVERAGE[name] if not metrics[key] > 0]


def import_greymatch():
    """Import greymatch from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import greymatch
    import greymatch.cli  # noqa: F401

    if Path(greymatch.__file__).resolve().parent != SRC / "greymatch":
        raise ImportError(f"greymatch imported from {greymatch.__file__}, not from {SRC}")
    return greymatch


def setup(name, seed, workdir, tiny):
    """Import greymatch and build the workload's inputs; return (seconds, workload)."""
    start = perf_counter()
    import_greymatch()
    workload = workloads.build(name, seed, workdir, tiny)
    return perf_counter() - start, workload


def setup_samples(name, seed, tiny):
    """Setup time in fresh interpreters, where the import is paid again."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                   "--workload", name, "--seed", str(seed)]
        if tiny:
            command.append("--tiny")
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, seconds, first_digests, cycles=None):
    """Repeat the workload's calls in one closed loop.

    Runs ``cycles`` whole cycles when given, else one whole cycle and then
    calls until ``seconds`` have passed, skipping a call that would overrun
    them by much.  Returns per-call samples, counts and error messages; each
    call's outputs are compared with its first digest.
    """
    calls = workload.calls
    samples = [[] for _ in calls]
    attempted = failed = 0
    errors = []
    start = perf_counter()
    cycle = 0
    while True:
        made = False
        for i, call in enumerate(calls):
            if cycles is None and cycle >= 1:
                elapsed = perf_counter() - start
                if elapsed >= seconds:
                    return samples, attempted, failed, errors
                if elapsed + statistics.median(samples[i]) > STOP_SLACK * seconds:
                    continue
            made = True
            attempted += call.ops
            t0 = perf_counter()
            try:
                result = call.run()
            except Exception:
                samples[i].append(perf_counter() - t0)
                failed += call.ops
                errors.append(f"{call.name}: raised\n{traceback.format_exc()}")
                continue
            samples[i].append(perf_counter() - t0)
            problem = call.expect(result)
            digest = call.digest(result)
            if i not in first_digests:
                first_digests[i] = digest
            elif digest != first_digests[i]:
                problem = problem or "outputs differ from the first execution"
            if problem:
                failed += call.ops
                errors.append(f"{call.name}: {problem}")
        cycle += 1
        if not made or (cycles is not None and cycle >= cycles):
            return samples, attempted, failed, errors


def cycle_time(samples):
    return sum(statistics.median(s) for s in samples)


def traced_breakdown(tracer, workload, traced):
    """Per traced call: its time and the shares spent in RK4 and in the initial-value search."""
    roots = {}

    def root(index):
        chain = []
        while index not in roots and tracer.spans[index][3] != -1:
            chain.append(index)
            index = tracer.spans[index][3]
        top = roots.get(index, index)
        for i in chain + [index]:
            roots[i] = top
        return top

    inside = {}
    for index, (name, start, end, _) in enumerate(tracer.spans):
        if name in ("ode.rk4_integrate", "grey_twostep.select_initial"):
            key = (root(index), name)
            inside[key] = inside.get(key, 0.0) + end - start
    tops = [i for i, span in enumerate(tracer.spans) if span[3] == -1]
    out = []
    for call, samples, top in zip(workload.calls, traced, tops):
        seconds = samples[0]
        out.append({"name": call.name, "seconds": seconds,
                    "rk4_pct": 100.0 * inside.get((top, "ode.rk4_integrate"), 0.0) / seconds,
                    "init_search_pct":
                        100.0 * inside.get((top, "grey_twostep.select_initial"), 0.0) / seconds})
    return out


def environment():
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    tree = hashlib.sha256()
    for path in sorted((SRC / "greymatch").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mc_workers": 1,
        "note": "Monte Carlo worker scaling is not timed: the reference host has 2 shared cores",
    }


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the full record (the printed result is its ``result``)."""
    rundir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    setup_s, workload = setup(name, seed, rundir / "work", tiny)
    setups = [setup_s] if trace else setup_samples(name, seed, tiny) + [setup_s]

    first_digests = {}
    budget = seconds / 2 if trace else seconds
    samples, attempted, failed, errors = measure(workload, budget, first_digests)
    checks = workload.check()
    ops_per_cycle = sum(call.ops for call in workload.calls)
    wall_s = cycle_time(samples)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "env": environment()}

    if trace:
        from greymatch import simulate

        statuses = sorted(value for key, value in vars(simulate).items()
                          if key.startswith("STATUS_") and value != simulate.STATUS_OK)
        tracer = Tracer()
        tracer.install()
        try:
            traced, t_attempted, t_failed, t_errors = measure(workload, 0, first_digests,
                                                              cycles=1)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + t_attempted, failed + t_failed
        errors += [f"traced {e}" for e in t_errors]
        metrics = tracer.layer_metrics(statuses)
        metrics["trace.overhead_pct"] = (cycle_time(traced) / wall_s - 1.0) * 100.0
        missing = coverage_gaps(name, metrics)
        checks.append({"name": "every exercised layer reads non-zero",
                       "passed": not missing, "detail": f"zero: {missing}"})
        spans_path = rundir / "spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["traced_calls"] = traced_breakdown(tracer, workload, traced)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "ops_per_s": ops_per_cycle / wall_s,
            "call_p50_ms": 1000.0 * statistics.median(statistics.median(s) for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    units = load_units()
    correct = not errors and all(c["passed"] for c in checks)
    record.update({
        "setup_samples_s": setups,
        "calls": [{"name": call.name, "ops": call.ops, "samples_s": s,
                   "digest": first_digests.get(i)}
                  for i, (call, s) in enumerate(zip(workload.calls, samples))],
        "call_samples": sum(len(s) for s in samples),
        "outputs_sha256": hashlib.sha256("".join(
            first_digests.get(i, "-") for i in range(len(workload.calls))).encode()).hexdigest(),
        "checks": checks,
        "errors": errors,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()},
        },
    })
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record


def load_units():
    """Units as declared in BENCHMARK.json, keyed by metric name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(record):
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']} "
             f"outputs_sha256={record['outputs_sha256'][:16]}"]
    for key, metric in record["result"]["metrics"].items():
        lines.append(f"  {key:45s} {metric['value']:.6g} {metric['unit']}")
    for call in record.get("traced_calls", ()):
        lines.append(f"  traced {call['name']:50s} {call['seconds']:8.3f} s  "
                     f"rk4 {call['rk4_pct']:5.1f}%  init search {call['init_search_pct']:5.1f}%")
    for check in record["checks"]:
        lines.append(f"  [{'ok' if check['passed'] else 'FAIL'}] {check['name']}: "
                     f"{check['detail']}")
    lines += [f"  ERROR {e}" for e in record["errors"]]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=20210401)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few-second size of the workload, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_only:
        workdir = OUT / f"setup-{args.workload}-{os.getpid()}"
        try:
            seconds, _ = setup(args.workload, args.seed, workdir, args.tiny)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(summarize(record), file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
