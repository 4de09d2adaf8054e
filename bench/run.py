"""Benchmark of the bifidelity package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``. The
workload's inputs are generated from ``--seed`` (set-up is repeated, at least
three times and for at least two seconds, and its median reported as
``setup_s``), one warm-up operation is discarded, and
operations then repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced operations. ``--trace 1`` is a separate run that reports the
per-layer metrics: it runs the operations in this process with spans
around the package's public functions, alternating with untraced ones to
measure the tracing overhead, and writes the spans to ``.bench_out/``.

The last line of stdout is the result object; the line before it is the
run record (environment, workload-specific metrics, trace summary).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
IMPORT_REPEATS = 5

LIMITS = [
    "single process on a shared machine: no CPU pinning, no page-cache drop, "
    "no system-wide tracing; memory is the program's own peak RSS",
    "timings include whatever else the host ran at the same time",
]


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def blas_info():
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes
    import glob

    import numpy as np

    info = {"blas_version": None, "blas_threads": None}
    try:
        info["blas_version"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
            get = handle.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["blas_threads"] = get()
    info["blas_thread_env"] = {k: os.environ[k] for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                               if k in os.environ}
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None  # checkouts without git metadata
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref
    return ref


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "git_commit": git_commit(),
        "seed": seed,
        "package_import": "src/ on PYTHONPATH (package not installed)",
        "limits": LIMITS,
    }


# --------------------------------------------------------------------------
# untraced run: the end-to-end metrics
# --------------------------------------------------------------------------

def timed_setup(wl):
    """Set-up times; short set-ups repeat more often for a steady median."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
    return times


def repeat_ops(wl, seconds, cold):
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(wl.op(cold=cold))
    return ops


def end_to_end(wl, seconds):
    setup = timed_setup(wl)
    wl.prepare()
    wl.warm_up(cold=True)
    ops = repeat_ops(wl, seconds, cold=True)
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "wall_s": metric(median([o.wall for o in ops]), "s"),
        "peak_rss_mb": metric(median([o.rss_mb for o in ops]), "MB"),
    }
    return ops, metrics, {"setup_runs_s": setup,
                          "op_wall_s": [o.wall for o in ops],
                          "workload_metrics": workload_metrics(wl.name, ops)}


def workload_metrics(name, ops):
    """The workload's own named metrics (medians over the operations)."""
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    out = {"operations": metric(len(ops), "count"),
           "fail_frac": metric(failed / attempted, "fraction")}
    if name == "study-pipeline":
        for key in ("decompose_s", "samples_s", "lift_s", "bound_s"):
            out[key] = metric(median([o.detail[key] for o in ops]), "s")
    elif name == "tolerance-id":
        out["id_rank"] = metric(ops[-1].detail["rank"], "count")
    elif name == "efficacy-study":
        out["trials_per_s"] = metric(median([o.detail["trials_per_s"] for o in ops]), "1/s")
    elif name == "theorem-sweep":
        lat = sorted(x for o in ops for x in o.detail["latencies"])
        out["problems_per_s"] = metric(len(lat) / sum(lat), "1/s")
        out["problem_p50_s"] = metric(statistics.median(lat), "s")
        out["problem_p90_s"] = metric(statistics.quantiles(lat, n=10)[-1], "s")
        out["problem_samples"] = metric(len(lat), "count")
    return out


# --------------------------------------------------------------------------
# traced run: the per-layer metrics
# --------------------------------------------------------------------------

def import_profile(wl):
    """Cold import of the CLI module against a bare interpreter."""
    # bench modules import bifidelity, so they load once src/ is on sys.path
    from workloads import run_cold

    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_cold(["-c", "pass"], wl.work, wl.env).wall)
        full.append(run_cold(["-c", "import bifidelity.cli"], wl.work, wl.env).wall)
    env = dict(wl.env, PYTHONPROFILEIMPORTTIME="1")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; n = len(sys.modules); import bifidelity.cli; "
         "print(len(sys.modules) - n)"],
        cwd=wl.work, env=env, capture_output=True, text=True, check=True)
    scipy_us = 0
    for line in probe.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().startswith("scipy") \
                and fields[0].strip().isdigit():
            scipy_us += int(fields[0])
    return {
        "cli.import_s": metric(median(full) - median(bare), "s"),
        "cli.import_scipy_s": metric(scipy_us / 1e6, "s"),
        "cli.import_modules": metric(int(probe.stdout), "count"),
    }


def layer_metrics(spans):
    """Per-layer figures of one operation's spans."""
    from spans import covered, self_times

    by_id = {s.id: s for s in spans}
    table = self_times(spans)

    def count(name):
        return table.get(name, [0])[0]

    def total(key, names):
        return sum(s.result[key] for s in spans
                   if s.name in names and s.result is not None)

    residual = [s for s in spans if s.name == "linalg.spectral_norm"
                and s.parent in by_id and by_id[s.parent].name == "interp.build_id"]
    cells = total("cells", ("bound.minimize_bound",))
    snap = ("snapio.read_snapshots", "snapio.read_id")
    return {
        "snapio.read_s": metric(covered(spans, {"snapio.read_snapshots"}), "s"),
        "snapio.write_s": metric(covered(spans, {"snapio.write_snapshots"}), "s"),
        "snapio.id_read_s": metric(covered(spans, {"snapio.read_id"}), "s"),
        "snapio.id_write_s": metric(covered(spans, {"snapio.write_id"}), "s"),
        "snapio.bytes_read": metric(total("bytes", snap), "bytes"),
        "snapio.bytes_written": metric(
            total("bytes", ("snapio.write_snapshots", "snapio.write_id")), "bytes"),
        "interp.build_id_s": metric(covered(spans, {"interp.build_id"}), "s"),
        "interp.pivoted_qr_s": metric(covered(spans, {"linalg.pivoted_qr"}), "s"),
        "interp.qr_steps": metric(total("steps", ("linalg.pivoted_qr",)), "count"),
        "interp.residual_norm_calls": metric(len(residual), "count"),
        "interp.residual_norm_s": metric(sum(s.end - s.start for s in residual), "s"),
        "lifting.evaluate_all_s": metric(covered(spans, {"lifting.evaluate_all"}), "s"),
        "bound.gramian_s": metric(covered(spans, {"bound.gramian"}), "s"),
        "bound.sweep_s": metric(covered(spans, {"bound.minimize_bound"}), "s"),
        "bound.sweep_self_s": metric(
            table.get("bound.minimize_bound", [0, 0.0, 0.0])[2], "s"),
        "bound.eps_s": metric(covered(spans, {"bound.epsilon_estimated"}), "s"),
        "bound.eps_evals": metric(count("bound.epsilon_estimated"), "count"),
        "bound.invalid_frac": metric(
            total("invalid", ("bound.minimize_bound",)) / cells if cells else 0.0,
            "fraction"),
        "bound.report_write_s": metric(covered(spans, {"bound.write_bound_report"}), "s"),
        "linalg.spectral_norm_s": metric(covered(spans, {"linalg.spectral_norm"}), "s"),
        "linalg.spectral_norm_calls": metric(count("linalg.spectral_norm"), "count"),
        "linalg.singular_values_s": metric(
            covered(spans, {"linalg.singular_values"}), "s"),
    }


def memory_metrics(spans):
    from spans import peak_mb

    return {
        "snapio.peak_alloc_mb": metric(peak_mb(spans, "snapio."), "MB"),
        "interp.peak_alloc_mb": metric(
            max(peak_mb(spans, "interp."), peak_mb(spans, "linalg.pivoted_qr")), "MB"),
        "bound.peak_alloc_mb": metric(peak_mb(spans, "bound."), "MB"),
        "linalg.peak_alloc_mb": metric(peak_mb(spans, "linalg."), "MB"),
    }


def traced_run(wl, seconds, spans_path):
    """Per-layer metrics from spans; end-to-end figures are not taken here."""
    from spans import Tracer, covered, self_times

    profile = import_profile(wl)
    with Tracer() as setup_tracer:
        start = time.perf_counter()
        wl.setup()
        setup_wall = time.perf_counter() - start
    wl.prepare()
    wl.warm_up(cold=False)

    tracer = Tracer()
    plain, traced, slices = [], [], []

    def traced_op():
        first = len(tracer.spans)
        with tracer:
            traced.append(wl.op(cold=False))
        slices.append((first, len(tracer.spans)))

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        # swap the order in every other pair so that neither side always
        # runs second
        if len(traced) % 2:
            traced_op()
            plain.append(wl.op(cold=False))
        else:
            plain.append(wl.op(cold=False))
            traced_op()
    with Tracer(memory=True) as mem_tracer:
        mem_op = wl.op(cold=False)

    per_op = [layer_metrics(tracer.spans[a:b]) for a, b in slices]
    layers = {key: metric(median([m[key]["value"] for m in per_op]), per_op[0][key]["unit"])
              for key in per_op[0]}
    models_s = covered(setup_tracer.spans,
                       {"models.draw_diffusion_samples", "models.diffusion_pair"})
    plain_s = median([o.wall for o in plain])
    traced_s = median([o.wall for o in traced])
    metrics = {
        **profile,
        **layers,
        **memory_metrics(mem_tracer.spans),
        "models.generate_s": metric(models_s, "s"),
        "trace.op_s": metric(plain_s, "s"),
        "trace.overhead_s": metric(traced_s - plain_s, "s"),
    }
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({
        "fields": ["id", "name", "parent", "start", "end"],
        "operations": slices,
        "spans": tracer.dump(),
        "setup_spans": setup_tracer.dump(),
    }))
    first, last = slices[0]
    summary = {
        "workload_metrics_in_process": workload_metrics(wl.name, plain),
        "setup_s_traced_once": setup_wall,
        "traced_op_s": traced_s,
        "untraced_op_s": plain_s,
        "self_time_first_traced_op": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                               for k, v in self_times(tracer.spans[first:last]).items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return plain + traced + [mem_op], metrics, summary


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifidelity" / "__init__.py").exists():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            ops, metrics, extra = traced_run(wl, args.seconds, spans_path)
        else:
            ops, metrics, extra = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        **extra,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
