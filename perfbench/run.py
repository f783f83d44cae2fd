"""Benchmark for the pufir CLI.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Runs from the repository root with the package imported from ./src.  One
client in one process sends each command through `pufir.cli.main(argv)`
after the previous one returned (a closed loop, like a script or notebook
user); outputs are checked after each command, outside its timing.
Between passes it times launches of `python -m pufir.cli verify-examples`
for start-up cost, and cold starts for set-up cost: a fresh process
imports pufir and runs one warm-up op of each command (coldstart.py).
Generating the inputs is reported apart from set-up time.  BLAS threads
stay at their default and are recorded.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes,
then as many traced passes, and prints per-layer metrics from the spans.
`--workload all` runs every workload in turn, each in its own process.
The last line of stdout is the result object; the line before it is a
report with the machine record, per-command totals and, on `realize`,
the outcome of an ill-conditioned probe that is not counted.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import tracer, workloads  # noqa: E402
from perfbench.oracle import check_verify_examples  # noqa: E402

# Fresh processes timed after each pass, so that their medians span the
# run rather than one second of it: a shared machine's speed can swing by
# half within seconds.
COLD_STARTS_PER_PASS = 3   # import and warm-up, for setup_s
LAUNCHES_PER_PASS = 3      # verify-examples launches, for startup_s
MIN_SAMPLES = 100          # so at least 10 commands lie beyond p90


def blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "seed": seed}


class Client:
    """Runs ops in-process and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None     # a Tracer records spans tagged with op ids
        self.attempted = 0
        self.failed = 0

    def run(self, op):
        """Execute one op; return its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.op = self.attempted
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - t0
        if self.tracer:
            self.tracer.op = None
        self.record(op, rc, out.getvalue(), err.getvalue())
        return elapsed

    def record(self, op, rc, out, err=""):
        """Count one attempt of `op` and check its output."""
        self.attempted += 1
        try:
            reason = "raised" if rc is None else op.check(rc, out, op.case)
        except Exception:
            reason = traceback.format_exc()
        if reason:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv)}: {reason}\n{err}",
                  file=sys.stderr)


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cold_start(client, warm):
    """Seconds a fresh process takes to import pufir and run each warm-up
    op once; the outputs are checked like any other op's."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "coldstart.py")],
                          input=json.dumps([list(op.argv) for op in warm]),
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        for op in warm:
            client.record(op, None, "", proc.stderr)
        return perf_counter() - t0
    data = json.loads(proc.stdout)
    for op, result in zip(warm, data["ops"]):
        client.record(op, result["rc"], result["out"], proc.stderr)
    return data["import_s"] + sum(result["s"] for result in data["ops"])


def setup(build, seed, work, client):
    """Generate inputs and warm up this process.

    Returns (ops, warm-up ops, generation seconds).  Generating the inputs
    is the harness's own work, so it is reported apart from setup_s.
    """
    work.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    ops, warm = build(np.random.default_rng(seed), str(work))
    gen_s = perf_counter() - t0
    for op in warm:
        client.run(op)
    return ops, warm, gen_s


def startup(client):
    """Wall time of one `python -m pufir.cli verify-examples` launch."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pufir.cli",
                           "verify-examples"], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    client.attempted += 1
    reason = check_verify_examples(proc.returncode, proc.stdout)
    if reason:
        client.failed += 1
        print(f"FAILED verify-examples: {reason}\n{proc.stderr}",
              file=sys.stderr)
    return elapsed


def run_passes(client, ops, *, seconds=None, passes=None, after_pass=None):
    """Closed loop over whole passes; per-pass latencies by op index.

    Stops after `passes` passes, or once the passes have taken `seconds`
    and at least MIN_SAMPLES commands ran.  `after_pass` runs between
    passes, outside that time.
    """
    runs = []
    busy = 0.0
    while True:
        t0 = perf_counter()
        runs.append([client.run(op) for op in ops])
        busy += perf_counter() - t0
        if after_pass:
            after_pass()
        if passes is not None:
            if len(runs) >= passes:
                return runs
        elif busy >= seconds and len(runs) * len(ops) >= MIN_SAMPLES:
            return runs


def op_medians(runs):
    """Each op's median latency over the passes."""
    return [statistics.median(col) for col in zip(*runs)]


def per_kind(ops, runs):
    """Each command's summed time in a pass, from per-op medians."""
    out = defaultdict(float)
    for op, t in zip(ops, op_medians(runs)):
        out[op.kind + "_s"] += t
    return dict(out)


def end_to_end(ops, runs, setup_s, startup_s):
    lat = [t for r in runs for t in r]
    p90 = statistics.quantiles(lat, n=10)[8]
    pass_s = sum(op_medians(runs))
    metrics = {
        "setup_s": (setup_s, "s"),
        "startup_s": (startup_s, "s"),
        "ops_per_s": (len(ops) / pass_s, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"samples": len(lat), "beyond_p90": sum(t > p90 for t in lat),
              "passes": len(runs), "pass_s": pass_s,
              "per_command_s": per_kind(ops, runs)}
    return metrics, detail


def per_layer(tr, traced_runs, untraced_runs):
    passes = len(traced_runs)
    traced_s = sum(map(sum, traced_runs))
    summary = tracer.summarize(tr.spans)
    metrics = {}
    for name, *_ in tracer.targets():
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_frac"] = (self_s / traced_s, "frac")
    for name in tracer.LINALG:
        key = f"numpy.linalg.{name}.bytes_in"
        metrics[key] = (tr.counts[key] / passes, "bytes")
    for key in ("io.bytes_read", "io.bytes_written"):
        metrics[key] = (tr.counts[key] / passes, "bytes")
    traced = sum(op_medians(traced_runs))
    untraced = sum(op_medians(untraced_runs))
    metrics["trace.pass_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return metrics


def probe(cli, argv, case):
    """Run one op outside the counts; return what it reported."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        data = json.loads(out.getvalue())
    except Exception as exc:
        return {"error": repr(exc)}
    return {"rc": rc, "expected_nu": case.degree,
            **{k: data.get(k) for k in ("nu", "classification",
                                        "residual_isometry",
                                        "residual_coisometry")}}


def run_workload(args):
    try:
        import pufir.cli as cli
    except ImportError as exc:
        print(f"error: cannot import pufir from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pufir was imported from {cli.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    client = Client(cli)
    build = workloads.WORKLOADS[args.workload]
    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops, warm, gen_s = setup(build, args.seed, work, client)
        if args.trace:
            untraced = run_passes(client, ops, seconds=args.seconds / 2)
            tr = client.tracer = tracer.Tracer()
            with tr.patched(tracer.targets()):
                traced = run_passes(client, ops, passes=len(untraced))
            client.tracer = None
            tr.write(base / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(tr, traced, untraced)
            detail = {"passes": len(traced), "spans": len(tr.spans),
                      "per_command_s": per_kind(ops, traced),
                      "bytes": "computed from array and file sizes"}
        else:
            colds, launches = [], []

            def between_passes():
                colds.extend(cold_start(client, warm)
                             for _ in range(COLD_STARTS_PER_PASS))
                launches.extend(startup(client)
                                for _ in range(LAUNCHES_PER_PASS))

            runs = run_passes(client, ops, seconds=args.seconds,
                              after_pass=between_passes)
            metrics, detail = end_to_end(ops, runs,
                                         statistics.median(colds),
                                         statistics.median(launches))
            detail.update(cold_starts=len(colds), launches=len(launches))
        if args.workload in workloads.PROBES:
            argv, case = workloads.PROBES[args.workload](
                np.random.default_rng(args.seed), str(work))
            detail["probe"] = probe(cli, argv, case)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(workload=args.workload, trace=args.trace, gen_s=gen_s,
                  machine=machine(args.seed),
                  fail_frac=client.failed / client.attempted)
    print(json.dumps({"report": detail}))
    print(json.dumps({
        "correct": client.failed == 0, "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
