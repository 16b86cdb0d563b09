"""Benchmark of the watermelon package: four seeded workloads, one closed-loop client.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; nothing is installed.  Scratch directories and result files
go under ``.perfbench/`` there.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
The last line carries the two that BENCHMARK.json bounds:

* ``setup_s``: median of five fresh processes, each timed from its spawn
  until its first operation could start (import, Painleve grid, and for
  critical-dgop the psi solution);
* ``ops_per_s``: operations per second of time spent in operations.

Both are scaled to a fixed machine speed: each time is multiplied by
``REF_MS`` over the time of a fixed reference loop measured just before
it (around it, for set-up), so that a slow spell of a shared host does not
read as a slower program.  The report prints them as measured too.

The report above it also prints, with sample counts, ``op_p50_ms`` (median
latency of one operation), ``op_p90_ms`` (only where a run makes at least
100 operations), ``peak_rss_mb`` (peak RSS of the workload process, of the
largest CLI process for cli-session) and ``fail_frac`` (``failed /
attempted``).  These carry no bound; README.md says why.

``--trace 1`` runs the workload's fixed traced rounds twice, untraced and
traced, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every operation that raised, exited non-zero or failed its check;
``correct`` is false when an operation failed outside the documented seed
defects (see workloads.py) or when tracing changed an output.  The defect
probes a run makes after its timed rounds are reported above that line,
and count in neither ``attempted`` nor ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import per_layer, unit_of  # noqa: E402
from worker import CPUS, pin_quietest_cpu  # noqa: E402
from workloads import TRACE_ROUNDS, WORKLOADS, inputs_digest  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# The reference loop of worker.pin_quietest_cpu takes this long on a quiet
# vCPU of the 2-core Xeon VM the bounds were set on (Python 3.11.7).  Each
# bounded time is scaled by REF_MS over the loop's time measured next to it,
# so a slow spell of the host does not read as a slower program.
REF_MS = 8.0
WORKER_TIMEOUT_S = 80
P90_MIN_OPS = 100
KNOWN_SHOWN = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WATERMELON_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One client, one thread: BLAS pools would only contend on a small machine.
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(spec: dict) -> dict:
    """Run worker.py in a fresh process and a fresh, empty working directory."""
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=STATE / "work")
    try:
        # The worker starts on the CPU this process leaves it.
        ref_s = pin_quietest_cpu()
        spec = dict(spec, out=os.path.join(workdir, "result.json"), ref_s=ref_s,
                    t_spawn=time.monotonic())
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                cwd=workdir, env=child_env(), start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{spec['workload']} worker exceeded {WORKER_TIMEOUT_S} s")
        finally:
            # On a timeout, or when this process is told to stop, the worker
            # and the CLI processes it started go with it.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{spec['workload']} worker exited {proc.returncode}:\n{err[-2000:]}")
        with open(spec["out"], encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int, blas: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "watermelon").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src_hash.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(CPUS),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "mpmath": _version("mpmath"),
            "blas": blas, "blas_threads": {v: child_env()[v] for v in THREAD_VARS},
            "seed": seed}


def measure(workload: str, seed: int, seconds: int, trace: bool,
            rounds: int | None = None) -> dict:
    """One benchmark run; returns the result record (see the module docstring)."""
    base = {"workload": workload, "seed": seed, "seconds": seconds,
            "probe": False, "trace": False, "rounds": rounds}
    if trace:
        rounds = TRACE_ROUNDS[workload] if rounds is None else rounds
        plain = spawn(dict(base, rounds=rounds))
        res = spawn(dict(base, rounds=rounds, trace=True))
        metrics = {name: (value, unit_of(name)) for name, value in
                   per_layer(res["spans"], res["cli"], res["table_bytes"]).items()}
        overhead = res["busy_s"] - plain["busy_s"]
        metrics["trace.overhead_s"] = (overhead, unit_of("trace.overhead_s"))
        metrics["trace.overhead_frac"] = (overhead / plain["busy_s"],
                                          unit_of("trace.overhead_frac"))
        same = [a["digest"] for a in plain["records"]] == [b["digest"] for b in res["records"]]
        setup = []
    else:
        setup = [spawn(dict(base, probe=True)) for _ in range(SETUP_SAMPLES)]
        res = spawn(base)
        same = True
        ms = [r["ms"] * REF_MS / r["ref_ms"] for r in res["records"]]
        metrics = {"setup_s": (statistics.median(p["setup_s"] * REF_MS / p["ref_ms"]
                                                 for p in setup), "s"),
                   "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s")}
    records = res["records"]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    return {"workload": workload, "trace": trace, "seconds": seconds,
            "env": environment(seed, res["blas"]),
            "inputs_sha256": inputs_digest(res["inputs"]), "inputs": res["inputs"],
            "rounds": res["rounds"], "op_counts": dict(Counter(r["kind"] for r in records)),
            "setup_samples": setup, "records": records, "probes": res["probes"],
            "metrics": metrics,
            "peak_rss_mb": res["peak_rss_mb"],
            "attempted": len(records), "failed": len(failed),
            "unexpected_failures": len(unexpected), "trace_preserves_outputs": same,
            "correct": not unexpected and same, "wrapped": res["wrapped"],
            "spans": res["spans"]}


def report(result: dict) -> list[str]:
    """Human-readable lines: metrics with units and sample counts, failures."""
    records = result["records"]
    n = len(records)
    lines = [f"perfbench {result['workload']} seed={result['env']['seed']} "
             f"trace={int(result['trace'])} rounds={result['rounds']} ops={n} "
             f"{json.dumps(result['op_counts'], sort_keys=True)}",
             f"env {json.dumps(result['env'], sort_keys=True)}",
             f"inputs sha256={result['inputs_sha256']}"]
    if not result["trace"]:
        setup = result["setup_samples"]
        ms = [r["ms"] for r in records]
        raw = {"setup_s": statistics.median(p["setup_s"] for p in setup),
               "ops_per_s": n / (sum(ms) / 1e3)}
        samples = {"setup_s": len(setup), "ops_per_s": n}
        for name, (value, unit) in result["metrics"].items():
            lines.append(f"  {name:<12} {value:12.6g} {unit:<5} (n={samples[name]}; "
                         f"{raw[name]:.6g} as measured)")
        ref = statistics.median([r["ref_ms"] for r in records] + [p["ref_ms"] for p in setup])
        lines.append(f"  reference loop {ref:.4g} ms (median), {REF_MS} ms at the "
                     "speed the two above are scaled to")
        lines.append(f"  {'peak_rss_mb':<12} {result['peak_rss_mb']:12.6g} MiB   (n=1)")
        lines.append(f"  {'op_p50_ms':<12} {statistics.median(ms):12.6g} ms    (n={n})")
        if n >= P90_MIN_OPS:
            p90 = statistics.quantiles(ms, n=10)[8]
            lines.append(f"  {'op_p90_ms':<12} {p90:12.6g} ms    (n={n})")
        else:
            lines.append(f"  {'op_p90_ms':<12} {'omitted':>12}       (n={n} < {P90_MIN_OPS})")
    else:
        for name, (value, unit) in result["metrics"].items():
            lines.append(f"  {name:<36} {value:14.6g} {unit}")
        lines.append(f"  tracing preserved every output: {result['trace_preserves_outputs']}")
    lines.append(f"  {'fail_frac':<12} {result['failed'] / n:12.6g}       "
                 f"({result['failed']}/{n}; {result['unexpected_failures']} outside "
                 "the documented seed defects)")
    failed = [r for r in records if not r["ok"]]
    known = [r for r in failed if r["known_defect"]]
    for r in [r for r in failed if not r["known_defect"]] + known[:KNOWN_SHOWN]:
        tag = "known defect" if r["known_defect"] else "UNEXPECTED"
        lines.append(f"  FAIL [{tag}] {r['op']}: {r['detail']}")
    if len(known) > KNOWN_SHOWN:
        lines.append(f"  ... {len(known) - KNOWN_SHOWN} more known-defect failures "
                     "in the results file")
    if result["probes"]:
        lines.append("  seed-defect probes, untimed, outside attempted/failed:")
    for r in result["probes"]:
        state = "passes now" if r["ok"] else "still fails"
        lines.append(f"  PROBE [{state}] {r['op']}: {r['detail']}")
    return lines


def save(result: dict) -> Path:
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{result['workload']}-seed{result['env']['seed']}"
                  f"-trace{int(result['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "watermelon" / "__init__.py").is_file():
        print(f"perfbench: no watermelon package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = save(result)
    print("\n".join(report(result)))
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
