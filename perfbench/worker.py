"""One workload in one fresh process: set-up, timed rounds, checks.

Started by run.py as ``worker.py SPEC_JSON`` in a fresh, empty working
directory, so the ``build_system`` memo and the Painleve grid start the same
every run.  It writes its result as JSON to ``SPEC["out"]``.

A run repeats whole rounds.  With ``rounds`` unset it stops after the round
that ends nearest to ``seconds``, judged by the mean round so far; with
``rounds`` set (traced runs) it makes exactly that many.  Then it makes the
workload's defect probes once, untimed.  Checks run between operations,
outside the timed and traced regions.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, merge
from workloads import (InProcess, check_cli, defect_probes, describe, digest,
                       known_defect, perturb, round_inputs)

CLI_TIMEOUT_S = 120
SHIM = str(Path(__file__).resolve().parent / "cli_shim.py")
CPUS = sorted(os.sched_getaffinity(0))
REPIN_EVERY_S = 0.25


def pin_quietest_cpu() -> float:
    """Move this process (and the children it starts) to the usable CPU that
    runs a fixed 10 ms loop fastest right now, and return the loop's time
    there in seconds.

    On a shared virtual machine each virtual CPU is slowed by other tenants
    in spells of seconds, and the two CPUs of a small machine are slowed at
    different times; taking the quieter one before an operation keeps part
    of those spells out of the measurement, and the loop's time measures
    the rest (run.py scales by it).  Nothing here is timed.
    """
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        sum(i * i for i in range(150_000))
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


def _blas() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


class CliSession:
    """Each operation is one fresh ``python -m watermelon.cli`` process.

    All commands of a run share the worker's own fresh working directory, so
    the first command that needs the Painleve grid computes it and the rest
    find it on disk.  No ``--cache-dir``, ``WATERMELON_CACHE`` or config
    file is passed.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.records: list[dict] = []
        self.table_bytes = 0

    def run(self, op: dict) -> dict:
        if self.tracer is None:
            argv = [sys.executable, "-m", "watermelon.cli", *op["argv"]]
        else:
            spans_out = os.path.abspath(f".spans-{len(self.records)}.json")
            argv = [sys.executable, SHIM, spans_out, "--", *op["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if self.tracer is not None:
            with open(spans_out, encoding="utf-8") as fh:
                shim = json.load(fh)
            os.remove(spans_out)
            merge(self.tracer.spans, shim["spans"], self.tracer.op)
            self.records.append({"import_s": shim["import_s"], "wall_s": wall})
        if not op["kind"].startswith("validate"):
            self.table_bytes += len(proc.stdout.encode())
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def check(self, op: dict, value: dict) -> tuple[bool, str]:
        return check_cli(op, value)


def attempt(state, op: dict, tracer: Tracer | None, wrong: bool) -> dict:
    """Run one operation, timed, then check it untimed and untraced.

    ``wrong`` replaces the output by a perturbed copy before the check.
    """
    t0 = time.perf_counter()
    try:
        value, error = state.run(op), None
    except Exception as exc:  # noqa: BLE001 - every failure is a data point
        value, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if error is None and wrong:
        value = perturb(op, value)
    if error is None:
        try:
            ok, detail = state.check(op, value)
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
    else:
        ok, detail = False, error
    if tracer is not None:
        tracer.enabled = True
    return {"kind": op["kind"], "op": describe(op), "ms": elapsed * 1e3,
            "ok": bool(ok), "detail": detail,
            "digest": None if error else digest(value)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]
    tracer = Tracer() if spec["trace"] else None
    wrapped: list[str] = []
    if workload == "cli-session" and not spec["probe"]:
        state = CliSession(tracer)
    else:
        # What every call pays before its first operation: the import (all
        # of the CLI's, for cli-session), the Painleve grid, and for
        # critical-dgop the psi solution its kernel operations compare with.
        import watermelon  # noqa: F401
        if workload == "cli-session":
            import watermelon.cli  # noqa: F401
        if tracer is not None:
            wrapped = tracer.install()
        state = InProcess(workload)
    setup_s = time.monotonic() - spec["t_spawn"]
    if spec["probe"]:
        # The machine's speed over set-up: the reference loop before the
        # spawn and after set-up.
        ref_s = (spec["ref_s"] + pin_quietest_cpu()) / 2
        with open(spec["out"], "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "ref_ms": ref_s * 1e3}, fh)
        return 0

    seed, seconds, rounds = spec["seed"], spec["seconds"], spec["rounds"]
    inputs, records = [], []
    busy = 0.0
    t_start, t_pinned = time.perf_counter(), -math.inf
    while True:
        ops = round_inputs(workload, seed, len(inputs))
        inputs.append(ops)
        for op in ops:
            index = len(records)
            if tracer is not None:
                tracer.op = index
            if time.perf_counter() - t_pinned > REPIN_EVERY_S:
                ref_s = pin_quietest_cpu()
                t_pinned = time.perf_counter()
            record = attempt(state, op, tracer, index in spec.get("perturb", ()))
            busy += record["ms"] / 1e3
            records.append(dict(record, ref_ms=ref_s * 1e3, round=len(inputs) - 1,
                                known_defect=known_defect(workload, op)))
        done = len(inputs)
        wall = time.perf_counter() - t_start
        if rounds is not None:
            if done >= rounds:
                break
        elif wall + 0.5 * wall / done > seconds:
            break

    # Traced too, so that the layers only a probe reaches (the ``kernel``
    # command's critical_kernel) get their spans.
    probes = []
    for op in defect_probes(workload):
        if tracer is not None:
            tracer.op = len(records) + len(probes)
        probes.append(attempt(state, op, tracer, False))

    who = resource.RUSAGE_CHILDREN if isinstance(state, CliSession) else resource.RUSAGE_SELF
    result = {
        "rounds": len(inputs), "inputs": inputs, "records": records,
        "probes": probes, "busy_s": busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "wrapped": wrapped, "blas": _blas(),
        "spans": tracer.spans if tracer is not None else [],
        "cli": state.records if isinstance(state, CliSession) else [],
        "table_bytes": state.table_bytes if isinstance(state, CliSession) else 0,
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
