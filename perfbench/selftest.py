"""Self-test of the benchmark itself, not of the program.

usage: python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  It checks that

* one seed gives byte-identical inputs, another seed other inputs, and a
  worker records and receives exactly the generated inputs;
* every defect probe of a workload runs and is recorded apart from the
  timed operations;
* an untraced run installs no wrapper, reports exactly the end-to-end
  metrics of BENCHMARK.json, and counts a deliberately perturbed output as
  a failed operation, on every operation kind;
* a traced run emits every per-layer metric of BENCHMARK.json with its unit,
  reads non-zero for each layer the workload uses, and computes the same
  outputs as an untraced run;
* run.py refuses, with no result line, where there is no program to measure.

It makes one round of each workload three times (about three minutes on a
2-core machine) and exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, STATE, measure, spawn  # noqa: E402
from workloads import WORKLOADS, defect_probes, inputs_digest, round_inputs  # noqa: E402

# Per-layer metrics that must read non-zero in one traced round of each
# workload: the layers the workload is there to exercise.
USED = {
    "height-sweep": ("painleve.solve_s", "painleve.tails_s", "painleve.build_grid_s",
                     "painleve.save_grid_s", "painleve.tracy_widom_calls",
                     "painleve.newton_residual", "dgop.build_system_calls",
                     "dgop.build_lattice_s", "dgop.passes_per_build",
                     "dgop.stieltjes_calls", "dgop.node_degrees", "dgop.phi_mb",
                     "heights.tabulate_rescaled_s", "heights.log_height_cdf_calls",
                     "heights.log_height_cdf_s", "heights.self_s", "dgop.self_s"),
    "critical-dgop": ("dgop.build_system_s", "dgop.stieltjes_s", "dgop.node_degrees",
                      "dgop.memo_hit_ratio", "dgop.phi_mb", "asym.asymptotic_h_s",
                      "asym.free_energy_comparison_s", "asym.kernel_limit_table_s",
                      "psikernel.integrate_psi_calls", "asym.self_s"),
    "psi-kernel": ("psikernel.integrate_psi_calls", "psikernel.integrate_psi_s",
                   "psikernel.kernel_integral_form_s", "psikernel.compatibility_defect_s",
                   "psikernel.ode_solves", "psikernel.rhs_evals", "psikernel.self_s"),
    "cli-session": ("painleve.load_grid_calls", "painleve.save_grid_s",
                    "psikernel.critical_kernel_s", "oracles.shooting_q0_s",
                    "oracles.fredholm_f2_s", "tableio.emit_s", "tableio.bytes",
                    "cli.import_s", "cli.main_s", "cli.interpreter_s",
                    "validation.criterion_s.1", "validation.criterion_s.2",
                    "validation.criterion_s.3", "validation.criterion_s.6",
                    "validation.criterion_s.7", "validation.criterion_s.13",
                    "oracles.self_s", "tableio.self_s", "cli.self_s",
                    "validation.self_s"),
}


class SelfTestError(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestError(what)
    print(f"ok   {what}")


def check_inputs(seed: int) -> None:
    for workload in WORKLOADS:
        first = [json.dumps(round_inputs(workload, seed, i), sort_keys=True) for i in range(3)]
        again = [json.dumps(round_inputs(workload, seed, i), sort_keys=True) for i in range(3)]
        other = [json.dumps(round_inputs(workload, seed + 1, i), sort_keys=True)
                 for i in range(3)]
        expect(first == again, f"{workload}: seed {seed} gives byte-identical inputs")
        expect(first != other, f"{workload}: seed {seed + 1} gives other inputs")
        expect(len(set(first)) == 3, f"{workload}: each round draws fresh inputs")


def check_perturbed(workload: str, seed: int) -> None:
    spec = {"workload": workload, "seed": seed, "seconds": 1, "probe": False,
            "trace": False, "rounds": 1}
    clean = spawn(spec)
    expect(clean["wrapped"] == [], f"{workload}: untraced run installs no wrapper")
    expect(clean["inputs"] == [round_inputs(workload, seed, 0)],
           f"{workload}: the worker records exactly the generated inputs")
    probes = [p["op"] for p in clean["probes"]]
    expect(len(probes) == len(defect_probes(workload)) and
           len(clean["records"]) == len(clean["inputs"][0]),
           f"{workload}: {len(probes)} defect probes recorded apart from the operations")
    passing = [i for i, r in enumerate(clean["records"]) if r["ok"]]
    bad = spawn(dict(spec, perturb=passing))
    expect(inputs_digest(bad["inputs"]) == inputs_digest(clean["inputs"]),
           f"{workload}: a second run of seed {seed} gets the same inputs")
    missed = [bad["records"][i]["op"] for i in passing if bad["records"][i]["ok"]]
    kinds = sorted({clean["records"][i]["kind"] for i in passing})
    expect(not missed and passing,
           f"{workload}: {len(passing)} perturbed outputs of kinds {kinds} all "
           f"counted as failed (missed: {missed})")


def check_untraced_metrics(seed: int, declared: dict) -> None:
    metrics = measure("critical-dgop", seed, 1, trace=False, rounds=1)["metrics"]
    got = {name: unit for name, (_, unit) in metrics.items()}
    expect(got == declared,
           f"untraced run reports exactly the end-to-end metrics of BENCHMARK.json "
           f"({got} vs {declared})")


def check_traced(workload: str, seed: int, declared: dict) -> None:
    result = measure(workload, seed, 1, trace=True, rounds=1)
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           f"{workload}: traced run emits exactly the per-layer metrics of "
           f"BENCHMARK.json (missing {sorted(set(declared) - set(metrics))}, "
           f"extra {sorted(set(metrics) - set(declared))})")
    wrong = [n for n, (_, unit) in metrics.items() if unit != declared.get(n, unit)]
    expect(not wrong, f"{workload}: per-layer units match BENCHMARK.json ({wrong})")
    zero = [n for n in USED[workload] if not metrics[n][0] > 0]
    expect(not zero, f"{workload}: layers in use read non-zero ({zero} do not)")
    expect(result["trace_preserves_outputs"],
           f"{workload}: traced and untraced runs compute the same outputs")
    expect(result["unexpected_failures"] == 0,
           f"{workload}: no operation fails outside the documented seed defects")


def check_refuses_without_program() -> None:
    STATE.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=STATE))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               WORKLOADS[0], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               f"run.py exits {proc.returncode} with no result where there is no program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    try:
        check_refuses_without_program()
        check_inputs(args.seed)
        check_untraced_metrics(args.seed, end_to_end)
        for workload in WORKLOADS:
            check_perturbed(workload, args.seed)
            check_traced(workload, args.seed, per_layer)
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
