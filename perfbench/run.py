"""Benchmark of the isingchi CLI: `corr` tables, `chi` grids and `verify`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

Each workload runs in one fresh worker process (worker.py) that calls
isingchi.cli.run for each command, with BLAS pinned to one thread.  The
reference kernel (refkernel.py) runs on a timer while each command runs,
and the command's wall seconds are scaled to reference seconds by the
kernel's nominal time over its measured time.  The outputs of the last
round are checked against independent computations (checkers.py) in a
temporary directory that is deleted afterwards.  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  A record
of every timing is kept under .perfbench-results/ at the checkout root.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from refkernel import NOMINAL_S, PYTHON_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 10
IMPORT_REPS = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OUTPUT_FLAGS = ("--out", "--pgm", "--peaks")

# per-layer metrics read from the traced spans: counts, and seconds in
# reference seconds, summed over a round's commands
LAYERS = (
    "correlations.diagonal_seeds.s", "mpmath.det.calls", "mpmath.det.s",
    "correlations.next_diagonal_seeds.s", "correlations.build_table.calls",
    "chi.chi_grid.s", "chi.tail_estimate.s", "chi.find_peaks.s",
    "quasiperiodic.sign_sequence.s", "quasiperiodic.autocorrelation.s",
    "fileio.write_chi_csv.s", "fileio.write_pgm.s", "fileio.write_peaks_csv.s",
    "fileio.write_corr_csv.s", "fileio.write_verification_csv.s",
    "fileio.bytes", "oracle.eigsh.calls", "oracle.eigsh.s",
    "oracle.oracle_pair_correlations.s", "oracle.verify_identities.s",
    "frustrated.ff_correlation.calls", "frustrated.ff_correlation.s",
    "elliptic.jacobi_elliptic.s", "couplings.coupling_pair.s",
) + tuple("verify.run_suite.%s.s" % suite for suite in
          ("elliptic", "couplings", "recurrence", "frustrated", "chi"))
IMPORTS = {"import.isingchi.s": "isingchi",
           "import.isingchi.oracle.s": "isingchi.oracle",
           "import.isingchi.verify.s": "isingchi.verify"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def reference_seconds(raw_s, kernel_s, nominal_s=NOMINAL_S):
    """Wall seconds scaled by the kernel's nominal over its measured time."""
    return raw_s * nominal_s / kernel_s


def probe(argv, tmp, env, importtime=False):
    """A fresh interpreter running one command under the sampler.

    Returns (raw_s, probe record, completed process); raw_s is the wall
    time from start to exit less the time spent sampling.
    """
    result = os.path.join(tmp, "probe.json")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "probe.py"), result]
    cmd += [a.replace("{out}", tmp) for a in argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                          text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode:
        return wall, None, proc
    with open(result) as handle:
        record = json.load(handle)
    return wall - record["sampling_s"], record, proc


def measure_setup(workload, tmp, env, log):
    """setup_s samples: fresh interpreters running the smallest command."""
    runs = [probe(workload.setup, tmp, env) for _ in range(SETUP_REPS)]
    failed = 0
    for _, _, proc in runs:
        if proc.returncode:
            failed += 1
            log.append("setup exited %d: %s" % (proc.returncode, proc.stderr[-300:]))
    timed = [(raw, rec) for raw, rec, _ in runs if rec is not None]
    return timed, len(runs), failed


def parse_importtime(stderr):
    """{module: (self_s, cumulative_s)} from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        out.setdefault(name.strip(), (int(self_us) / 1e6, int(cum_us) / 1e6))
    return out


def measure_imports(workload, tmp, env, log):
    """import.* metrics from `-X importtime` runs of the set-up command."""
    samples = {name: [] for name in list(IMPORTS) + ["import.scipy.s"]}
    failed = 0
    for _ in range(IMPORT_REPS):
        _, record, proc = probe(workload.setup, tmp, env, importtime=True)
        if record is None:
            failed += 1
            log.append("import probe exited %d" % proc.returncode)
            continue
        scale = reference_seconds(1.0, record["kernel_s"], PYTHON_NOMINAL_S)
        table = parse_importtime(proc.stderr)
        for metric, module in IMPORTS.items():
            samples[metric].append(table.get(module, (0.0, 0.0))[1] * scale)
        samples["import.scipy.s"].append(scale * sum(
            s for name, (s, _) in table.items()
            if name == "scipy" or name.startswith("scipy.")))
    values = {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}
    return values, IMPORT_REPS, failed


def output_paths(argv):
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in OUTPUT_FLAGS]


def round_seconds(entries):
    """(reference, raw) seconds of one round of commands."""
    return (sum(reference_seconds(e["raw_s"], e["kernel_s"]) for e in entries),
            sum(e["raw_s"] for e in entries))


def layer_totals(entries):
    """Per-layer metrics of one traced round, seconds scaled per command."""
    out = {name: 0.0 for name in LAYERS}
    own = 0.0
    for e in entries:
        scale = reference_seconds(1.0, e["kernel_s"])
        layers = e["layers"]
        for name in LAYERS:
            value = layers.get(name, 0)
            out[name] += value * scale if name.endswith(".s") else value
        own += scale * (layers.get("correlations.build_table.s", 0.0)
                        - layers.get("correlations.diagonal_seeds.s", 0.0)
                        - layers.get("correlations.next_diagonal_seeds.s", 0.0))
    out["correlations.build_table.self_s"] = own
    return out


def run_worker(plan, tmp, env, log):
    plan_path = os.path.join(tmp, "plan.json")
    with open(plan_path, "w") as handle:
        json.dump(plan, handle)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), plan_path],
                          cwd=tmp, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.stderr:
        log.append(proc.stderr[-2000:])
    if proc.returncode:
        raise RuntimeError("worker exited %d: %s" % (proc.returncode,
                                                     proc.stderr[-2000:]))
    with open(plan["result"]) as handle:
        return json.load(handle)


def measure(workload, seed, seconds, trace, tmp):
    # byte-compile once, as an installed package is, so that no timed
    # interpreter pays for it
    compileall.compile_dir(str(SRC / "isingchi"), quiet=1)
    env = child_env()
    log = []
    attempted = failed = 0
    metrics = {}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "nominal_kernel_s": NOMINAL_S,
              "nominal_python_kernel_s": PYTHON_NOMINAL_S}

    if trace:
        values, n, bad = measure_imports(workload, tmp, env, log)
        metrics.update(values)
    else:
        setups, n, bad = measure_setup(workload, tmp, env, log)
        if not setups:
            raise RuntimeError("every set-up run failed: %s" % log)
        metrics["setup_s"] = statistics.median(
            reference_seconds(raw, rec["kernel_s"], PYTHON_NOMINAL_S)
            for raw, rec in setups)
        record["setup"] = [dict(rec, raw_s=raw) for raw, rec in setups]
    attempted += n
    failed += bad

    dirs = {key: os.path.join(tmp, key) for key in ("out", "ref", "traced_out")}
    for path in dirs.values():
        os.mkdir(path)
    plan = {"src": str(SRC), "seconds": seconds, "trace": trace,
            "commands": workload.commands,
            "references": workload.references,
            "result": os.path.join(tmp, "result.json"), **dirs}
    result = run_worker(plan, tmp, env, log)
    record["worker"] = result

    fails = []
    last = result["rounds"][-1]
    skip = set()
    for entries in result["rounds"]:
        attempted += len(entries)
        failed += sum(1 for e in entries if e["rc"] != 0)
    for e in last:
        if e["rc"] != 0:
            skip.update(output_paths(e["argv"]))
        else:
            fails += ["%s was not written" % p for p in output_paths(e["argv"])
                      if not os.path.exists(p)]
    if any(rc != 0 for rc in result["references"]):
        fails.append("a reference command failed: %s" % result["references"])
    else:
        fails += workload.check(dirs["out"], dirs["ref"], seed, str(SRC), skip)

    plain = [round_seconds(r) for r in result["rounds"]]
    cmd_s = statistics.median(p[0] for p in plain)
    kernels = [e["kernel_s"] for r in result["rounds"] for e in r]
    audit = {"bench.cmd_raw_s": statistics.median(p[1] for p in plain),
             "bench.kernel_s": statistics.median(kernels)}
    if trace:
        traced = result["traced_rounds"]
        for entries in traced:
            attempted += len(entries)
            failed += sum(1 for e in entries if e["rc"] != 0)
        layers = [layer_totals(r) for r in traced]
        for name in layers[0]:
            metrics[name] = statistics.median(l[name] for l in layers)
        record["traced_cmd_s"] = statistics.median(round_seconds(r)[0]
                                                   for r in traced)
        metrics["bench.trace_overhead_s"] = record["traced_cmd_s"] - cmd_s
        metrics.update(audit)
        for e in traced[-1]:
            if e["rc"] != 0:
                continue
            for path in output_paths(e["argv"]):
                plain_path = path.replace(dirs["traced_out"], dirs["out"], 1)
                with open(path, "rb") as a, open(plain_path, "rb") as b:
                    if a.read() != b.read():
                        fails.append("traced output %s differs from untraced"
                                     % os.path.basename(path))
    else:
        metrics["cmd_s"] = cmd_s
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        audit["bench.setup_raw_s"] = statistics.median(s[0] for s in setups)
    record.update(metrics=metrics, audit=audit, failures=fails, log=log)
    return fails, attempted, failed, metrics, audit, record


UNITS = {"cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith((".calls", ".bytes")) else "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isingchi" / "cli.py").is_file():
        print("error: no isingchi sources under %s" % SRC, file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        fails, attempted, failed, metrics, audit, record = measure(
            workload, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    keep = ROOT / ".perfbench-results"
    keep.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(keep / name, "w") as handle:
        json.dump(record, handle, indent=1)
    for message in fails[:20]:
        print("CHECK FAILED: %s" % message)
    print("audit: " + " ".join("%s=%.4f" % kv for kv in sorted(audit.items())))
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
