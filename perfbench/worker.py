"""Runs one workload's commands in this fresh process and records timings.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) names the source tree, the commands, the
output directories and the run length.  Every command goes through
isingchi.cli.run with the reference-kernel sampler on.  Whole rounds of
the commands repeat until the run length is used up.  With tracing on,
the untraced rounds are followed by traced rounds that write to their own
directory.  The record goes to the plan's result path as JSON.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from refkernel import Sampler  # noqa: E402


def _round(run, commands, out_dir, tracer=None):
    record = []
    for argv in commands:
        argv = [a.replace("{out}", out_dir) for a in argv]
        with Sampler() as sampler:
            if tracer is not None:
                tracer.reset(sampler.clock)
            t0 = sampler.clock()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = run(argv)
            except Exception:
                traceback.print_exc()
                rc = -1
            raw = sampler.clock() - t0
        entry = {"argv": argv, "rc": rc, "raw_s": raw, **sampler.summary()}
        if tracer is not None:
            entry["layers"] = tracer.snapshot()
        record.append(entry)
    return record


def _rounds(seconds, *args, **kwargs):
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(_round(*args, **kwargs))
    return rounds


def main(plan_path):
    with open(plan_path) as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    from isingchi import cli

    result = {"rounds": _rounds(plan["seconds"], cli.run, plan["commands"],
                                plan["out"])}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["references"] = [
        cli.run([a.replace("{out}", plan["ref"]) for a in argv])
        for argv in plan["references"]]
    if plan["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        result["traced_rounds"] = _rounds(plan["seconds"], cli.run,
                                          plan["commands"], plan["traced_out"],
                                          tracer=tracer)
    with open(plan["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
