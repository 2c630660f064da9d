"""Radius sweep of build_table with its fitted cost exponent.

Usage, from the root of a source checkout:

    python3 perfbench/sweep.py

For each modulus in MODULI, times build_table at each radius in RADII
(default 256 bits) in reference seconds, and fits t ~ R^p by least
squares on log t against log R over the radii from FIT_FROM up.  A build that runs out of precision
shows as "fails" and is left out of the fit.  Prints a Markdown table.
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from refkernel import NOMINAL_S, Sampler  # noqa: E402

RADII = (8, 12, 16, 24, 32, 40)
MODULI = (0.1, 0.5, 0.9)
FIT_FROM = 16


def time_build(build_table, k, radius):
    """Reference seconds of one build, or None if the precision runs out."""
    from isingchi.correlations import PrecisionExhausted

    with Sampler() as sampler:
        t0 = sampler.clock()
        try:
            build_table(k, radius)
        except PrecisionExhausted:
            return None
        raw = sampler.clock() - t0
    return raw * NOMINAL_S / sampler.summary()["kernel_s"]


def main():
    from isingchi import build_table

    build_table(0.5, 4)
    print("| k | " + " | ".join("R=%d" % r for r in RADII) + " | exponent p |")
    print("|---" * (len(RADII) + 2) + "|")
    for k in MODULI:
        times = [time_build(build_table, k, r) for r in RADII]
        fit = [(math.log(r), math.log(t)) for r, t in zip(RADII, times)
               if r >= FIT_FROM and t is not None]
        p = np.polyfit(*zip(*fit), 1)[0] if len(fit) >= 2 else float("nan")
        cells = ["fails" if t is None else "%.3f s" % t for t in times]
        print("| %g | " % k + " | ".join(cells) + " | %.2f |" % p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
