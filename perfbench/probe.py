"""Fresh-interpreter probe for set-up time: import isingchi and run one command.

Usage: python3 probe.py RESULT.json ARG...

Runs isingchi.cli.run(ARGS) with the reference-kernel sampler on from
before the isingchi import to after the command, and writes the exit code
and the sampler's summary to RESULT.json.  The sampler runs the
standard-library `python_kernel`, so nothing the command might not need
(numpy, mpmath) is imported before the command imports it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from refkernel import Sampler, python_kernel  # noqa: E402


def main(result_path, argv):
    with Sampler(python_kernel) as sampler:
        from isingchi.cli import run

        rc = run(argv)
    with open(result_path, "w") as handle:
        json.dump({"rc": rc, **sampler.summary()}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
