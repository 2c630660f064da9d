"""Per-layer tracing by wrapping isingchi's public functions from outside.

Nothing under src/ is edited.  Each public function of each isingchi
module is replaced by a wrapper in every loaded isingchi namespace that
holds it (build_table, for one, is bound in cli, verify, correlations and
the package), so calls between modules go through the wrapper too.  Two
third-party entry points the program leans on are wrapped the same way:
mpmath's `mp.det` and the `eigsh` that oracle imported from scipy.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# Per-entry helpers, called once per table entry or grid sample: a
# wrapper would cost more than the work it times.
UNTRACED = {"lookup", "format_float", "fib_bit", "gauge_sign",
            "separation_class", "dual_pair"}


class Tracer:
    """Accumulates calls and seconds per span name until reset().

    Spans are timed with the clock given to reset(), which lets the
    reference-kernel sampler keep its own time out of them.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.bytes_written = 0
        self.clock = time.perf_counter

    def reset(self, clock=time.perf_counter):
        self.clock = clock
        self.calls.clear()
        self.seconds.clear()
        self.bytes_written = 0

    def snapshot(self):
        out = {name + ".calls": n for name, n in self.calls.items()}
        out.update({name + ".s": s for name, s in self.seconds.items()})
        out["fileio.bytes"] = self.bytes_written
        return out

    def wrap(self, name, fn, label=None, writes=False):
        """Wrapper that times fn under `name`, or under label(args) if given."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else label(args, kwargs)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[span] += self.clock() - t0
                self.calls[span] += 1
                if writes and isinstance(args[0], str) and os.path.exists(args[0]):
                    self.bytes_written += os.path.getsize(args[0])

        return traced


def _suite_label(args, kwargs):
    return "verify.run_suite.%s" % (args[0] if args else kwargs["name"])


def install(tracer):
    """Wrap every public isingchi function in every namespace binding it."""
    from mpmath import mp

    import isingchi.oracle

    modules = [m for name, m in list(sys.modules.items())
               if name == "isingchi" or name.startswith("isingchi.")]
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if attr in UNTRACED:
                continue
            if attr == "run_suite":
                wrapper = tracer.wrap(attr, fn, label=_suite_label)
            else:
                wrapper = tracer.wrap("%s.%s" % (short, attr), fn,
                                      writes=short == "fileio"
                                      and attr.startswith("write_"))
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)
    isingchi.oracle.eigsh = tracer.wrap("oracle.eigsh", isingchi.oracle.eigsh)
    # an instance attribute shadows the context's det method
    mp.det = tracer.wrap("mpmath.det", mp.det)
