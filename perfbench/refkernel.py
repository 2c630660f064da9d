"""The fixed reference kernels that convert wall seconds to reference seconds.

The kernels use no isingchi code.  `kernel` does, in small fixed amounts,
the three kinds of work the workloads' commands do: mpmath arithmetic on
the pure-Python backend at 256 bits, numpy passes over an 8k-element
array, and Python float-to-string formatting.  `python_kernel` does the
kind of work a fresh interpreter does while it imports: it unmarshals a
compiled module body and executes it (a class, functions, a dict of
instances, float formatting).  It needs nothing outside the standard
library, so the set-up probes can sample it without loading numpy or
mpmath before the command does.  One call of either takes about 2.5 ms.

While a command runs, a Sampler calls a kernel on a 50 ms interval timer.
The mean of those samples measures how fast the machine ran this kind of
work during the command, and the command's wall seconds (minus the time
spent in the kernel) are multiplied by the kernel's nominal time over
that mean.  Samples taken inside the command track the machine's speed;
kernels run only before and after a command do not, because the speed of
a shared VM changes within seconds.

Only the standard library is imported here at module level; numpy and
mpmath are imported on the first call of `kernel`.
"""

import gc
import marshal
import signal
import time

# The kernels' typical times when sampled inside a command, on the 2-vCPU
# VM the reference runs were made on, so that reference seconds read close
# to wall seconds there.
NOMINAL_S = 0.0025
PYTHON_NOMINAL_S = 0.0022
INTERVAL_S = 0.05

_VALUES = [i / 7.0 for i in range(300)]

_MODULE_SOURCE = '''
import math

class Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def norm(self):
        return math.hypot(self.x, self.y)

def table(n):
    return {"k%03d" % i: Point(i, i / 7.0) for i in range(n)}

ROWS = table(120)
TEXT = "\\n".join("%s,%.17g" % (k, p.norm()) for k, p in ROWS.items())
'''
_MODULE_CODE = marshal.dumps(compile(_MODULE_SOURCE, "<refkernel>", "exec"))


def kernel():
    """Run the mpmath / numpy / formatting kernel once; return its wall seconds."""
    import numpy as np
    from mpmath import mp

    t0 = time.perf_counter()
    with mp.workprec(256):
        x = mp.mpf(1) / 3
        acc = mp.mpf(0)
        for i in range(1, 60):
            acc += mp.sqrt(x + i) * x / i
    a = np.linspace(0.0, 1.0, 8192)
    for _ in range(6):
        a = np.cos(a) * 0.5 + a
    "\n".join(["%.17g,%.17g" % (v, v * 0.5) for v in _VALUES])
    return time.perf_counter() - t0


def python_kernel():
    """Unmarshal and execute a small module body six times; return its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(6):
        exec(marshal.loads(_MODULE_CODE), {"__name__": "refkernel_module"})
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Sampler:
    """Runs a kernel on SIGALRM every INTERVAL_S inside a `with` block.

    clock() is perf_counter minus the seconds spent in the kernel, so
    intervals read from it leave the sampling out.  One more sample is
    taken at exit, so a block shorter than the interval still has one.
    Only the main thread may use it.
    """

    def __init__(self, kernel=kernel):
        self.kernel = kernel
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False

    def summary(self):
        return {"kernel_s": sum(self.samples) / len(self.samples),
                "kernel_n": len(self.samples), "sampling_s": self.spent}
