"""Fixed reference work that tracks the host's speed.

The benchmark's hosts are shared: their speed drifts by up to 1.8x, in
phases that last from a few seconds to minutes, and every workload slows
and speeds up with it.  A run therefore also times a reference between its
ops, outside their timing, before an op whenever ``INTERVAL_S`` has passed
since the last sample, and once after the last op, and scales its times
by ``NOMINAL_S[kind] / g``, where ``g`` is the geometric mean of its
reference times (``scale``).  Like the run's wall time, the mean weighs
each phase by its share of the run.  The host also switches between a
fast and a slow mode within tenths of a second, so single samples are
bimodal: scaling each op by the samples next to it, or by a window of
them, left the spread of the metrics no lower than one factor per run.

The reported times are seconds at the speed the host had when the
reference took ``NOMINAL_S``; the raw times are kept in the results file.

There are two references, one for each kind of work the program does:

- ``compute``: ``Fraction`` arithmetic over two thousand objects, dict
  lookups and a sort, in the workload's process, with the cyclic garbage
  collector off so that its passes over the workload's heap are not
  timed.  It scales the ops of the in-process workloads.  (Run in a
  process of its own, it tracked the ops less well: the spread of
  ``qexp-identities``' ``ops_per_s`` over five seeds rose from 0.06 to
  0.15.)
- ``startup``: three bare interpreter starts (``python -S -c pass``).  It
  scales ``cli-reproduce``'s ops, which are each a fresh interpreter, and
  every workload's ``setup_s``, which starts one.

Neither touches eiscong, so a change to the program moves the scaled
times and never the scale.  Over five minutes on the 2-vCPU host they
were tuned on, in 15-20 s windows, a Gauss-sum op took 40-75 ms while its
ratio to a reference of the compute kind moved by 8% either way, and a
fresh ``import eiscong.cli`` took 0.69-0.93 s while its ratio to one bare
start moved by 4%.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# median time of each reference on the host the benchmark was tuned on
# (2 vCPUs, Python 3.11) in a fast phase; only ratios to them matter
NOMINAL_S = {"compute": 0.013, "startup": 0.045}
# least time between two reference samples of a run
INTERVAL_S = 0.25
COMPUTE_SIZE = 2000
STARTS = 3


def compute():
    rng = random.Random(5)
    xs = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**4))
          for _ in range(COMPUTE_SIZE)]
    table = dict(enumerate(xs))
    total = Fraction(0)
    for j in range(0, COMPUTE_SIZE, 7):
        total += table[(j * 7919) % COMPUTE_SIZE]
    products = sorted(a * b for a, b in zip(xs[::2], xs[1::2]))
    return total, products[0]


def startup():
    for _ in range(STARTS):
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def timed(work) -> float:
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        gc.enable()


WORK = {"compute": compute, "startup": startup}


def scale(kind: str, samples: list[float]) -> float:
    """The factor that takes a run's times to the nominal host speed."""
    return NOMINAL_S[kind] / statistics.geometric_mean(samples)
