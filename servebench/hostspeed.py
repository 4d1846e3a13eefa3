"""The host speed probe every reported time is scaled by.

The benchmark runs on part of a shared machine.  The share it gets
drifts: three runs of one seed, with the same work fingerprint, took
49, 61 and 70 s of wall time within ten minutes, and the drift moves in
phases of a minute or more, longer than a run.  Runs made minutes
apart therefore differ by up to +-25% in every raw time, more than any
bound a regression check could use, and nothing inside a run (more
samples, medians, longer runs) averages that away.

The probe is a fixed piece of work that shares no code with the
program under test.  It mixes the two kinds of work a request does:
interpreted dict, sort and JSON work like the service and observability
path, and numpy ``unique``/``argsort``/``cumsum``/masking over half a
megabyte like the kernels.  :func:`drive` runs it after every request,
outside the request's timing, with the cyclic garbage collector paused
so that it never collects the program's garbage.  A run's *host
factor* is its median probe time over :data:`REFERENCE_PROBE_SECONDS`,
the probe's median on the reference machine, and every reported time
is the measured time divided by that factor: seconds of the reference
machine.  Over seven consecutive six-round windows (about 40 s each)
of one serve-fixed session on the reference machine, the windows' raw
times moved by +-15% while the scaled ones moved by +-1.5%.  A change
to the program moves its times and not the probe's, so it moves the
scaled times by the same share as the raw ones.  One probe takes about
9 ms.  The run prints the factor and the raw times too.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import List

import numpy as np

#: Median seconds of one probe on the reference machine (2-core 2.1 GHz
#: Linux VM, Python 3.11, numpy 2.4).  Change it together with the
#: probe's work, never on its own.
REFERENCE_PROBE_SECONDS = 0.009


class HostProbe:
    """Times a fixed piece of work; :attr:`factor` is the host's speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._ints = rng.integers(0, 20_000, 60_000)
        self._floats = rng.random(60_000)
        self._keys = [f"k{i}" for i in range(400)]
        self._document = {
            "a": [{"x": i, "y": str(i), "z": [i, i + 1]} for i in range(150)]
        }
        self.seconds: List[float] = []

    def __call__(self) -> None:
        """Run the probe once and record its time."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            table = {key: (key, len(key)) for key in self._keys}
            sorted(table.values(), key=lambda row: row[0], reverse=True)
            json.dumps(self._document)
            np.unique(self._ints)
            order = np.argsort(self._floats)
            np.cumsum(self._floats[order])
            self._ints[self._floats > 0.5]
            self.seconds.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()

    @property
    def factor(self) -> float:
        """Median probe time over the reference's (> 1: a slow host)."""
        return statistics.median(self.seconds) / REFERENCE_PROBE_SECONDS
