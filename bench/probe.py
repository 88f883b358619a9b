"""Host-speed probe: a fixed piece of work timed in every pass.

On a shared host the speed of a core drifts with the neighbours' load.  On
a 2-vCPU KVM guest (Intel Xeon, 105 MB L3) a pure-Python loop flipped
between about 36 and 56 ms within seconds, and the share of slow time
drifted over minutes, moving netlearn's set-up and run times by up to 1.5x
alike.  So every pass times this probe in its own process right after the
command, for a share of the pass's length, and its times are scaled to a
host of fixed speed: ``scaled = measured * REF_PROBE_S / probe_s``.  The
probe runs no netlearn code, so a change to netlearn moves the scaled times
as much as the measured ones.

The work is fixed: integer and dict operations in the interpreter, which is
what netlearn's per-agent and per-replicate loops spend their time on, and
ufunc calls on small arrays, like its per-replicate numpy calls.
"""
from __future__ import annotations

import time

import numpy as np

# A host on which one unit of the probe's work takes this long has scale
# factor 1; it is about the unit's time on the machine the baseline was
# recorded on.
REF_PROBE_S = 0.075
# The probe runs for at least this share of the pass it follows, and at
# least MIN_PROBE_S: the longer it samples the host, the closer its mix of
# fast and slow spells is to the pass's.
PROBE_SHARE = 0.3
MIN_PROBE_S = 0.25


def _work() -> int:
    table, acc = {}, 0
    for i in range(160_000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1_000_003
    a = np.arange(64, dtype=np.float64)
    for _ in range(12_000):
        a = np.sqrt(a * 1.0001 + 1.0)
    return acc + int(a[0])


def probe_s(pass_s: float) -> float:
    """Seconds one unit of the fixed work takes now: the mean over as many
    units as fill PROBE_SHARE of a pass of ``pass_s`` seconds."""
    want = max(MIN_PROBE_S, PROBE_SHARE * pass_s)
    total, units = 0.0, 0
    while total < want:
        t = time.perf_counter()
        _work()
        total += time.perf_counter() - t
        units += 1
    return total / units
