"""Machine-speed probes: fixed loops that use no orbitint code.

The 2-vCPU machine the benchmark was built on runs in fast and slow phases
that last from seconds to over ten minutes.  A slow phase does not slow all
code alike: interpreted loops take up to 2x as long, while bigint division
in CPython's C loops takes only about 1.15x as long.  A probe run next to the
ops measures the current speed for one kind of work, and an op's time is
scaled by ``REFERENCE_S / probe time``: the seconds it would take at the
speed the probe saw in a fast phase on that machine.

A workload is scaled by the probe whose kind of work its ops spend their time
on (``WORKLOAD_PROBE``), as its traced run shows.  Neither probe allocates
container objects, so neither triggers the garbage collector.
"""

from __future__ import annotations

import time

_BIG = 3 ** 20_000


def interp() -> int:
    """Interpreted work: a loop of small-int arithmetic and dict stores."""
    s = 0
    d = {}
    for i in range(20_000):
        s += i * i % 7
        d[i & 255] = s
    return s


def bigint() -> int:
    """Bigint work: divisions of a 31,700-bit integer by small primes."""
    n = _BIG
    for p in (2, 5, 7, 11, 13) * 40:
        n, _ = divmod(n, p)
    return n.bit_length()


PROBES = {"interp": interp, "bigint": bigint}

# Each probe's time in a fast phase on the reference machine (2 vCPUs,
# Python 3.11.7, no gmpy2), so that scaled times read as seconds there.
REFERENCE_S = {"interp": 0.0018, "bigint": 0.0016}

# pairs-witness is Pollard rho in interpreted loops, maps is pure-Python
# polynomial division, pairs-verdict is bigint division by p.
WORKLOAD_PROBE = {"pairs-witness": "interp", "maps": "interp", "pairs-verdict": "bigint"}
SETUP_PROBE = "interp"


def measure(kind: str, repeat: int = 2) -> float:
    """Fastest of ``repeat`` runs of one probe, in seconds."""
    fn = PROBES[kind]
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(kind: str, probe_s: float) -> float:
    """Factor that turns a time measured at ``probe_s`` into reference seconds."""
    return REFERENCE_S[kind] / probe_s
