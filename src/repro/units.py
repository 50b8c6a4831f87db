"""Physical units and conversions used throughout the simulation.

All simulated time is in **seconds** (float), all data sizes in **bytes**
(int), and all rates in **bytes per second** (float).  These helpers exist so
that calibration constants and experiment parameters can be written the way
the paper writes them ("20 GB of memory", "QDR Infiniband", "10 GbE",
"1.3 Gbps") without sprinkling magic multipliers around the code base.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Data sizes (bytes).  Binary prefixes for memory, decimal for marketing
# network rates, matching common usage in the systems literature.
# ---------------------------------------------------------------------------

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

KB: int = 1000
MB: int = 1000 * KB
GB: int = 1000 * MB

#: x86 base page size used by the guest-memory model.
PAGE_SIZE: int = 4 * KiB

# ---------------------------------------------------------------------------
# Time (seconds).
# ---------------------------------------------------------------------------

USEC: float = 1e-6
MSEC: float = 1e-3
SECOND: float = 1.0
MINUTE: float = 60.0


def usec(n: float) -> float:
    """Return ``n`` microseconds expressed in seconds."""
    return n * USEC


def msec(n: float) -> float:
    """Return ``n`` milliseconds expressed in seconds."""
    return n * MSEC


# ---------------------------------------------------------------------------
# Rates (bytes/second).  Network gear is quoted in bits per second.
# ---------------------------------------------------------------------------


def gbps(n: float) -> float:
    """Convert gigabits-per-second (decimal) to bytes-per-second."""
    return n * 1e9 / 8.0


def gib_per_s(n: float) -> float:
    """Convert GiB/s to bytes-per-second (memory bandwidth style)."""
    return n * GiB


def pages(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``nbytes`` (rounded up)."""
    return -(-int(nbytes) // PAGE_SIZE)


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (binary prefixes), e.g. ``'20.0 GiB'``."""
    n = float(n)
    for unit, width in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(n) >= width:
            return f"{n / width:.1f} {unit}"
    return f"{n:.0f} B"
