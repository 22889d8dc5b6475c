"""Per-process runtime tuning for allocation-fault-bound environments.

Motivation (measured, round 3): on microVM-style hosts (e.g. Firecracker —
kernel ``*-fc-*``) every FIRST touch of a fresh anonymous page exits to the
VMM, so bulk page-fault throughput can collapse to ~0.2–0.6 GB/s while
re-used (already-faulted) memory streams at >20 GB/s.  Default glibc
behavior — mmap() every large allocation and munmap() it on free — makes a
columnar engine re-fault its entire working set on every batch: a segment
build measured 0.55 s in isolation took 8–12 s at 32-way concurrency purely
from page-fault contention.

The fix is allocator RETENTION, not more memory: tell the allocators to keep
freed pages mapped so each worker faults its working set once and then runs
at full bandwidth.  Nothing is faulted ahead of use: a worker's heap grows
to its own working set and no further.  Measured effect on the affected VM
(200 MB alloc+stream probe): glibc default 0.19 GB/s → 10.4 GB/s after
``mallopt``; pyarrow jemalloc pool 2.2 GB/s → 7.1 GB/s on the system pool +
tuned glibc.

``tune_memory()`` is idempotent, per-process, and safe everywhere (no-ops on
failure); it is invoked at package import so every Ray worker that
deserializes one of our UDFs is tuned.  Opt out with
``IRESEARCH_NO_MEMTUNE=1``.  The retained-heap cost is bounded by each
worker's batch high-water mark (hundreds of MB), which is the same bound Ray
already assumes when sizing ``num_cpus`` per task.
"""

from __future__ import annotations

import ctypes
import os
import sys

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Large allocations beyond this still go to mmap (rare, huge, worth unmapping);
# everything below is served from the retained heap.
_RETAIN_BYTES = 1 << 30

_tuned = False


def _in_ray_worker() -> bool:
    argv0 = sys.argv[0] if sys.argv else ""
    return "default_worker.py" in argv0 or "setup_worker" in argv0


def should_autotune() -> bool:
    """Whether import-time tuning should apply in THIS process: a Ray worker
    (our UDFs run there) or a microVM kernel (``*-fc-*``) where first-touch
    faults exit to the VMM.  Host applications importing the library on
    normal kernels keep their default allocator behavior;
    IRESEARCH_NO_MEMTUNE=1 is a hard off."""
    if os.environ.get("IRESEARCH_NO_MEMTUNE"):
        return False
    if _in_ray_worker():
        return True
    try:
        return "-fc-" in os.uname().release
    except Exception:
        return False


def tune_memory() -> bool:
    """Configure allocators to retain freed pages. Returns True if applied."""
    global _tuned
    if _tuned:
        return True
    if os.environ.get("IRESEARCH_NO_MEMTUNE"):
        return False
    ok = False
    if sys.platform.startswith("linux"):
        try:
            libc = ctypes.CDLL("libc.so.6")
            ok = bool(libc.mallopt(_M_MMAP_THRESHOLD, _RETAIN_BYTES))
            ok = bool(libc.mallopt(_M_TRIM_THRESHOLD, _RETAIN_BYTES)) and ok
        except Exception:
            ok = False
    try:
        import pyarrow as pa

        # jemalloc (arrow default) returns dirty pages on a decay timer and
        # re-faults them; the system pool rides the glibc retention above.
        pa.set_memory_pool(pa.system_memory_pool())
    except Exception:
        pass
    _tuned = True
    return ok
