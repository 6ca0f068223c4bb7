"""Small shared helpers: seeded RNG streams, finiteness checks and the
heap policy of the batch loops."""

import ctypes
import functools

import numpy as np

from .errors import ConfigError, NumericalError


def seed_stream(seed: int, label: str) -> np.random.Generator:
    """Derive an independent generator for one stochastic stage.

    A single run seed is stretched into per-stage streams keyed by a fixed
    label ("init", "shuffle", "synth", ...) so stages stay independent while
    the whole run remains reproducible from one integer. Seeds outside
    int64, which the model and prototype files store, raise ConfigError.
    """
    seed = int(seed)
    if not -(2**63) <= seed < 2**63:
        raise ConfigError(f"seed must be in [-2**63, 2**63), got {seed}")
    entropy = int.from_bytes(label.encode("utf-8"), "little")
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, entropy]))


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite value in tensor '{name}'")
    return arr


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def fix_heap_policy() -> None:
    """Keep a batch loop's freed buffers on the heap for the process's life.

    By default glibc returns the top of its heap to the system whenever
    more than its trim threshold is free, and serves blocks above its mmap
    threshold from fresh mappings; both thresholds adapt to what the
    process has freed before. A loop that allocates and frees multi-MB
    temporaries per batch then faults its pages in again on every batch
    (~34k minor faults per 512-window `evaluate` at lookback 512, N=7),
    or not, depending on that history. Fixing both thresholds, above one
    batch's temporaries, keeps those pages mapped. Setting either one
    alone switches off the adaptation of both, so both are set. Runs once
    per process; a no-op where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest allowed on 64-bit
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
