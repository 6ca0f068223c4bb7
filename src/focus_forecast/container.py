"""Versioned binary tensor container backing prototype and model files.

Layout (all little-endian): magic "FOCS", u32 version (= 1), u32 entry
count, then per entry: u32 name length + UTF-8 name, u8 dtype code
(0 = float64, 1 = float32, 2 = int64), u32 rank, rank u64 dims, and the
row-major payload. Names are unique, payload sizes must match the dims,
and a file must be consumed exactly. Scalars travel as rank-0 entries.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from pathlib import Path

import numpy as np

from .clustering import FitMeta, PrototypeSet
from .data import check_ratio
from .errors import ContainerError, FocusError
from .model import HyperParams, ModelParams, _param_shapes, params_from_arrays

MAGIC = b"FOCS"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f8"), 1: np.dtype("<f4"), 2: np.dtype("<i8")}
_KIND_TO_CODE = {("f", 8): 0, ("f", 4): 1, ("i", 8): 2}


def _dtype_code(arr: np.ndarray, name: str) -> int:
    code = _KIND_TO_CODE.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise ContainerError(
            f"tensor '{name}' has unsupported dtype {arr.dtype}; "
            "only float64, float32, and int64 are storable"
        )
    return code


def write_container(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors (sorted by name, so output bytes are deterministic)."""
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        # ascontiguousarray would promote rank-0 entries to rank 1
        arr = np.asarray(tensors[name])
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        code = _dtype_code(arr, name)
        raw = name.encode("utf-8")
        if not raw:
            raise ContainerError("tensor names must be non-empty")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BI", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.astype(_CODE_TO_DTYPE[code], copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise ContainerError(f"{self.path}: truncated container")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_container(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container back into a name-to-array dict, bit-exactly."""
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as e:
        raise ContainerError(f"cannot read {path}: {e}") from e
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a container file")
    version = r.u32()
    if version != VERSION:
        raise ContainerError(f"{path}: unsupported container version {version}")
    count = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise ContainerError(f"{path}: tensor name is not valid UTF-8") from None
        if name in tensors:
            raise ContainerError(f"{path}: duplicate tensor name '{name}'")
        code = r.take(1)[0]
        if code not in _CODE_TO_DTYPE:
            raise ContainerError(f"{path}: unknown dtype code {code} for '{name}'")
        rank = r.u32()
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        dtype = _CODE_TO_DTYPE[code]
        # Python ints, so huge dims cannot wrap into a small size; take()
        # rejects a size beyond the bytes that remain
        payload = np.frombuffer(r.take(math.prod(dims) * dtype.itemsize), dtype=dtype)
        try:
            tensors[name] = payload.reshape(dims).copy()
        except ValueError:  # zero-size, but a dim beyond what numpy can index
            raise ContainerError(f"{path}: tensor '{name}' has unsupported dims {dims}") from None
    if r.off != len(buf):
        raise ContainerError(f"{path}: {len(buf) - r.off} trailing bytes")
    return tensors


def _scalar(value, dtype) -> np.ndarray:
    return np.asarray(value, dtype=dtype)


def _require(tensors: dict[str, np.ndarray], name: str, path) -> np.ndarray:
    if name not in tensors:
        raise ContainerError(f"{path}: missing tensor '{name}'")
    return tensors[name]


def _scalar_item(tensors: dict[str, np.ndarray], name: str, path):
    arr = _require(tensors, name, path)
    if arr.size != 1:
        raise ContainerError(f"{path}: '{name}' must be a scalar, got shape {arr.shape}")
    return arr.item()


def _from_file(where, build, *args, **kwargs):
    """build(*args, **kwargs); a value it rejects makes the file corrupt,
    so any FocusError it raises is re-raised as a ContainerError that
    names `where` (the file, or the file and its entry)."""
    try:
        return build(*args, **kwargs)
    except FocusError as e:
        raise ContainerError(f"{where}: {e}") from e


def _int_item(tensors: dict[str, np.ndarray], name: str, path) -> int:
    value = _scalar_item(tensors, name, path)
    # a float entry can hold NaN, an infinity or a fraction
    if not float(value).is_integer():
        raise ContainerError(f"{path}: '{name}' must be a whole number, got {value}")
    return int(value)


def prototype_entries(protos: PrototypeSet, prefix: str = "") -> dict[str, np.ndarray]:
    seed = protos.fit_meta.seed if protos.fit_meta is not None else 0
    return {
        f"{prefix}prototypes": protos.prototypes,
        f"{prefix}alpha": _scalar(protos.alpha, np.float64),
        f"{prefix}seed": _scalar(seed, np.int64),
    }


def _protos_from_entries(tensors, path, prefix: str = "") -> PrototypeSet:
    rows = np.asarray(_require(tensors, f"{prefix}prototypes", path), dtype=np.float64)
    alpha = float(_scalar_item(tensors, f"{prefix}alpha", path))
    seed = _int_item(tensors, f"{prefix}seed", path)
    # iterations/loss are not stored; only the seed survives a reload
    return _from_file(path, PrototypeSet, rows, alpha, FitMeta(0, float("nan"), seed))


def save_prototypes(path: str | Path, protos: PrototypeSet) -> None:
    write_container(path, prototype_entries(protos))


def load_prototypes(path: str | Path) -> PrototypeSet:
    return _protos_from_entries(read_container(path), path)


# k and p are the prototype array's shape, so a file stores them only there
HYPER_FIELDS = tuple(f.name for f in dataclasses.fields(HyperParams) if f.name not in ("k", "p"))


def save_model(
    path: str | Path,
    params: ModelParams,
    norm_stats: tuple[np.ndarray, np.ndarray],
    ratio: tuple[float, float, float],
) -> None:
    """Write parameters, hyper scalars, the embedded prototype set, and the
    training-time normalization stats and split ratio, so evaluation and
    forecasting reproduce the training pipeline from the model file alone.
    """
    tensors = dict(params.arrays())
    for name in HYPER_FIELDS:
        tensors[f"hyper/{name}"] = _scalar(getattr(params.hyper, name), np.int64)
    tensors.update(prototype_entries(params.protos, prefix="protos/"))
    tensors["norm/mean"] = np.asarray(norm_stats[0], dtype=np.float64)
    tensors["norm/std"] = np.asarray(norm_stats[1], dtype=np.float64)
    tensors["norm/ratio"] = np.asarray(ratio, dtype=np.float64)
    write_container(path, tensors)


def load_model(path: str | Path):
    """Read a model file back as (params, (mean, std), ratio)."""
    tensors = read_container(path)
    protos = _protos_from_entries(tensors, path, prefix="protos/")
    hyper = _from_file(
        path,
        HyperParams,
        k=protos.k,
        p=protos.p,
        **{name: _int_item(tensors, f"hyper/{name}", path) for name in HYPER_FIELDS},
    )
    arrays = {}
    for name, _shape, _kind in _param_shapes(hyper):
        arrays[name] = np.asarray(_require(tensors, name, path), dtype=np.float64)
    params = _from_file(path, params_from_arrays, hyper, protos, arrays)
    norm_stats = (_require(tensors, "norm/mean", path), _require(tensors, "norm/std", path))
    for name, arr in zip(("norm/mean", "norm/std"), norm_stats):
        if arr.shape != (hyper.n_entities,):
            raise ContainerError(
                f"{path}: {name} must have shape ({hyper.n_entities},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ContainerError(f"{path}: {name} has a non-finite entry")
    if np.any(norm_stats[1] <= 0):
        raise ContainerError(f"{path}: norm/std entries must be positive")
    r = _require(tensors, "norm/ratio", path)
    if r.shape != (3,):
        raise ContainerError(f"{path}: norm/ratio must have 3 entries, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ContainerError(f"{path}: norm/ratio has a non-finite entry")
    ratio = (float(r[0]), float(r[1]), float(r[2]))
    _from_file(f"{path}: norm/ratio", check_ratio, ratio)
    return params, norm_stats, ratio
