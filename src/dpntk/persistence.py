"""Binary model container.

Layout (all integers and floats little-endian):

    magic      8 bytes   b"DPNTKMDL"
    version    u32       currently 2
    kind       u32       1 = plain model, 2 = private model
    n, d, c, m u32 each  training rows, feature dim, label columns, weights
    lam, sigma, bound_B        f64 each
    seed_record                u32 byte length + UTF-8 bytes
    features   n*d f64   row-major
    labels     n*c f64
    weights    m*d f64
    alpha      n*c f64
    factor     r*d f64   R of the weights' QR, r = min(m, d), upper-trapezoidal
    primal     c*r*d f64 the scores' primal block V (``regression``)
    -- private models append --
    budget     eps f64, delta f64
    report     delta_cap, m_bound, rho  f64 each
               k u64, flags u8 (bit0 Delta<1, bit1 M<=Delta, bit2 k>=1)

The flags are the report's verdict, derived from Delta, M and k: a loaded
report is built from the stored numbers, and a flag byte other than theirs
is refused with :class:`ModelFormatError`.

A loaded model holds R and V as read, not recomputed (they are trusted as
alpha is), so predicting from a file runs no QR and no GEMM: a query meets
only numpy's einsum loop, and its scores do not depend on the loading
machine's LAPACK or BLAS. Each block must be finite, and R zero below its
diagonal.

Version 1 files still load. They lack R and V, which the model then builds
on first use as an in-process one does, and their private report carries a
reserved f64 between m_bound and rho that is ignored (older files hold a
second M estimate there that gated nothing). Nothing writes version 1.

The f64 blocks from features through V are read in one call into one
aligned float64 buffer, and the loaded model's arrays are read-only views of
it: loading makes no copy after the read. (Views into a bytes object of the
whole file would be unaligned, as the header and seed record are rarely a
multiple of 8 bytes long.)

No trailing bytes are allowed. The header's sizes are checked against the
file length before any array is read, and a short read anywhere raises
:class:`ModelFormatError`, so truncated files never yield a partial model.
Private containers hold the privatized features only.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .kernel import Dataset, WeightMatrix, _check_positive
from .privacy import ConditionReport, DPParams
from .regression import NTKModel, PrivateNTKModel

__all__ = ["ModelFormatError", "save_model", "load_model"]

MAGIC = b"DPNTKMDL"
VERSION = 2
_KIND_PLAIN = 1
_KIND_PRIVATE = 2
# The condition report of a private model by version, for every version
# read: v1 has a reserved f64 between m_bound and rho.
_REPORT = {1: "<ddddQB", 2: "<dddQB"}


class ModelFormatError(ValueError):
    """Container violates the documented layout."""


def _write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh: BinaryIO, count: int) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise ModelFormatError(f"truncated file: wanted {count} bytes, got {len(buf)}")
    return buf


def _read_blocks(fh: BinaryIO, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """The consecutive f64 blocks of ``shapes``, in order, read in one call
    into one aligned buffer and handed out as read-only views of it."""
    buf = np.empty(sum(math.prod(shape) for shape in shapes.values()), dtype="<f8")
    got = fh.readinto(buf)
    if got != buf.nbytes:
        raise ModelFormatError(f"truncated file: wanted {buf.nbytes} bytes, got {got}")
    buf = buf.astype(np.float64, copy=False)  # a no-op on little-endian hosts
    buf.setflags(write=False)
    blocks, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        blocks[name] = buf[start:start + size].reshape(shape)
        start += size
    return blocks


def _flags(report: ConditionReport) -> int:
    """The report's flag byte: bit0 Delta<1, bit1 M<=Delta, bit2 k>=1."""
    return int(report.delta_lt_one) | int(report.m_le_delta) << 1 | int(report.k_ge_one) << 2


def _check_finite(arr: np.ndarray, name: str) -> None:
    """A stored derived block must be finite, as its cached value is."""
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"{name} block is not finite")


def save_model(model: NTKModel | PrivateNTKModel, path: str) -> None:
    """Serialize a fitted model; the round trip reproduces predictions
    bit-for-bit."""
    if isinstance(model, PrivateNTKModel):
        kind, data, alpha = _KIND_PRIVATE, model.private_features, model.private_alpha
    elif isinstance(model, NTKModel):
        kind, data, alpha = _KIND_PLAIN, model.data_ref, model.alpha
    else:
        raise TypeError(f"cannot save object of type {type(model).__name__}")
    w = model.weights
    seed_bytes = w.seed_record.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, kind))
        fh.write(struct.pack("<IIII", data.n, data.dim, data.n_outputs, w.m))
        fh.write(struct.pack("<ddd", model.lam, w.sigma, data.bound_B))
        fh.write(struct.pack("<I", len(seed_bytes)))
        fh.write(seed_bytes)
        _write_array(fh, data.features)
        _write_array(fh, data.labels)
        _write_array(fh, w.weights)
        _write_array(fh, alpha)
        _write_array(fh, w.factor)
        _write_array(fh, model.primal)
        if kind == _KIND_PRIVATE:
            fh.write(struct.pack("<dd", model.budget.epsilon, model.budget.delta))
            r = model.condition_report
            fh.write(struct.pack(_REPORT[VERSION], r.delta_cap, r.m_bound, r.rho, r.k, _flags(r)))


def load_model(path: str) -> NTKModel | PrivateNTKModel:
    """Read a model container, plain or private as its kind tag says."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 8) != MAGIC:
            raise ModelFormatError("bad magic bytes")
        version, kind = struct.unpack("<II", _read_exact(fh, 8))
        if version not in _REPORT:
            raise ModelFormatError(f"unsupported version {version}")
        if kind not in (_KIND_PLAIN, _KIND_PRIVATE):
            raise ModelFormatError(f"unknown kind tag {kind}")
        n, d, c, m = struct.unpack("<IIII", _read_exact(fh, 16))
        lam, sigma, bound = struct.unpack("<ddd", _read_exact(fh, 24))
        _check_positive("lambda", lam)
        (seed_len,) = struct.unpack("<I", _read_exact(fh, 4))
        r = min(m, d)
        shapes = {"features": (n, d), "labels": (n, c), "weights": (m, d), "alpha": (n, c)}
        if version >= 2:
            shapes.update(factor=(r, d), primal=(c, r, d))
        payload = seed_len + 8 * sum(math.prod(shape) for shape in shapes.values())
        payload += 16 + struct.calcsize(_REPORT[version]) if kind == _KIND_PRIVATE else 0
        if payload > size - fh.tell():
            raise ModelFormatError(f"header (n={n}, d={d}, c={c}, m={m}) exceeds the file length")
        seed_record = _read_exact(fh, seed_len).decode("utf-8")
        blocks = _read_blocks(fh, shapes)
        data = Dataset(blocks["features"], blocks["labels"], bound)
        w = WeightMatrix(weights=blocks["weights"], sigma=sigma, seed_record=seed_record)
        if version >= 2:
            factor, primal = blocks["factor"], blocks["primal"]
            _check_finite(factor, "factor")
            if np.tril(factor, -1).any():
                raise ModelFormatError("factor has nonzero entries below its diagonal")
            _check_finite(primal, "primal")
        if kind == _KIND_PLAIN:
            model: NTKModel | PrivateNTKModel = NTKModel(
                data_ref=data, weights=w, lam=lam, alpha=blocks["alpha"]
            )
        else:
            eps, delta = struct.unpack("<dd", _read_exact(fh, 16))
            fmt = _REPORT[version]
            delta_cap, mb, *_reserved, rho, k, flags = struct.unpack(
                fmt, _read_exact(fh, struct.calcsize(fmt))
            )
            report = ConditionReport(delta_cap=delta_cap, m_bound=mb, rho=rho, k=k)
            if flags != _flags(report):
                raise ModelFormatError(f"stored condition flags {flags} contradict Delta, M and k")
            model = PrivateNTKModel(
                private_features=data,
                weights=w,
                lam=lam,
                private_alpha=blocks["alpha"],
                budget=DPParams(eps, delta),
                condition_report=report,
            )
        if fh.read(1) != b"":
            raise ModelFormatError("trailing bytes after model payload")
    if version >= 2:
        # Fill the cached properties the model would otherwise compute.
        vars(w)["factor"] = factor
        vars(model)["primal"] = primal
    return model
