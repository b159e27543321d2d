"""Binary model container.

Layout (all integers and floats little-endian):

    magic      8 bytes   b"DPNTKMDL"
    version    u32       currently 1
    kind       u32       1 = plain model, 2 = private model
    n, d, c, m u32 each  training rows, feature dim, label columns, weights
    lam, sigma, bound_B        f64 each
    seed_record                u32 byte length + UTF-8 bytes
    features   n*d f64   row-major
    labels     n*c f64
    weights    m*d f64
    alpha      n*c f64
    -- private models append --
    budget     eps f64, delta f64
    report     delta_cap, m_bound, reserved, rho  f64 each
               k u64, flags u8 (bit0 Delta<1, bit1 M<=Delta, bit2 k>=1)

The reserved f64 is written as 0.0 and ignored on read; older files hold a
second M estimate there that gated nothing.

No trailing bytes are allowed. The header's sizes are checked against the
file length before any array is read, and a short read anywhere raises
:class:`ModelFormatError`, so truncated files never yield a partial model.
Private containers hold the privatized features only.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO

import numpy as np

from .kernel import Dataset, WeightMatrix
from .privacy import ConditionReport, DPParams
from .regression import NTKModel, PrivateNTKModel

__all__ = ["ModelFormatError", "save_model", "load_model"]

MAGIC = b"DPNTKMDL"
VERSION = 1
_KIND_PLAIN = 1
_KIND_PRIVATE = 2
# Budget (eps, delta) plus the condition report, appended to private models.
_PRIVATE_TAIL = struct.calcsize("<dd") + struct.calcsize("<ddddQB")


class ModelFormatError(ValueError):
    """Container violates the documented layout."""


def _write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh: BinaryIO, count: int) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise ModelFormatError(f"truncated file: wanted {count} bytes, got {len(buf)}")
    return buf


def _read_array(fh: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    count = int(np.prod(shape))
    buf = _read_exact(fh, count * 8)
    return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)


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
        if kind == _KIND_PRIVATE:
            fh.write(struct.pack("<dd", model.budget.epsilon, model.budget.delta))
            r = model.condition_report
            flags = int(r.delta_lt_one) | int(r.m_le_delta) << 1 | int(r.k_ge_one) << 2
            fh.write(
                struct.pack(
                    "<ddddQB", r.delta_cap, r.m_bound, 0.0, r.rho, r.k, flags
                )
            )


def load_model(path: str, expect_kind: str | None = None) -> NTKModel | PrivateNTKModel:
    """Read a model container.

    Args:
        expect_kind: "plain" or "private" to insist on a specific kind;
            a mismatch is a format error.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 8) != MAGIC:
            raise ModelFormatError("bad magic bytes")
        version, kind = struct.unpack("<II", _read_exact(fh, 8))
        if version != VERSION:
            raise ModelFormatError(f"unsupported version {version}")
        if kind not in (_KIND_PLAIN, _KIND_PRIVATE):
            raise ModelFormatError(f"unknown kind tag {kind}")
        if expect_kind == "plain" and kind != _KIND_PLAIN:
            raise ModelFormatError("expected a plain model, found a private one")
        if expect_kind == "private" and kind != _KIND_PRIVATE:
            raise ModelFormatError("expected a private model, found a plain one")
        n, d, c, m = struct.unpack("<IIII", _read_exact(fh, 16))
        lam, sigma, bound = struct.unpack("<ddd", _read_exact(fh, 24))
        (seed_len,) = struct.unpack("<I", _read_exact(fh, 4))
        payload = seed_len + 8 * (2 * n * c + (n + m) * d)
        payload += _PRIVATE_TAIL if kind == _KIND_PRIVATE else 0
        if payload > size - fh.tell():
            raise ModelFormatError(f"header (n={n}, d={d}, c={c}, m={m}) exceeds the file length")
        seed_record = _read_exact(fh, seed_len).decode("utf-8")
        features = _read_array(fh, (n, d))
        labels = _read_array(fh, (n, c))
        weights = _read_array(fh, (m, d))
        alpha = _read_array(fh, (n, c))
        data = Dataset(features, labels, bound)
        w = WeightMatrix(weights=weights, sigma=sigma, seed_record=seed_record)
        if kind == _KIND_PLAIN:
            model: NTKModel | PrivateNTKModel = NTKModel(
                data_ref=data, weights=w, lam=lam, alpha=alpha
            )
        else:
            eps, delta = struct.unpack("<dd", _read_exact(fh, 16))
            delta_cap, mb, _reserved, rho, k, flags = struct.unpack(
                "<ddddQB", _read_exact(fh, 41)
            )
            report = ConditionReport(
                delta_cap=delta_cap,
                m_bound=mb,
                rho=rho,
                k=int(k),
                delta_lt_one=bool(flags & 1),
                m_le_delta=bool(flags & 2),
                k_ge_one=bool(flags & 4),
            )
            model = PrivateNTKModel(
                private_features=data,
                weights=w,
                lam=lam,
                private_alpha=alpha,
                budget=DPParams(eps, delta),
                condition_report=report,
            )
        if fh.read(1) != b"":
            raise ModelFormatError("trailing bytes after model payload")
    return model
