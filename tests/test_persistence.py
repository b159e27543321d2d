import struct

import numpy as np
import pytest

from dpntk.data import generate_synthetic
from dpntk.kernel import sample_weights
from dpntk.persistence import ModelFormatError, load_model, save_model
from dpntk.privacy import DPParams
from dpntk.regression import fit, fit_private, predict, predict_private
from dpntk.rng import RngStream

DP = DPParams(1.0, 1e-3)


@pytest.fixture
def plain_model():
    data = generate_synthetic(16, 4, 2, 1.0, RngStream(1))
    w = sample_weights(32, 4, 1.0, RngStream(2))
    return fit(data, w, 1.0)


@pytest.fixture
def private_model():
    data = generate_synthetic(16, 4, 2, 1.0, RngStream(3))
    w = sample_weights(32, 4, 1.0, RngStream(4))
    return fit_private(data, w, 1.0, 64, DP, DP, 1e-4, RngStream(5), enforce=False)


def queries(n=20, d=4, seed=6):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_plain_round_trip_bit_identical(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    back = load_model(str(p))
    for x in queries():
        np.testing.assert_array_equal(predict(back, x), predict(plain_model, x))


def test_private_round_trip_bit_identical(private_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(private_model, str(p))
    back = load_model(str(p))
    assert back.budget == private_model.budget
    assert back.condition_report == private_model.condition_report
    for x in queries(seed=7):
        np.testing.assert_array_equal(
            predict_private(back, x), predict_private(private_model, x)
        )


def test_reserved_slot_is_written_as_zero_and_ignored(private_model, tmp_path):
    # The private tail ends delta_cap, m_bound, reserved, rho (f64 each),
    # k (u64), flags (u8); files written before the slot was reserved hold a
    # nonzero double there.
    p = tmp_path / "m.bin"
    save_model(private_model, str(p))
    raw = bytearray(p.read_bytes())
    slot = len(raw) - struct.calcsize("<ddQB")
    assert struct.unpack_from("<d", raw, slot) == (0.0,)
    struct.pack_into("<d", raw, slot, 0.0123)
    p.write_bytes(bytes(raw))
    back = load_model(str(p))
    assert back.budget == private_model.budget
    assert back.condition_report == private_model.condition_report
    q = queries(seed=8)
    assert predict_private(back, q).tobytes() == predict_private(private_model, q).tobytes()


def test_truncated_file_rejected(private_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(private_model, str(p))
    blob = p.read_bytes()
    for cut in (4, 20, len(blob) // 2, len(blob) - 1):
        p.write_bytes(blob[:cut])
        with pytest.raises(ModelFormatError):
            load_model(str(p))


def test_header_sizes_checked_before_reading_arrays(plain_model, tmp_path):
    # n = d = 2^32 - 1 overflows an int64 element count; the header must be
    # rejected against the file length before any array read is attempted.
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    blob = bytearray(p.read_bytes())
    blob[16:24] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
    p.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="header"):
        load_model(str(p))


def test_trailing_bytes_rejected(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(str(p))


def test_bad_magic_rejected(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    blob = bytearray(p.read_bytes())
    blob[0] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(str(p))


def test_unknown_version_rejected(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    blob = bytearray(p.read_bytes())
    blob[8] = 99
    p.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(str(p))


def test_kind_tag_enforced(plain_model, private_model, tmp_path):
    plain_path = tmp_path / "plain.bin"
    priv_path = tmp_path / "priv.bin"
    save_model(plain_model, str(plain_path))
    save_model(private_model, str(priv_path))
    with pytest.raises(ModelFormatError, match="expected a private"):
        load_model(str(plain_path), expect_kind="private")
    with pytest.raises(ModelFormatError, match="expected a plain"):
        load_model(str(priv_path), expect_kind="plain")
    assert load_model(str(plain_path), expect_kind="plain") is not None
