import struct

import numpy as np
import pytest

from dpntk.cli import EXIT_DATA, main
from dpntk.data import generate_synthetic
from dpntk.kernel import sample_weights
from dpntk.persistence import ModelFormatError, load_model, save_model
from dpntk.privacy import DPParams
from dpntk.regression import PrivateNTKModel, fit, fit_private, predict, predict_private
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


@pytest.fixture
def feasible_model():
    # d = 8 gives 36 quadratic features for 16 rows, so the kernel is full
    # rank and the budget passes the gate.
    data = generate_synthetic(16, 8, 2, 1.0, RngStream(3))
    w = sample_weights(32, 8, 1.0, RngStream(4))
    dp = DPParams(10.0, 1e-3)
    return fit_private(data, w, 1.0, 200, dp, dp, 1e-6, RngStream(5))


def queries(n=20, d=4, seed=6):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _data(model):
    return model.private_features if isinstance(model, PrivateNTKModel) else model.data_ref


def _features_at(model):
    """Byte offset of the features, the first f64 block, in the container."""
    return 8 + 8 + 16 + 24 + 4 + len(model.weights.seed_record.encode())


def _blocks(model):
    """Byte offsets of the factor R and the primal block V in the model's
    version-2 container, and the end of V."""
    data, w = _data(model), model.weights
    n, d, c, m = data.n, data.dim, data.n_outputs, w.m
    r = min(m, d)
    start = _features_at(model) + 8 * (2 * n * c + (n + m) * d)
    return start, start + 8 * r * d, start + 8 * (r * d + c * r * d)


def _without_label_columns(model, blob: bytes) -> bytes:
    """The model's version-2 file rewritten with c = 0 label columns: the
    labels, alpha and V blocks, all c columns wide, are dropped."""
    data, w = _data(model), model.weights
    labels_at = _features_at(model) + 8 * data.n * data.dim
    weights_at = labels_at + 8 * data.n * data.n_outputs
    alpha_at = weights_at + 8 * w.m * data.dim
    r_at, v_at, v_end = _blocks(model)
    raw = bytearray(blob[:labels_at] + blob[weights_at:alpha_at] + blob[r_at:v_at] + blob[v_end:])
    struct.pack_into("<I", raw, 24, 0)
    return bytes(raw)


def _as_v1(model, blob: bytes, reserved: float) -> bytes:
    """The version-1 file of the same model: no R or V blocks, and a private
    report with the reserved f64 between m_bound and rho."""
    r_at, _, v_end = _blocks(model)
    raw = bytearray(blob[:r_at] + blob[v_end:])
    struct.pack_into("<I", raw, 8, 1)
    if isinstance(model, PrivateNTKModel):
        slot = len(raw) - struct.calcsize("<dQB")
        raw[slot:slot] = struct.pack("<d", reserved)
    return bytes(raw)


@pytest.mark.parametrize("kind", ["plain", "private"])
def test_round_trip_bit_identical(kind, plain_model, private_model, tmp_path):
    model = plain_model if kind == "plain" else private_model
    p = tmp_path / "m.bin"
    save_model(model, str(p))
    back = load_model(str(p))
    assert type(back) is type(model)
    if kind == "private":
        assert back.budget == model.budget
        assert back.condition_report == model.condition_report
    assert back.weights.factor.tobytes() == model.weights.factor.tobytes()
    assert back.primal.tobytes() == model.primal.tobytes()
    q = queries()
    assert predict(back, q).tobytes() == predict(model, q).tobytes()
    for x in q:
        assert predict(back, x).tobytes() == predict(model, x).tobytes()
    again = tmp_path / "again.bin"
    save_model(back, str(again))
    assert again.read_bytes() == p.read_bytes()


def test_loaded_v2_model_predicts_without_a_qr(private_model, tmp_path, monkeypatch):
    p = tmp_path / "m.bin"
    save_model(private_model, str(p))
    expected = predict(private_model, queries()).tobytes()

    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    back = load_model(str(p))
    assert predict(back, queries()).tobytes() == expected
    # A version-1 file has no stored R, so it takes the lazy path.
    p.write_bytes(_as_v1(private_model, p.read_bytes(), 0.0))
    with pytest.raises(AssertionError, match="qr"):
        predict(load_model(str(p)), queries())


@pytest.mark.parametrize("kind", ["plain", "private"])
def test_v1_file_loads_and_predicts_the_same_bits(kind, plain_model, private_model, tmp_path):
    # Version 1 had no R or V blocks; its private report held a reserved f64
    # between m_bound and rho, read and ignored (older files hold a second M
    # estimate there).
    model = plain_model if kind == "plain" else private_model
    p = tmp_path / "m.bin"
    save_model(model, str(p))
    v2 = p.read_bytes()
    v1 = _as_v1(model, v2, reserved=0.0123)
    # R is 4 x 4 and V 2 x 4 x 4 at d = 4, m = 32, c = 2.
    assert len(v1) == len(v2) - 8 * (4 * 4 + 2 * 4 * 4) + 8 * (kind == "private")
    p.write_bytes(v1)
    back = load_model(str(p))
    assert type(back) is type(model)
    assert "primal" not in vars(back) and "factor" not in vars(back.weights)
    if kind == "private":
        assert back.budget == model.budget
        assert back.condition_report == model.condition_report
    q = queries(seed=8)
    assert predict(back, q).tobytes() == predict(model, q).tobytes()
    # Re-saving writes version 2, the same bytes as the original file.
    again = tmp_path / "again.bin"
    save_model(back, str(again))
    assert again.read_bytes() == v2


def test_non_finite_primal_rejected(private_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(private_model, str(p))
    raw = bytearray(p.read_bytes())
    _, v_at, _ = _blocks(private_model)
    struct.pack_into("<d", raw, v_at + 8 * 5, float("nan"))
    p.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="primal"):
        load_model(str(p))


def test_non_finite_factor_rejected(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    raw = bytearray(p.read_bytes())
    r_at, _, _ = _blocks(plain_model)
    struct.pack_into("<d", raw, r_at, float("inf"))
    p.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="factor"):
        load_model(str(p))


def test_factor_entry_below_the_diagonal_rejected(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    raw = bytearray(p.read_bytes())
    r_at, _, _ = _blocks(plain_model)
    d = plain_model.data_ref.dim
    assert struct.unpack_from("<d", raw, r_at + 8 * d) == (0.0,)  # R[1, 0]
    struct.pack_into("<d", raw, r_at + 8 * d, 1e-300)
    p.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="below its diagonal"):
        load_model(str(p))


@pytest.mark.parametrize("kind", ["plain", "private"])
def test_truncation_inside_the_stored_blocks_rejected(kind, plain_model, private_model, tmp_path):
    model = plain_model if kind == "plain" else private_model
    p = tmp_path / "m.bin"
    save_model(model, str(p))
    blob = p.read_bytes()
    r_at, v_at, v_end = _blocks(model)
    for cut in (r_at + 8, v_at, v_at + 8, v_end - 1):
        p.write_bytes(blob[:cut])
        with pytest.raises(ModelFormatError):
            load_model(str(p))


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
    # The tag alone decides the loaded type; a tag that names no kind is refused.
    for model in (plain_model, private_model):
        p = tmp_path / "m.bin"
        save_model(model, str(p))
        assert type(load_model(str(p))) is type(model)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 12, 3)
    p.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="unknown kind tag 3"):
        load_model(str(p))


@pytest.mark.parametrize("kind", ["plain", "private"])
def test_loaded_blocks_are_read_only_views_of_one_aligned_buffer(kind, plain_model, private_model,
                                                                 tmp_path):
    model = plain_model if kind == "plain" else private_model
    p = tmp_path / "m.bin"
    save_model(model, str(p))
    back = load_model(str(p))
    data = _data(back)
    alpha = back.private_alpha if kind == "private" else back.alpha
    blocks = [data.features, data.labels, back.weights.weights, alpha,
              back.weights.factor, back.primal]
    base = blocks[0].base
    assert base is not None and base.ndim == 1
    for block in blocks:
        assert block.dtype == np.float64
        assert block.flags.aligned and block.flags.c_contiguous
        assert not block.flags.writeable
        assert block.base is base
    assert not base.flags.writeable
    assert base.nbytes == 8 * sum(block.size for block in blocks)


# Each fault, at (block, flat index), with the ValueError it raises; the
# messages are those of the Dataset and WeightMatrix checks, and of fit's
# lambda check. The header's f64s start at offset 32: lambda, sigma, bound_B.
REFUSED = {
    "nan-weight": ("weights", 5, float("nan"), "weights must be finite"),
    "nan-feature": ("features", 3, float("nan"), "features and labels must be finite"),
    "row-above-bound": ("features", 0, 1e3, "row norm 1000 exceeds bound_B=1.0027"),
    "nan-lambda": ("header", 0, float("nan"), "lambda must be finite and positive"),
    "negative-lambda": ("header", 0, -1.0, "lambda must be finite and positive"),
    "nan-sigma": ("header", 1, float("nan"), "sigma must be finite and non-negative"),
    "inf-sigma": ("header", 1, float("inf"), "sigma must be finite and non-negative"),
}


@pytest.mark.parametrize("fault", REFUSED)
def test_one_pass_load_keeps_the_block_refusals(fault, private_model, tmp_path, capsys):
    block, index, value, message = REFUSED[fault]
    data = _data(private_model)
    offsets = {"header": 32, "features": _features_at(private_model)}
    offsets["weights"] = offsets["features"] + 8 * data.n * (data.dim + data.n_outputs)
    p = tmp_path / "m.bin"
    save_model(private_model, str(p))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<d", raw, offsets[block] + 8 * index, value)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        load_model(str(p))
    assert type(err.value) is ValueError and str(err.value) == message
    queries_csv = tmp_path / "q.csv"
    queries_csv.write_text("label,f0,f1,f2,f3\n0,0.5,0.5,0.5,0.5\n", encoding="utf-8")
    assert main(["predict", "--model", str(p), "--input", str(queries_csv)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_model_without_label_columns_is_refused(plain_model, tmp_path):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    p.write_bytes(_without_label_columns(plain_model, p.read_bytes()))
    with pytest.raises(ValueError, match="at least one column"):
        load_model(str(p))


def test_predict_with_a_model_without_label_columns_is_a_data_error(plain_model, tmp_path, capsys):
    p = tmp_path / "m.bin"
    save_model(plain_model, str(p))
    p.write_bytes(_without_label_columns(plain_model, p.read_bytes()))
    queries_csv = tmp_path / "q.csv"
    queries_csv.write_text("label,f0,f1,f2,f3\n0,0.5,0.5,0.5,0.5\n", encoding="utf-8")
    assert main(["predict", "--model", str(p), "--input", str(queries_csv)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: labels must be")


# The bytes after the stored M in each version's private report: v1's
# reserved f64, then rho, k and the flag byte.
_AFTER_M = {1: "<ddQB", 2: "<dQB"}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("fault", ["m-raised", "flags-zeroed"])
def test_flag_byte_that_contradicts_the_numbers_is_refused(version, fault, feasible_model,
                                                           tmp_path, capsys):
    # The loaded verdict is derived from Delta, M and k; a stored flag byte
    # that says otherwise is a corrupt file, not a second verdict.
    assert feasible_model.condition_report.feasible
    p = tmp_path / "m.bin"
    save_model(feasible_model, str(p))
    blob = p.read_bytes()
    raw = bytearray(blob if version == 2 else _as_v1(feasible_model, blob, 0.0))
    if fault == "m-raised":
        struct.pack_into("<d", raw, len(raw) - struct.calcsize(_AFTER_M[version]) - 8, 1e9)
    else:
        assert raw[-1] == 0b111
        raw[-1] = 0
    p.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="stored condition flags"):
        load_model(str(p))
    queries_csv = tmp_path / "q.csv"
    queries_csv.write_text("label," + ",".join(f"f{j}" for j in range(8)) + "\n0"
                           + ",0.25" * 8 + "\n", encoding="utf-8")
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(p), "--input", str(queries_csv),
                 "--out", str(out)]) == EXIT_DATA
    assert "data error: stored condition flags" in capsys.readouterr().err
    assert not out.exists()
