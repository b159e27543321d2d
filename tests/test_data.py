import numpy as np
import pytest

from dpntk.data import (
    CsvParseError,
    generate_synthetic,
    load_features_csv,
    save_features_csv,
    train_test_split,
)
from dpntk.kernel import sample_weights
from dpntk.regression import decode, fit, predict
from dpntk.rng import RngStream


class TestGenerateSynthetic:
    def test_single_class_all_same_label(self):
        data = generate_synthetic(12, 4, 1, 0.0, RngStream(1))
        assert data.labels.shape == (12, 1)
        assert np.all(data.labels == 1.0)

    def test_rows_unit_norm(self):
        data = generate_synthetic(30, 6, 3, 0.8, RngStream(2))
        np.testing.assert_allclose(np.linalg.norm(data.features, axis=1), 1.0, atol=1e-12)
        assert data.bound_B == 1.0

    def test_labels_one_hot(self):
        data = generate_synthetic(30, 6, 3, 0.8, RngStream(3))
        assert data.labels.shape == (30, 3)
        np.testing.assert_array_equal(data.labels.sum(axis=1), np.ones(30))

    def test_separable_instance_reaches_95_percent_test_accuracy(self):
        root = RngStream(0)
        data = generate_synthetic(200, 16, 2, 1.0, root)
        train, test = train_test_split(data, 0.5, root)
        w = sample_weights(256, 16, 1.0, root)
        model = fit(train, w, 10.0)
        acc = np.mean(decode(predict(model, test.features)) == np.argmax(test.labels, axis=1))
        assert acc >= 0.95

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divisible"):
            generate_synthetic(10, 4, 3, 0.5, RngStream(4))

    def test_impossible_separation_rejected(self):
        with pytest.raises(ValueError, match="2 apart"):
            generate_synthetic(10, 4, 2, 2.5, RngStream(5))

    def test_unreachable_separation_fails_cleanly(self):
        # 40 centers pairwise 1.9 apart cannot fit on the unit circle.
        with pytest.raises(ValueError, match="could not place"):
            generate_synthetic(40, 2, 40, 1.9, RngStream(6))

    def test_deterministic(self):
        a = generate_synthetic(20, 5, 2, 1.0, RngStream(7))
        b = generate_synthetic(20, 5, 2, 1.0, RngStream(7))
        np.testing.assert_array_equal(a.features, b.features)


class TestCsvRoundTrip:
    def test_hand_written_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("label,f0,f1\n1.0,0.25,-0.5\n0.0,1.0,2.0\n")
        data = load_features_csv(str(p))
        assert data.n == 2 and data.dim == 2
        np.testing.assert_array_equal(data.features, [[0.25, -0.5], [1.0, 2.0]])
        # classes sorted ascending: 0.0 -> column 0, 1.0 -> column 1
        np.testing.assert_array_equal(data.labels, [[0.0, 1.0], [1.0, 0.0]])

    def test_write_then_read_bit_identical(self, tmp_path):
        data = generate_synthetic(24, 5, 2, 1.0, RngStream(8))
        p = tmp_path / "round.csv"
        save_features_csv(data, str(p))
        back = load_features_csv(str(p))
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_normalize_flag(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("label,f0,f1\n0,3.0,4.0\n1,0.0,2.0\n")
        data = load_features_csv(str(p), normalize=True)
        np.testing.assert_allclose(np.linalg.norm(data.features, axis=1), 1.0)
        assert data.bound_B == 1.0


class TestCsvErrors:
    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label,f0\n1.0,0.5\nx,0.25\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_features_csv(str(p))

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("label,f0,f1\n1.0,0.5\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_features_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvParseError, match="line 1"):
            load_features_csv(str(p))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("id,f0\n1,2\n")
        with pytest.raises(CsvParseError, match="header"):
            load_features_csv(str(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "onlyhdr.csv"
        p.write_text("label,f0\n")
        with pytest.raises(CsvParseError, match="no data rows"):
            load_features_csv(str(p))


class TestTrainTestSplit:
    def test_partition(self):
        data = generate_synthetic(20, 4, 2, 1.0, RngStream(9))
        train, test = train_test_split(data, 0.7, RngStream(10))
        assert train.n == 14 and test.n == 6
        combined = np.vstack([train.features, test.features])
        assert {tuple(r) for r in combined} == {tuple(r) for r in data.features}

    def test_deterministic(self):
        data = generate_synthetic(20, 4, 2, 1.0, RngStream(11))
        a, _ = train_test_split(data, 0.5, RngStream(12))
        b, _ = train_test_split(data, 0.5, RngStream(12))
        np.testing.assert_array_equal(a.features, b.features)

    def test_fraction_bounds(self):
        data = generate_synthetic(10, 3, 1, 0.0, RngStream(13))
        with pytest.raises(ValueError):
            train_test_split(data, 1.0, RngStream(14))
