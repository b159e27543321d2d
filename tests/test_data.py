import csv

import numpy as np
import pytest

import dpntk.data as data_module
from dpntk import cli
from dpntk.data import (
    CsvParseError,
    generate_synthetic,
    load_features_csv,
    save_features_csv,
    train_test_split,
)
from dpntk.kernel import Dataset, sample_weights
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

    @staticmethod
    def _per_cell_text(data):
        """The literal writer: one row at a time, each cell repr(float(.))."""
        lines = ["label," + ",".join(f"f{j}" for j in range(data.dim))]
        for i in range(data.n):
            if data.n_outputs > 1:
                label = repr(float(np.argmax(data.labels[i])))
            else:
                label = repr(float(data.labels[i, 0]))
            lines.append(",".join([label] + [repr(float(v)) for v in data.features[i]]))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("one_hot", [True, False])
    def test_writer_matches_the_per_cell_writer(self, tmp_path, one_hot):
        # 1e308 is a finite label; as a feature its square would overflow the
        # row norm that Dataset checks, so the features stop at 1e150.
        values = np.array([-0.0, 5e-324, 1e308, 0.1])
        feats = np.array([[-0.0, 5e-324, 0.1], [0.1, -0.0, 1e150], [5e-324, 0.1, -0.0],
                          [-0.1, 1e-300, -5e-324]])
        labels = np.eye(4)[[2, 0, 3, 1]] if one_hot else values.reshape(-1, 1)
        data = Dataset(feats, labels, bound_B=1e150)
        p = tmp_path / "cells.csv"
        save_features_csv(data, str(p))
        assert p.read_bytes() == self._per_cell_text(data).encode()
        gen = generate_synthetic(24, 5, 3, 1.0, RngStream(8))
        save_features_csv(gen, str(p))
        assert p.read_bytes() == self._per_cell_text(gen).encode()

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


def per_cell_load(path):
    """Reference reader: every cell through Python float(), rows checked in
    file order, one-hot columns over the sorted distinct labels."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        d = len(next(reader)) - 1
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise CsvParseError(lineno, f"expected {d + 1} cells, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise CsvParseError(lineno, f"non-numeric cell: {exc}") from None
    values = np.asarray(rows)
    classes = sorted(set(values[:, 0].tolist()))
    one_hot = np.array([[float(lab == c) for c in classes] for lab in values[:, 0]])
    return values[:, 1:], one_hot


class TestCsvEdgeCells:
    HEADER = "label,f0,f1,f2\n"
    GOOD = ["1, 1.5 ,+1.,1_000\n", "-0,1e-400,-0,\t2\n", "0,0.1,-0.2,3e-3\n",
            "1e0,٣,2.,.5\n", "\n", "2,1e2,-1E-2,0.30000000000000004\n"]

    def test_loads_the_per_cell_values(self, tmp_path):
        p = tmp_path / "edge.csv"
        p.write_text(self.HEADER + "".join(self.GOOD), encoding="utf-8")
        feats, one_hot = per_cell_load(str(p))
        data = load_features_csv(str(p))
        assert np.array_equal(data.features, feats)
        assert np.array_equal(np.signbit(data.features), np.signbit(feats))
        assert np.array_equal(data.labels, one_hot) and data.labels.shape == (5, 3)
        assert data.bound_B == float(np.linalg.norm(feats, axis=1).max())

    @pytest.mark.parametrize("body, line", [
        (GOOD + ["1,,0,0\n", "1,0\n"], 8),       # empty cell before a ragged row
        (GOOD + ["1,0\n", "1,0x1p3,0,0\n"], 8),  # ragged row before a hex cell
        (GOOD + ["1,0,0,0\n", "x,0,0,0\n"], 9),  # non-numeric label
        (["1,0,0,0,0\n", "1,0,0,0,0\n"], 2),     # every row one cell too long
    ])
    def test_raises_the_per_cell_error(self, tmp_path, body, line):
        p = tmp_path / "bad.csv"
        p.write_text(self.HEADER + "".join(body), encoding="utf-8")
        with pytest.raises(CsvParseError) as want:
            per_cell_load(str(p))
        with pytest.raises(CsvParseError) as got:
            load_features_csv(str(p))
        assert got.value.line == want.value.line == line
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kwargs", [{}, {"normalize": True}, {"bound_B": 2.0}])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_overflowing_row_norm_is_refused_with_its_line(self, tmp_path, kwargs, quote):
        # Every cell is finite, but 1e308 ** 2 overflows: the stated bound
        # would be inf, and normalizing would zero the row.
        p = tmp_path / "big.csv"
        p.write_text(f"label,f0,f1\n1,0.5,0.5\n\n0,{quote}1e308{quote},1e308\n1,2e308,0\n",
                     encoding="utf-8")
        with pytest.raises(CsvParseError, match="line 4: row norm is not finite"):
            load_features_csv(str(p), **kwargs)

    def test_overflowing_cell_is_rejected_as_non_finite(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text(self.HEADER + "0,1e400,0,0\n", encoding="utf-8")
        assert np.isinf(per_cell_load(str(p))[0][0, 0])
        with pytest.raises(ValueError, match="finite"):
            load_features_csv(str(p))



def assert_loads_like_per_cell(path):
    feats, one_hot = per_cell_load(str(path))
    data = load_features_csv(str(path))
    assert np.array_equal(data.features, feats)
    assert np.array_equal(np.signbit(data.features), np.signbit(feats))
    assert np.array_equal(data.labels, one_hot)


def assert_same_error(path):
    with pytest.raises(CsvParseError) as want:
        per_cell_load(str(path))
    with pytest.raises(CsvParseError) as got:
        load_features_csv(str(path))
    assert got.value.line == want.value.line
    assert str(got.value) == str(want.value)


class TestCsvFastPath:
    """load_features_csv parses plain bodies in one C pass; every file must
    still load to the per-cell float() values or raise the per-cell error."""

    HEADER = "label,f0,f1\n"
    ROWS = ["1,0.5,-0.25\n", "0,-0,1e-310\n", "2,3.0,4\n"]

    @pytest.mark.parametrize("text", [
        HEADER.replace("\n", "\r\n") + "".join(ROWS).replace("\n", "\r\n"),  # CRLF
        HEADER.replace("\n", "\r") + "".join(ROWS).replace("\n", "\r"),  # lone CR
        HEADER + '1,"0.5",-0.25\n"0",-0,"1e-310"\n2,3.0,4\n',  # quoted cells
        HEADER + "\n" + "\n\n".join(ROWS) + "\n",  # blank lines between rows
        HEADER + ROWS[1],  # a single data row
        HEADER + "".join(ROWS).rstrip("\n"),  # no trailing newline
        HEADER + "1,0.5,\t-0.25 \n0,\u00a00,1\n",  # whitespace around cells
    ], ids=["crlf", "lone-cr", "quoted", "blank-lines", "one-row", "no-newline", "padded"])
    def test_loads_the_per_cell_values(self, tmp_path, text):
        p = tmp_path / "edge.csv"
        p.write_bytes(text.encode("utf-8"))
        assert_loads_like_per_cell(p)

    @pytest.mark.parametrize("fmt", ["repr", "%.17g", "%.6g", "%e"])
    def test_random_floats_load_bit_identical(self, tmp_path, fmt):
        gen = np.random.default_rng(20)
        feats = gen.standard_normal((60, 5)) * 10.0 ** gen.integers(-320, 308, (60, 5))
        feats[0, :5] = [5e-324, -2.5e-320, -0.0, 1e308, -1e308]
        labels = gen.integers(-2, 3, 60).astype(float)
        labels[1] = -0.0
        cell = repr if fmt == "repr" else (lambda v: fmt % v)

        def write(path, rows, quote=""):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("label," + ",".join(f"f{j}" for j in range(5)) + "\n")
                for row in rows:
                    fh.write(",".join(f"{quote}{cell(float(v))}{quote}" for v in row) + "\n")

        rows = np.column_stack([labels, feats])
        p = tmp_path / "random.csv"
        write(p, rows)
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.linalg.norm(per_cell_load(str(p))[0], axis=1))
        assert not finite[0] and 5 < finite.sum() < 55
        # The rows whose squares overflow are refused at the first of them,
        # by the one-pass and the per-cell (quoted) parser alike.
        ordered = np.concatenate([rows[finite], rows[~finite]])
        for quote in ["", '"']:
            write(p, ordered, quote)
            with pytest.raises(CsvParseError, match="row norm is not finite") as err:
                load_features_csv(str(p), normalize=bool(quote))
            assert err.value.line == 2 + finite.sum()
        # The other rows load to the float() values, bit for bit.
        write(p, rows[finite])
        assert_loads_like_per_cell(p)

    @pytest.mark.parametrize("body", [
        ["1,0,0\n", "   \n", "1,0,0\n"],  # whitespace-only line
        ["1,0,0\n", "\t\n"],  # tab-only last line
        ["1,0,0\n", "1,2#x,0\n"],  # '#' is not a comment marker
        ["# comment\n", "1,0,0\n"],
        ["1,0,0\n", "1,\x1c2,0\n"],  # ASCII separator numpy strips, float() refuses
        ["1,0,0\n", "1,0,2\x1f\n"],
        ["1,0,0\n", "1,0,0,\n"],  # trailing comma
    ])
    def test_raises_the_per_cell_error(self, tmp_path, body):
        p = tmp_path / "bad.csv"
        p.write_bytes((self.HEADER + "".join(body)).encode("utf-8"))
        assert_same_error(p)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n\r"])
    def test_no_rows_raises_without_a_warning(self, tmp_path, body):
        p = tmp_path / "empty-body.csv"
        p.write_bytes((self.HEADER + body).encode("utf-8"))
        with pytest.raises(CsvParseError, match="line 2: no data rows"):
            load_features_csv(str(p))

    def test_generated_file_takes_the_one_pass_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "gen.csv"
        assert cli.main(["gen-data", "--seed", "4", "--n", "30", "--d", "7", "--n-cls", "3",
                         "--out", str(path)]) == 0
        want = load_features_csv(str(path))

        def refuse(path):
            raise AssertionError("fell back to the per-cell reader")

        monkeypatch.setattr(data_module, "_read_cells", refuse)
        data = load_features_csv(str(path))
        assert np.array_equal(data.features, want.features)
        assert np.array_equal(data.labels, want.labels)


class TestNonFiniteLabels:
    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "NaN", "-Infinity", "1e400"])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_refused_with_its_line(self, tmp_path, label, quote):
        p = tmp_path / "labels.csv"
        p.write_text(f"label,f0,f1\n1,0.5,0.5\n\n{quote}{label}{quote},0.1,0.2\n0,0,0\n",
                     encoding="utf-8")
        with pytest.raises(CsvParseError, match="non-finite label") as err:
            load_features_csv(str(p))
        assert err.value.line == 4

    def test_repeated_nan_labels_are_not_classes(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("label,f0,f1\nnan,0.1,0.2\nnan,0.3,0.4\n1,0.5,0.6\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="line 2: non-finite label"):
            load_features_csv(str(p))


def test_dataset_refuses_a_row_whose_squares_overflow_without_a_warning():
    # Every cell is finite and within the bound, but 1e200 ** 2 overflows;
    # RuntimeWarnings are errors in this suite, so a warning fails the test.
    with pytest.raises(ValueError, match="row 0: norm is not finite"):
        Dataset(np.array([[1e200, 1e200]]), np.zeros((1, 1)), 1e300)


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
