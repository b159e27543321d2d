import os
import subprocess
import sys

import numpy as np
import pytest

import dpntk
from dpntk import cli
from dpntk.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, build_parser, main
from dpntk.data import CsvParseError, load_features_csv
from dpntk.persistence import load_model
from dpntk.regression import NTKModel, PrivateNTKModel, decode, predict


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("DPNTK_SEED", raising=False)


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main([
        "gen-data", "--seed", "3", "--n", "40", "--d", "6", "--n-cls", "2",
        "--separation", "1.0", "--out", str(path),
    ])
    assert code == EXIT_OK
    return str(path)


def test_gen_data_writes_loadable_csv(data_csv):
    data = load_features_csv(data_csv)
    assert data.n == 40 and data.dim == 6
    assert data.labels.shape == (40, 2)


def test_fit_and_predict_round_trip(tmp_path, data_csv):
    model_path = tmp_path / "model.bin"
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--m", "32",
        "--lambda", "1.0", "--out", str(model_path),
    ]) == EXIT_OK
    preds_path = tmp_path / "preds.csv"
    assert main([
        "predict", "--model", str(model_path), "--input", data_csv,
        "--out", str(preds_path),
    ]) == EXIT_OK
    lines = preds_path.read_text().splitlines()
    assert lines[0] == "prediction,scores"
    assert len(lines) == 41



@pytest.mark.parametrize("c", [1, 3])
def test_predict_rows_match_the_per_score_format(tmp_path, data_csv, monkeypatch, c):
    gen = np.random.default_rng(c)
    scores = gen.standard_normal((40, c)) * 10.0 ** gen.integers(-12, 12, (40, c))
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1e300, -1e-300, 123456.5, 1e-5]
    scores[:len(specials), 0] = specials
    monkeypatch.setattr(cli, "load_model", lambda path: None)
    monkeypatch.setattr(cli, "predict", lambda model, queries: scores)
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", "unused.bin", "--input", data_csv, "--out", str(out)]) == EXIT_OK
    want = ["prediction,scores"] + [
        f"{label}," + ";".join(f"{s:.6g}" for s in row)
        for label, row in zip(decode(scores), scores)
    ]
    assert out.read_text(encoding="utf-8") == "\n".join(want) + "\n"


def test_predict_refuses_a_query_whose_scores_overflow(tmp_path, data_csv, capsys):
    # Rows of norm 1e-6 and a ridge near zero put scores near 1e10 |x|^2, so
    # a query of norm 1e150, which the loader accepts, overflows them.
    lines = open(data_csv, encoding="utf-8").read().splitlines()
    small = tmp_path / "small.csv"
    small.write_text("\n".join([lines[0]] + [
        ",".join([label] + [repr(float(v) * 1e-6) for v in rest])
        for label, *rest in (line.split(",") for line in lines[1:])
    ]) + "\n")
    model_path = tmp_path / "model.bin"
    assert main([
        "fit", "--input", str(small), "--seed", "3", "--m", "32", "--lambda", "1e-30",
        "--no-normalize", "--out", str(model_path),
    ]) == EXIT_OK
    queries = tmp_path / "queries.csv"
    queries.write_text("label,f0,f1,f2,f3,f4,f5\n0,1,0,0,0,0,0\n1,1e150,0,0,0,0,0\n")
    preds = tmp_path / "preds.csv"
    with pytest.warns(UserWarning, match="bound_B"):
        code = main(["predict", "--model", str(model_path), "--input", str(queries),
                     "--out", str(preds)])
    assert code == EXIT_DATA
    assert "query row 1: non-finite scores" in capsys.readouterr().err
    assert not preds.exists()


@pytest.fixture
def saved_model(tmp_path, data_csv):
    path = tmp_path / "model.bin"
    assert main(["fit", "--input", data_csv, "--seed", "3", "--m", "32", "--lambda", "1.0",
                 "--out", str(path)]) == EXIT_OK
    return str(path)


def test_predict_output_is_the_formatted_scores_of_the_loaded_features(
        tmp_path, data_csv, saved_model, monkeypatch):
    # The plain and CRLF copies take the one-pass parser, the quoted copy
    # the per-cell reader; predict builds no dataset for any of them.
    text = open(data_csv, encoding="utf-8").read()
    head, *rows = text.splitlines()
    copies = {
        "plain": text,
        "crlf": text.replace("\n", "\r\n"),
        "quoted": "\n".join([head] + [",".join(f'"{c}"' for c in r.split(",")) for r in rows]),
    }
    model = load_model(saved_model)
    for name, body in copies.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(body.encode("utf-8"))
        scores = predict(model, load_features_csv(str(path)).features)
        want = ["prediction,scores"] + [
            f"{label}," + ";".join(f"{s:.6g}" for s in row)
            for label, row in zip(decode(scores), scores)
        ]
        out = tmp_path / f"{name}-preds.csv"
        with monkeypatch.context() as m:
            m.setattr(cli, "load_features_csv", None)
            assert main(["predict", "--model", saved_model, "--input", str(path),
                         "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8"), name


@pytest.mark.parametrize("row", ["nan,0.1,0.2,0.3,0.4,0.5,0.6", "1,0.1,0.2",
                                 "1,1e308,1e308,0,0,0,0"],
                         ids=["nan-label", "ragged", "overflowing"])
@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_predict_refuses_a_bad_query_file_at_the_loader_line(tmp_path, saved_model, capsys,
                                                             row, quote):
    path = tmp_path / "queries.csv"
    bad = ",".join(f"{quote}{c}{quote}" for c in row.split(","))
    path.write_text("label,f0,f1,f2,f3,f4,f5\n0,1,0,0,0,0,0\n\n" + bad + "\n1,0,1,0,0,0,0\n",
                    encoding="utf-8")
    with pytest.raises(CsvParseError) as err:
        load_features_csv(str(path))
    assert err.value.line == 4
    assert main(["predict", "--model", saved_model, "--input", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {err.value}\n"


def test_fit_and_predict_leave_scipy_linalg_unimported(tmp_path):
    # dpntk loads its LAPACK and BLAS routines without scipy.linalg's
    # __init__ and its hundreds of modules; a private fit and a prediction,
    # in a fresh interpreter, never import it.
    code = f"""
import sys
from dpntk import cli
d = {str(tmp_path)!r}
assert cli.main(["gen-data", "--seed", "3", "--n", "40", "--d", "10", "--out", d + "/data.csv"]) == 0
assert cli.main([
    "fit", "--input", d + "/data.csv", "--seed", "3", "--m", "32", "--lambda", "1.0",
    "--private", "--epsilon", "10", "--beta", "1e-6", "--k-policy", "fixed", "--k", "200",
    "--out", d + "/private.bin",
]) == 0
assert cli.main(["predict", "--model", d + "/private.bin", "--input", d + "/data.csv",
                 "--out", d + "/preds.csv"]) == 0
assert "scipy.linalg" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dpntk.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "preds.csv").read_text().splitlines()) == 41


def test_private_fit_with_fixed_k(tmp_path):
    # d = 10 gives 55 quadratic features for 40 rows, so the kernel is full rank.
    data_path = tmp_path / "data.csv"
    assert main([
        "gen-data", "--seed", "3", "--n", "40", "--d", "10", "--out", str(data_path),
    ]) == EXIT_OK
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--input", str(data_path), "--seed", "3", "--m", "32",
        "--lambda", "1.0", "--private", "--epsilon", "10", "--beta", "1e-6",
        "--k-policy", "fixed", "--k", "200", "--out", str(model_path),
    ]) == EXIT_OK
    model = load_model(str(model_path))
    assert isinstance(model, PrivateNTKModel)
    assert model.budget.epsilon == pytest.approx(10.0)
    assert model.condition_report.k == 200
    assert model.condition_report.feasible


@pytest.mark.parametrize("k_flags", [["--k-policy", "fixed", "--k", "200"], []])
def test_private_fit_refuses_infeasible_budget(tmp_path, data_csv, capsys, k_flags):
    # 40 rows at d = 6 exceed the 21 quadratic features: the kernel is singular,
    # so no k certifies (max-k picks k = 0). Refused without --strict.
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--m", "32",
        "--lambda", "1.0", "--private", "--epsilon", "2.0", "--beta", "1e-6",
        *k_flags, "--out", str(model_path),
    ]) == EXIT_INFEASIBLE
    assert "infeasible budget" in capsys.readouterr().err
    assert not model_path.exists()


# delta_alpha = 1e-3, so the smallest admissible k is ceil(8 ln 1000) = 56.
@pytest.mark.parametrize("cap_flags, reason", [
    ([], "M = 0.0166076 > Delta = 0.00898799, the largest Delta any admissible k "
         "reaches (at k = ceil(8 ln 1/delta) = 56)"),
    (["--k-cap", "10"], "k_cap = 10 is below the smallest admissible k = "
                        "ceil(8 ln 1/delta) = 56"),
])
def test_max_k_refusal_names_the_binding_condition(tmp_path, capsys, cap_flags, reason):
    data_path = tmp_path / "data.csv"
    assert main([
        "gen-data", "--seed", "1", "--n", "100", "--d", "16", "--out", str(data_path),
    ]) == EXIT_OK
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--seed", "1", "--input", str(data_path), "--private", "--epsilon", "1",
        "--beta", "1e-6", *cap_flags, "--out", str(model_path),
    ]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert f"max-k found no admissible k: {reason}" in err
    assert "ConditionReport(k=0, Delta=inf, M=0.0166076" in err
    assert not model_path.exists()


def test_max_k_refuses_when_m_is_at_least_one(tmp_path, capsys):
    # M = 16.6 >= 1: the largest k with M <= Delta (590) has Delta = 16.6,
    # so max-k finds no k instead of one the gate refuses.
    data_path = tmp_path / "data.csv"
    assert main(["gen-data", "--seed", "1", "--n", "100", "--d", "16", "--out", str(data_path)]) == EXIT_OK
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--seed", "1", "--input", str(data_path), "--m", "256", "--lambda", "0.3",
        "--private", "--epsilon", "6000", "--beta", "1e-3", "--out", str(model_path),
    ]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "max-k found no admissible k: M = 16.6076 >= 1: no k gives Delta < 1" in err
    assert "ConditionReport(k=0, Delta=inf, M=16.6076" in err
    assert not model_path.exists()


@pytest.mark.parametrize("k_flags", [["--k-policy", "fixed", "--k", "100"], ["--k-policy", "max-k"]])
def test_private_fit_at_sigma_zero_is_infeasible_under_both_policies(tmp_path, data_csv, capsys, k_flags):
    # sigma = 0 gives the all-zero kernel: rank-deficient, so no k certifies.
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--m", "32", "--private", "--sigma", "0",
        "--epsilon", "10", *k_flags, "--out", str(model_path),
    ]) == EXIT_INFEASIBLE
    assert "infeasible budget" in capsys.readouterr().err
    assert not model_path.exists()


def test_tradeoff_at_sigma_zero_writes_an_all_infeasible_table(tmp_path):
    out = tmp_path / "sweep.csv"
    with (pytest.warns(UserWarning, match="every epsilon in the grid is budget-infeasible"),
          pytest.warns(UserWarning, match="kernel is rank deficient")):
        code = main([
            "tradeoff", "--seed", "4", "--n", "40", "--d", "4", "--m", "32", "--sigma", "0",
            "--epsilon-grid", "1,10,100", "--out", str(out),
        ])
    assert code == EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert header.startswith("epsilon,k,feasible,")
    assert [row.split(",")[:3] for row in rows] == [[eps, "0", "false"] for eps in ("1", "10", "100")]


def test_private_fit_refuses_an_infinite_epsilon(tmp_path, data_csv, capsys):
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--m", "32", "--private", "--epsilon", "inf",
        "--beta", "1e-6", "--out", str(model_path),
    ]) == EXIT_DATA
    assert "data error: epsilon must be finite" in capsys.readouterr().err
    assert not model_path.exists()


def test_tradeoff_refuses_an_infinite_epsilon_in_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main([
        "tradeoff", "--seed", "1", "--n", "40", "--d", "4", "--m", "32",
        "--epsilon-grid", "100,inf", "--out", str(out),
    ]) == EXIT_DATA
    assert "data error: epsilon_grid values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_max_k_refusal_on_a_rank_deficient_kernel(tmp_path, data_csv, capsys):
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--private", "--epsilon", "2.0",
        "--beta", "1e-6", "--out", str(tmp_path / "private.bin"),
    ]) == EXIT_INFEASIBLE
    assert "the kernel is rank-deficient: eta_min = " in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--n", "5"], ["--d", "3"], ["--n-cls", "3"], ["--epsilon-grid", "1,2"],
    ["--train-frac", "0.1"], ["--separation", "2.0"], ["--cluster-std", "0.5"],
])
def test_fit_rejects_sweep_only_flags(tmp_path, data_csv, capsys, flag):
    model_path = tmp_path / "model.bin"
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--m", "32", "--lambda", "1.0",
        *flag, "--out", str(model_path),
    ]) == EXIT_USAGE
    assert f"fit does not take {flag[0]}" in capsys.readouterr().err
    assert not model_path.exists()


def test_fit_rejects_sweep_only_config_keys(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=1\nn=5\nepsilon_grid=1,2\ntrain_frac=0.1\nm=32\n")
    model_path = tmp_path / "model.bin"
    assert main([
        "fit", "--config", str(cfg), "--input", data_csv, "--lambda", "1.0",
        "--out", str(model_path),
    ]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"fit does not take n (in {cfg}), epsilon_grid (in {cfg}), train_frac (in {cfg})" in err
    assert not model_path.exists()


@pytest.mark.parametrize("flag", [
    ["--epsilon", "5"], ["--k", "5"], ["--k-policy", "fixed"], ["--beta", "0.5"],
    ["--delta", "0.1"], ["--gamma", "0.5"], ["--c-rho", "9"], ["--k-cap", "3"],
    ["--x-budget-frac", "0.9"], ["--strict"],
])
def test_plain_fit_rejects_budget_flags(tmp_path, data_csv, capsys, flag):
    model_path = tmp_path / "model.bin"
    assert main([
        "fit", "--input", data_csv, "--seed", "3", "--m", "32", *flag, "--out", str(model_path),
    ]) == EXIT_USAGE
    assert f"fit does not take {flag[0]}" in capsys.readouterr().err
    assert not model_path.exists()


def test_plain_fit_rejects_budget_config_keys(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=3\nm=32\nbeta=0.5\nk_fixed=5\nstrict=1\nnormalize=0\n")
    model_path = tmp_path / "model.bin"
    assert main(["fit", "--config", str(cfg), "--input", data_csv, "--out", str(model_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"fit does not take beta (in {cfg}), k_fixed (in {cfg}), strict (in {cfg})" in err
    assert not model_path.exists()


@pytest.mark.parametrize("k_flags", [
    ["--k-policy", "fixed", "--k", "200"], ["--k-policy", "max-k", "--k-cap", "10000"],
])
def test_private_fit_takes_every_budget_key(tmp_path, k_flags):
    data_path, model_path = str(tmp_path / "data.csv"), tmp_path / "private.bin"
    assert main(["gen-data", "--seed", "1", "--n", "40", "--d", "16", "--out", data_path]) == EXIT_OK
    assert main([
        "fit", "--input", data_path, "--seed", "3", "--m", "32", "--lambda", "1.0",
        "--private", "--epsilon", "50", "--beta", "1e-6", "--delta", "1e-3", "--gamma", "0.1",
        "--c-rho", "2", "--x-budget-frac", "0.5", *k_flags, "--no-normalize", "--strict",
        "--out", str(model_path),
    ]) == EXIT_OK
    assert isinstance(load_model(str(model_path)), PrivateNTKModel)


# Each k policy reads one k key: fixed reads --k, max-k (the default) --k-cap;
# the other is refused from a flag or a --config key.
@pytest.mark.parametrize("command", ["fit", "tradeoff"])
@pytest.mark.parametrize("k_flags, cfg_lines, policy, refused", [
    (["--k-policy", "fixed", "--k", "20000", "--k-cap", "3"], "", "fixed", "--k-cap"),
    (["--k-policy", "max-k", "--k", "20000"], "", "max-k", "--k"),
    (["--k", "20000"], "", "max-k", "--k"),
    ([], "k_policy=fixed\nk_fixed=200\nk_cap=3\n", "fixed", "k_cap (in {cfg})"),
    ([], "k_fixed=200\n", "max-k", "k_fixed (in {cfg})"),
])
def test_k_key_the_policy_does_not_read_is_refused(tmp_path, data_csv, capsys, command,
                                                   k_flags, cfg_lines, policy, refused):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n" + cfg_lines)
    out = tmp_path / "out"
    args = (["fit", "--input", data_csv, "--private", "--epsilon", "50", "--beta", "1e-6"]
            if command == "fit" else ["tradeoff", "--n", "40", "--d", "6", "--epsilon-grid", "1,10"])
    assert main([*args, "--config", str(cfg), *k_flags, "--out", str(out)]) == EXIT_USAGE
    mode = "fit --private" if command == "fit" else "tradeoff"
    err = capsys.readouterr().err
    assert f"{mode} --k-policy {policy} does not take {refused.format(cfg=cfg)}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    ["--n", "7"], ["--d", "3"], ["--n-cls", "5"], ["--separation", "9"], ["--cluster-std", "2"],
])
def test_tradeoff_from_a_file_rejects_generator_flags(tmp_path, data_csv, capsys, flag):
    out = tmp_path / "sweep.csv"
    assert main([
        "tradeoff", "--seed", "1", "--input", data_csv, "--epsilon-grid", "1,10", *flag,
        "--out", str(out),
    ]) == EXIT_USAGE
    assert f"tradeoff --input does not take {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_tradeoff_from_a_config_file_path_rejects_generator_keys(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seed=1\ninput_path={data_csv}\nn=7\nepsilon_grid=1,10\ncluster_std=2\n")
    out = tmp_path / "sweep.csv"
    assert main(["tradeoff", "--config", str(cfg), "--d", "3", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"tradeoff --input does not take --d, n (in {cfg}), cluster_std (in {cfg})" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--normalize", "--no-normalize"])
def test_generated_tradeoff_rejects_normalize(tmp_path, capsys, flag):
    out = tmp_path / "sweep.csv"
    assert main(["tradeoff", "--seed", "1", "--n", "40", "--d", "6", flag, "--out", str(out)]) == EXIT_USAGE
    assert "tradeoff does not take --normalize/--no-normalize" in capsys.readouterr().err
    assert not out.exists()


def test_generated_tradeoff_rejects_the_normalize_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=1\nn=40\nd=6\nnormalize=1\n")
    out = tmp_path / "sweep.csv"
    assert main(["tradeoff", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"tradeoff does not take normalize (in {cfg})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["0", "-1e-6"])
def test_private_fit_rejects_non_positive_beta(tmp_path, beta):
    data_path = tmp_path / "data.csv"
    assert main([
        "gen-data", "--seed", "8", "--n", "60", "--d", "4", "--out", str(data_path),
    ]) == EXIT_OK
    model_path = tmp_path / "private.bin"
    assert main([
        "fit", "--input", str(data_path), "--out", str(model_path), "--private",
        "--epsilon", "10", f"--beta={beta}", "--k-policy", "fixed", "--k", "100",
        "--strict", "--m", "32", "--seed", "8",
    ]) == EXIT_USAGE
    assert not model_path.exists()


def test_tradeoff_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "tradeoff", "--seed", "4", "--n", "80", "--d", "16", "--m", "64",
        "--lambda", "1.0", "--train-frac", "0.5",
        "--epsilon-grid", "1,10,100", "--k-cap", "3000", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("epsilon,k,feasible")
    assert len(lines) == 4


def test_strict_tradeoff_flags_infeasible_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "tradeoff", "--seed", "4", "--n", "60", "--d", "4", "--m", "32",
        "--train-frac", "0.5", "--epsilon-grid", "1,10", "--strict",
        "--out", str(out),
    ])
    assert code == EXIT_INFEASIBLE
    assert out.exists()  # results still written before the exit code


def test_usage_error_exit_code(capsys):
    assert main(["tradeoff", "--n", "50"]) == EXIT_USAGE  # no seed anywhere
    assert "seed" in capsys.readouterr().err
    assert main(["no-such-command"]) == EXIT_USAGE


def test_data_error_exit_code(tmp_path, capsys):
    assert main([
        "fit", "--input", str(tmp_path / "missing.csv"), "--seed", "1",
        "--out", str(tmp_path / "m.bin"),
    ]) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0\n1.0,abc\n")
    assert main([
        "fit", "--input", str(bad), "--seed", "1", "--out", str(tmp_path / "m.bin"),
    ]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 2" in err


def test_env_seed_used_when_flag_absent(tmp_path, monkeypatch):
    monkeypatch.setenv("DPNTK_SEED", "11")
    out = tmp_path / "d.csv"
    assert main([
        "gen-data", "--n", "20", "--d", "4", "--n-cls", "2",
        "--separation", "0.8", "--out", str(out),
    ]) == EXIT_OK
    ref = tmp_path / "ref.csv"
    assert main([
        "gen-data", "--seed", "11", "--n", "20", "--d", "4", "--n-cls", "2",
        "--separation", "0.8", "--out", str(ref),
    ]) == EXIT_OK
    assert out.read_text() == ref.read_text()


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed=5\nn=40\nd=6\nn_cls=2\nseparation=1.0\n"
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["gen-data", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
    # flag overrides the config seed
    assert main(["gen-data", "--config", str(cfg), "--seed", "6", "--out", str(b)]) == EXIT_OK
    assert a.read_text() != b.read_text()


def test_misspelled_config_bool_is_a_data_error(tmp_path, capsys):
    # "strict = ture" used to read as False and sweep without strict mode.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=5\nn=40\nd=6\nstrict = ture\n")
    out = tmp_path / "sweep.csv"
    assert main(["tradeoff", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
    assert f"{cfg}:4: bad value for strict: " in capsys.readouterr().err
    assert not out.exists()


def test_verify_subcommand(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--seed", "2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "bound,theoretical,empirical,ratio,pass"
    assert all(line.endswith(",pass") for line in lines[1:])


@pytest.mark.parametrize("flag", [
    ["--m", "100000"], ["--epsilon-grid", "1,2"], ["--n", "7"], ["--lambda", "2"],
    ["--k", "5"], ["--input", "data.csv"], ["--no-normalize"], ["--strict"],
])
def test_verify_rejects_flags_it_ignores(tmp_path, capsys, flag):
    out = tmp_path / "report.csv"
    assert main(["verify", "--seed", "2", *flag, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "verify does not take --" in err and flag[0] in err
    assert not out.exists()


def test_verify_rejects_config_keys_it_ignores(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=2\nsigma=1.0\nm=100000\nepsilon_grid=1,2\ngamma=0.01\n")
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"verify does not take m (in {cfg}), epsilon_grid (in {cfg})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--lambda", "5"], ["--k", "3"], ["--epsilon-grid", "1,2"],
                                  ["--input", "nothing.csv"], ["--strict"]])
def test_gen_data_rejects_flags_it_ignores(tmp_path, capsys, flag):
    out = tmp_path / "g.csv"
    assert main(["gen-data", "--seed", "1", *flag, "--out", str(out)]) == EXIT_USAGE
    assert f"gen-data does not take {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_config_keys_it_ignores(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=2\nn=20\nm=100000\nd=4\n")
    out = tmp_path / "g.csv"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"gen-data does not take m (in {cfg})" in capsys.readouterr().err
    assert not out.exists()


def test_reused_parser_behaves_like_a_fresh_process(tmp_path, monkeypatch, capsys):
    # One parser serves every main call in a process; a flag or default of
    # one call must not reach the next. The usage error drops --epsilon, which
    # the first call set, and the plain fit drops --private.
    runs = [
        ["fit", "--input", "data.csv", "--seed", "3", "--m", "32", "--private",
         "--epsilon", "10", "--beta", "1e-6", "--k-policy", "fixed", "--k", "200",
         "--out", "private.bin"],
        ["fit", "--input", "data.csv", "--seed", "3", "--m", "32", "--out", "plain.bin"],
        ["predict", "--model", "private.bin", "--input", "data.csv"],
        ["fit", "--input", "data.csv", "--seed", "3", "--private", "--out", "x.bin"],
    ]
    assert main(["gen-data", "--seed", "3", "--n", "40", "--d", "10",
                 "--out", str(tmp_path / "data.csv")]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert build_parser() is build_parser()
    got = []
    for argv in runs:
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    # Each reference runs in its own process and directory, all at once.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dpntk.__file__)))
    procs = []
    for i, argv in enumerate(runs):
        fresh = tmp_path / f"fresh{i}"
        fresh.mkdir()
        for name in ("data.csv", "private.bin"):
            (fresh / name).write_bytes((tmp_path / name).read_bytes())
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "dpntk.cli", *argv], cwd=fresh, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    want = []
    for p in procs:
        out, err = p.communicate()
        want.append((p.returncode, out, err))
    assert got == want
    assert [code for code, _, _ in got] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE]
    assert "requires --epsilon" in got[3][2]
    for i, name in enumerate(("private.bin", "plain.bin")):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"fresh{i}" / name).read_bytes()
    assert isinstance(load_model("plain.bin"), NTKModel)
    assert not (tmp_path / "x.bin").exists() and not (tmp_path / "fresh3" / "x.bin").exists()
