"""Command-line driver.

Subcommands: gen-data, fit, predict, tradeoff, verify. Flags mirror
ExperimentConfig fields in kebab-case; a flat key=value file can be passed
via --config, with explicit flags taking precedence. DPNTK_SEED provides a
default seed. Exit codes: 0 success, 1 usage error, 2 data error,
3 infeasible budget (fit --private refused an infeasible budget, or
tradeoff --strict found an infeasible row).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from .data import CsvParseError, generate_synthetic, load_features_csv, read_features_csv, save_features_csv
from .harness import ExperimentConfig, parse_config_file, plan_budget, run_tradeoff, verify_bounds, write_bound_report
from .kernel import discrete_kernel, sample_weights
from .persistence import ModelFormatError, load_model, save_model
from .privacy import BudgetInfeasibleError, max_k_refusal
from .regression import decode, fit, fit_private, predict
from .rng import RngStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

# The config keys each mode reads; any other flag or --config key is a usage
# error, not ignored. Only a private fit reads the budget keys and --epsilon
# (and strict, though it refuses infeasible budgets anyway); only generated
# data reads the keys that shape it, and only a read file normalize. Where
# k_policy is read, the policy picks k_fixed or k_cap (``_build_config``).
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_GENERATED = ("n", "d", "n_cls", "separation", "cluster_std")
_PLAIN_FIT = ("seed", "m", "lam", "sigma", "normalize", "input_path", "output_path")
_READS = {
    "gen-data": ("seed", *_GENERATED, "output_path"),
    "fit": _PLAIN_FIT,
    "fit --private": (*_PLAIN_FIT, "epsilon", "beta", "delta_total", "k_policy", "k_fixed",
                      "k_cap", "x_budget_frac", "gamma", "c_rho", "strict"),
    "tradeoff": tuple(key for key in _CONFIG_KEYS if key != "normalize"),
    "tradeoff --input": tuple(key for key in _CONFIG_KEYS if key not in _GENERATED),
    "verify": ("seed", "sigma", "beta", "gamma", "c_rho", "output_path"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n-cls", type=int, dest="n_cls")
    p.add_argument("--m", type=int)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--sigma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float, dest="delta_total")
    p.add_argument("--epsilon-grid", dest="epsilon_grid",
                   help="comma-separated increasing list")
    p.add_argument("--k-policy", dest="k_policy", choices=["max-k", "fixed"])
    p.add_argument("--k", type=int, dest="k_fixed")
    p.add_argument("--k-cap", type=int, dest="k_cap")
    p.add_argument("--train-frac", type=float, dest="train_frac")
    p.add_argument("--separation", type=float)
    p.add_argument("--cluster-std", type=float, dest="cluster_std")
    p.add_argument("--x-budget-frac", type=float, dest="x_budget_frac")
    p.add_argument("--gamma", type=float)
    p.add_argument("--c-rho", type=float, dest="c_rho")
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--no-normalize", action="store_false", dest="normalize", default=None)
    p.add_argument("--strict", action="store_true", default=None)
    p.add_argument("--input", dest="input_path")
    p.add_argument("--out", dest="output_path")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--private", action="store_true")
    p.add_argument("--epsilon", type=float, help="total budget for a private fit")


@functools.cache
def _flag_names() -> dict[str, str]:
    """Config key -> its flags as typed, e.g. lam -> --lambda."""
    p = argparse.ArgumentParser(add_help=False)
    _add_config_flags(p)
    _add_fit_flags(p)
    names: dict[str, list[str]] = {}
    for action in p._actions:
        names.setdefault(action.dest, []).extend(action.option_strings)
    return {key: "/".join(flags) for key, flags in names.items()}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge DPNTK_SEED, the --config file and the flags, later sources
    winning. A key the mode does not read is a usage error from a flag or
    the file."""
    values: dict = {}
    env_seed = os.environ.get("DPNTK_SEED")
    if env_seed is not None:
        values["seed"] = int(env_seed)
    from_file = parse_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, key) for key in (*_CONFIG_KEYS, "epsilon")
             if getattr(args, key, None) is not None}
    mode = args.command
    if mode == "fit" and args.private:
        mode = "fit --private"
    elif mode == "tradeoff" and {**from_file, **flags}.get("input_path"):
        mode = "tradeoff --input"
    reads = set(_READS[mode])
    if "k_policy" in reads:
        # Each k policy reads one of the two k keys: fixed --k, max-k --k-cap.
        policy = {**from_file, **flags}.get("k_policy", ExperimentConfig.k_policy)
        unread = "k_cap" if policy == "fixed" else "k_fixed"
        reads.discard(unread)
        if unread in flags or unread in from_file:
            mode = f"{mode} --k-policy {policy}"
    refused = [_flag_names()[key] for key in flags if key not in reads]
    refused += [f"{key} (in {args.config})" for key in from_file if key not in reads]
    if refused:
        raise _UsageError(f"{mode} does not take {', '.join(refused)}")
    flags.pop("epsilon", None)
    values.update(from_file)
    values.update(flags)
    if isinstance(values.get("epsilon_grid"), str):
        values["epsilon_grid"] = tuple(float(v) for v in values["epsilon_grid"].split(","))
    if "seed" not in values:
        raise _UsageError("a seed is required (--seed, config file, or DPNTK_SEED)")
    if mode.startswith("fit --private") and not values.get("beta", ExperimentConfig.beta) > 0:
        # Before ExperimentConfig, which refuses a negative beta as a data
        # error: here any beta that is not positive is a usage error.
        raise _UsageError("fit --private requires --beta > 0 (beta = 0 adds no feature noise)")
    return ExperimentConfig(**values)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if not cfg.output_path:
        raise _UsageError("gen-data requires --out")
    data = generate_synthetic(
        cfg.n, cfg.d, cfg.n_cls, cfg.separation, RngStream(cfg.seed),
        cluster_std=cfg.cluster_std,
    )
    save_features_csv(data, cfg.output_path)
    print(f"wrote {data.n} rows x {data.dim} features to {cfg.output_path}")
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if not cfg.input_path or not cfg.output_path:
        raise _UsageError("fit requires --input and --out")
    data = load_features_csv(cfg.input_path, normalize=cfg.normalize)
    root = RngStream(cfg.seed)
    w = sample_weights(cfg.m, data.dim, cfg.sigma, root)
    if not args.private:
        model = fit(data, w, cfg.lam)
    else:
        if args.epsilon is None:
            raise _UsageError("fit --private requires --epsilon")
        kern = discrete_kernel(data, w)
        dp_x, dp_a, k = plan_budget(args.epsilon, cfg, data.n, data.bound_B, kern.eta_min)
        if k == 0:
            why = max_k_refusal(dp_a, data.n, cfg.sigma, data.bound_B, cfg.beta, kern.eta_min, cfg.k_cap)
            print(f"max-k found no admissible k: {why}", file=sys.stderr)
        # Always enforced: an infeasible budget raises before any mechanism
        # runs or any file is written.
        model = fit_private(
            data, w, cfg.lam, k, dp_a, dp_x, cfg.beta, root.substream("fit"),
            kernel=kern, gamma=cfg.gamma, c_rho=cfg.c_rho,
        )
    save_model(model, cfg.output_path)
    print(f"saved model to {cfg.output_path}")
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    if not args.model or not args.input_path:
        raise _UsageError("predict requires --model and --input")
    model = load_model(args.model)
    # The file is checked as fit checks it, but its labels go unread.
    _, queries = read_features_csv(args.input_path)
    scores = predict(model, queries)
    row_format = "%d," + ";".join(["%.6g"] * scores.shape[1])
    lines = ["prediction,scores"] + [
        row_format % (label, *row)
        for label, row in zip(decode(scores).tolist(), scores.tolist())
    ]
    text = "\n".join(lines) + "\n"
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    table = run_tradeoff(cfg)
    if not cfg.output_path:
        sys.stdout.write(table.csv_text())
    else:
        print(f"wrote {len(table.rows)} rows to {cfg.output_path}")
    if cfg.strict and any(not r.feasible for r in table.rows):
        print("strict mode: at least one epsilon was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    checks = verify_bounds(cfg)
    if cfg.output_path:
        write_bound_report(checks, cfg.output_path)
    for c in checks:
        print(
            f"{c.name}: theoretical={c.theoretical:.6g} empirical={c.empirical:.6g} "
            f"{'pass' if c.passed else 'FAIL'}"
        )
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"{len(failed)} bound check(s) failed", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser =_Parser(prog="dpntk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic clustered dataset CSV")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("fit", help="fit a model from a feature CSV")
    _add_config_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model", required=False)
    p.add_argument("--input", dest="input_path")
    p.add_argument("--out", dest="output_path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("tradeoff", help="sweep the epsilon grid and emit a CSV")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("verify", help="run the bound-verification report")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetInfeasibleError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CsvParseError, ModelFormatError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
