"""Command-line surface: generate, fit, predict, evaluate, export.

Exit codes: 0 on success, 1 for bad input (files, flags, dimensions)
or an output file that cannot be written,
2 when an algorithm ran but could not finish under its assumptions
(sampling budget exhausted, separability violated, no convergence).
Every number printed here is computed by the library functions, so CLI
output matches library output bit for bit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .calf import CalfModel, pldc_to_calf
from .dataset import Dataset, generate_separable, load_csv, load_matrix, write_csv, write_rows
from .exceptions import BudgetExhaustedError, FitDiagnostic, InputError
from .fitting import FitConfig, NAIVE_CAP_DEFAULT, cas2, cas_calr, naive_calr
from .linreg import mse
from .mip import build_mip, export_mip
from .model_io import load_model, load_pldc_spec, save_model, save_truth


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as InputError (exit code 1)."""

    def error(self, message):
        raise InputError(message)


def _epsilon_flag(text: str):
    return text if text == "auto" else float(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="calr", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate planted piecewise-linear data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="data.csv")
    p.add_argument("--truth", default=None, help="also write the ground truth JSON here")
    p.set_defaults(func=cmd_gen)

    # fit and its alias naive-fit share the input, output and naive flags.
    shared = _Parser(add_help=False)
    shared.add_argument("--data", required=True)
    shared.add_argument(
        "--cap", type=int, default=NAIVE_CAP_DEFAULT, help="subset-enumeration size cap (naive)"
    )
    shared.add_argument("--target-column", default=None)
    shared.add_argument("--out", default="model.json")
    shared.add_argument("--report", default=None, help="also write the text report here")

    defaults = FitConfig()
    p = sub.add_parser("fit", parents=[shared], help="fit a piecewise model to CSV data")
    p.add_argument("--algo", choices=("cas", "cas2", "naive"), default="cas")
    p.add_argument("--m", type=int, default=defaults.m)
    p.add_argument("--epsilon", type=_epsilon_flag, default=defaults.epsilon)
    p.add_argument("--delta", type=float, default=defaults.delta)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--max-samples", type=int, default=defaults.max_samples)
    p.add_argument("--separator", choices=("lp", "svm"), default=defaults.separator)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("naive-fit", parents=[shared], help="alias of fit --algo naive")
    p.set_defaults(func=cmd_fit, algo="naive", m=1)

    p = sub.add_parser("predict", help="append a prediction column to feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="mean squared error of a model on CSV data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target-column", default=None)
    p.add_argument("--bound", type=float, default=None, help="print PASS/FAIL of mse < bound")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-mip", help="write the exact-fit program as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--target-column", default=None)
    p.add_argument("--out", default="program.json")
    p.set_defaults(func=cmd_export_mip)

    p = sub.add_parser("pldc-convert", help="convert a difference of max-affine terms")
    p.add_argument("--spec", required=True, help="JSON with plus_terms/minus_terms")
    p.add_argument("--out", default="model.json")
    p.set_defaults(func=cmd_pldc_convert)

    return parser


def cmd_gen(args) -> int:
    data, truth = generate_separable(
        n=args.n, d=args.d, m=args.m, sigma=args.sigma, delta=args.delta, seed=args.seed
    )
    write_csv(data, args.out)
    print(f"wrote {data.n} rows (d={data.d}, m={args.m}) to {args.out}")
    if args.truth:
        save_truth(truth, args.truth)
        print(f"wrote ground truth to {args.truth}")
    return 0


def _fit_report(model: CalfModel, data: Dataset, status: str) -> str:
    lines = [f"status: {status}"]
    info = model.fit_info
    if "algorithm" in info:
        lines.append(f"algorithm: {info['algorithm']}")
    lines.append(f"mse: {mse(model, data)!r}")
    lines.append(f"pieces: {len(model.pieces)}")
    counts = np.bincount(model.assign_batch(data.X), minlength=len(model.pieces) + 1)
    lines.append(f"default region: {counts[0]} points")
    for k, (f, area) in enumerate(model.pieces):
        lines.append(
            f"piece {k + 1}: {counts[k + 1]} points, "
            f"{len(area)} half-spaces, fit p-value {f.p_value!r}"
        )
    if info.get("samples_used") is not None:
        lines.append(f"samples consumed: {info['samples_used']}")
    if info.get("epsilon") is not None:
        lines.append(f"epsilon: {info['epsilon']!r}")
    if info.get("branch"):
        lines.append(f"branch: {info['branch']}")
    return "\n".join(lines)


def _emit_report(text: str, path) -> None:
    print(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_fit(args) -> int:
    """Save and report the model of any solver; an exhausted budget leaves its fallback, exit 2."""
    data = load_csv(args.data, target_column=args.target_column)
    status, code = "ok", 0
    if args.algo == "naive":
        if args.m != 1:
            raise InputError("this solver handles exactly one piece (m=1)")
        model = naive_calr(data, cap=args.cap)
    else:
        config = FitConfig(
            m=args.m, epsilon=args.epsilon, delta=args.delta, seed=args.seed,
            max_samples=args.max_samples, separator=args.separator,
        )
        solver = cas2 if args.algo == "cas2" else cas_calr
        try:
            model = solver(data, config)
        except BudgetExhaustedError as exc:
            model, code = exc.fallback, 2
            status = (
                f"budget exhausted after {exc.samples_used} draws with "
                f"{len(exc.partial_models)} accepted model(s); wrote the global fallback fit"
            )
    save_model(model, args.out)
    _emit_report(_fit_report(model, data, status), args.report)
    return code


def cmd_predict(args) -> int:
    model = load_model(args.model)
    names, values = load_matrix(args.data)
    if values.shape[1] == model.d + 1:
        values = values[:, : model.d]  # trailing target column; ignore it
        names = names[: model.d]
    elif values.shape[1] != model.d:
        raise InputError(
            f"model expects {model.d} feature columns, file has {values.shape[1]}"
        )
    preds = model.predict_batch(values)
    write_rows(args.out, names + ("prediction",), np.column_stack([values, preds]))
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.data, target_column=args.target_column)
    value = mse(model, data)
    print(f"mse: {value!r}")
    if args.bound is not None:
        verdict = "PASS" if value < args.bound else "FAIL"
        print(f"decision (mse < {args.bound!r}): {verdict}")
    return 0


def cmd_export_mip(args) -> int:
    data = load_csv(args.data, target_column=args.target_column)
    instance = build_mip(data, M=args.m, K=args.k, tau=args.tau)
    export_mip(instance, args.out)
    print(
        f"wrote program with {instance.local_continuous_count} local continuous "
        f"variables and {instance.constraint_count} constraints to {args.out}"
    )
    return 0


def cmd_pldc_convert(args) -> int:
    model = pldc_to_calf(load_pldc_spec(args.spec))
    save_model(model, args.out)
    print(f"wrote converted model with {len(model.pieces)} pieces to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        # OSError: an output file that cannot be written (missing directory, no permission).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitDiagnostic as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
