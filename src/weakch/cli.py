"""Command-line entry point.

Every successful invocation writes exactly one JSON envelope to stdout
(or CSV rows with --format csv); diagnostics go to stderr. Exit codes:
0 no violation, 1 usage error, 2 precondition or validation failure,
3 inequality violation detected.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from pathlib import Path

# Only the closed forms are imported here; the handlers that need arrays
# import common_cause, search or simulate (and with them numpy) themselves.
from . import __version__, singlet
from .inequalities import (
    SettingProbs,
    WeakChError,
    ch_atom_oracle,
    ch_expression,
    correction_terms,
    epsilon_thresholds,
    evaluate_weak_ch,
    tsirelson_check,
    weak_ch_bounds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3

FORMAT_ENV = "WEAKCH_FORMAT"
FORMATS = ("json", "csv")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(x) -> str:
    # json.dumps's text, except each float at 17 significant digits (exact
    # round trips) and a non-finite one as null
    if isinstance(x, float):
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(x, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _dump_json(v) for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(_dump_json, x)) + "]"
    return json.dumps(x)


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        if isinstance(obj, float):
            obj = format(obj, ".17g") if math.isfinite(obj) else ""
        rows.append((prefix, obj))


def _csv_rows(envelope: dict) -> list:
    """simulate's counts table from its own result, else key/value rows."""
    if envelope["command"] != "simulate" or "result" not in envelope:
        rows = [("key", "value")]
        _flatten("", envelope, rows)
        return rows
    result = envelope["result"]
    rows = [["alice_setting", "bob_setting", "alice_outcome", "bob_outcome", "count", "frequency"]]
    for a in (0, 1):
        for b in (0, 1):
            n_pair = result["pair_counts"][a][b]
            for oa, sa in enumerate("+-"):
                for ob, sb in enumerate("+-"):
                    cnt = result["counts"][a][b][oa][ob]
                    rows.append([a + 1, b + 3, sa, sb, cnt, format(cnt / n_pair, ".17g")])
    return rows


def _emit(envelope: dict, fmt: str):
    if fmt == "json":
        text = _dump_json(envelope) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows(_csv_rows(envelope))
        text = buf.getvalue()
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`weakch ... | head`). Point stdout at devnull so
        # the flush at exit stays quiet; the command keeps its exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _envelope(command: str, inputs: dict, result) -> dict:
    return {
        "command": command,
        "inputs": _jsonable(inputs),
        "result": _jsonable(result),
        "version": __version__,
    }


def _finite_float(text: str) -> float:
    """argparse type for every float option: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _output_format(text: str) -> str:
    """argparse type of --format: unlike choices, it also checks the default read from WEAKCH_FORMAT."""
    if text not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"must be json or csv, got {text!r} (the default is read from {FORMAT_ENV})"
        )
    return text


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _parse_numbers(text: str, count: int | None, what: str, kind=_finite_float) -> list:
    try:
        vals = [kind(tok) for tok in text.split(",")]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise _UsageError(f"cannot parse {what}: {exc}") from exc
    if count is not None and len(vals) != count:
        raise _UsageError(f"{what} needs exactly {count} comma-separated values")
    return vals


def _maybe_radians(values: list[float], degrees: bool) -> list[float]:
    if degrees:
        return [math.radians(v) for v in values]
    return values


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise WeakChError(f"cannot read {path}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="weakch", description=__doc__)
    parser.add_argument(
        "--format",
        type=_output_format,
        choices=FORMATS,
        default=os.environ.get(FORMAT_ENV, "json"),
        help="output format (env WEAKCH_FORMAT sets the default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    setting_probs = argparse.ArgumentParser(add_help=False)
    for flag, default in (("--pa", 0.5), ("--pb", 0.5), ("--pab", 0.25)):
        setting_probs.add_argument(flag, type=_finite_float, default=default)

    p = sub.add_parser("predict", help="singlet predictions")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--angles", help="four directions t1,t2,t3,t4")
    given.add_argument("--phi", type=_finite_float, help="single inter-direction angle")
    p.add_argument("--outcomes", help="outcome pair for --phi, e.g. ++ or +-")
    p.add_argument("--degrees", action="store_true")

    p = sub.add_parser(
        "bounds", help="correction terms and corrected interval", parents=[setting_probs]
    )
    p.add_argument("--epsilon", type=_finite_float, required=True)

    sub.add_parser("thresholds", help="largest deficits still violated by quantum values")

    p = sub.add_parser(
        "check", help="check one combination value against the interval", parents=[setting_probs]
    )
    p.add_argument("--value", type=_finite_float, required=True)
    p.add_argument("--epsilon", type=_finite_float, required=True)

    p = sub.add_parser("check-model", help="validate a model file")
    p.add_argument("--file", required=True)

    p = sub.add_parser("oracle", help="CH value of an explicit 16-atom distribution")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--atoms", help="16 comma-separated probabilities")
    given.add_argument("--file", help="JSON file holding a list of 16 probabilities")

    p = sub.add_parser("optimize-angles", help="extremal directions for the combination")
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--grid", type=int, default=16)

    p = sub.add_parser("search", help="search for a strict-only violation model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--eps-band", default="1e-6,1e-3")
    p.add_argument("--cards", default="2,2,2,2")

    p = sub.add_parser("simulate", help="Monte Carlo record with inequality test")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--angles", help="four directions t1,t2,t3,t4 of the singlet (default 0,0,0,0)")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--model", help="model file used as the outcome source")
    p.add_argument("--epsilon", type=_finite_float, default=0.0)
    p.add_argument("--k-sigma", type=_positive_float, default=3.0)
    p.add_argument("--setting-probs", help="four pair probabilities p13,p14,p23,p24")

    return parser


def _cmd_predict(args) -> tuple[dict, object, int]:
    if args.angles is not None:
        if args.outcomes is not None:
            raise _UsageError("--outcomes applies to --phi only")
        theta = _maybe_radians(_parse_numbers(args.angles, 4, "--angles"), args.degrees)
        terms = singlet.ch_terms(theta)
        value = ch_expression(terms)
        result = {"ch_value": value, "terms": terms, "tsirelson_ok": tsirelson_check(value)}
        inputs = {"angles": list(theta)}  # radians, so that they replay without --degrees
    else:
        if not args.outcomes or len(args.outcomes) != 2 or any(c not in "+-" for c in args.outcomes):
            raise _UsageError("--phi needs --outcomes from {++, +-, -+, --}")
        phi = _maybe_radians([args.phi], args.degrees)[0]
        result = {"joint_prob": singlet.joint_prob(phi, args.outcomes[0], args.outcomes[1])}
        inputs = {"phi": phi, "outcomes": args.outcomes}
    return inputs, result, EXIT_OK


def _cmd_bounds(args) -> tuple[dict, object, int]:
    sp = SettingProbs(args.pa, args.pb, args.pab)
    lower, upper = weak_ch_bounds(args.epsilon, sp)
    result = {
        "correction_terms": correction_terms(args.epsilon, sp),
        "lower": lower,
        "upper": upper,
    }
    inputs = {"epsilon": args.epsilon, "pa": args.pa, "pb": args.pb, "pab": args.pab}
    return inputs, result, EXIT_OK


def _cmd_thresholds(args) -> tuple[dict, object, int]:
    lo, hi = epsilon_thresholds()
    return {}, {"eps_lower_max": lo, "eps_upper_max": hi}, EXIT_OK


def _cmd_check(args) -> tuple[dict, object, int]:
    sp = SettingProbs(args.pa, args.pb, args.pab)
    report = evaluate_weak_ch(args.value, weak_ch_bounds(args.epsilon, sp), args.epsilon)
    inputs = {"value": args.value, "epsilon": args.epsilon, "pa": args.pa, "pb": args.pb, "pab": args.pab}
    return inputs, report, EXIT_VIOLATION if report.violated else EXIT_OK


def _residual_summary(report) -> dict:
    worst = report.worst()
    return {
        "count": len(report.residuals),
        "max_abs": report.max_abs,
        "worst": None if worst is None else {"label": worst[0], "residual": worst[1]},
        "skipped": list(report.skipped),
    }


def _cmd_check_model(args) -> tuple[dict, object, int]:
    from . import common_cause

    data = _read_json(args.file)
    model = common_cause.model_from_dict(data)
    inputs = {"file": str(args.file), "type": data.get("type")}

    full_joint = isinstance(model, common_cause.EprbModel)
    if full_joint:
        result = {
            "cause_cards": list(model.cause_cards),
            "validators": {
                name: _residual_summary(validate(model)) for name, validate in common_cause.validators().items()
            },
            "epsilon_profile": model.profile(),
        }
        # re-reads the three reports kept on the model
        check, key = common_cause.joint_cause_bounds_check, "joint_cause_bounds"
    else:
        stats = common_cause.cell_stats(model)
        result = {
            "n_cells": model.n_cells,
            "screening": {
                "max_abs": stats.max_abs,
                "skipped_cells": list(stats.skipped),
            },
        }
        check, key = common_cause.check_cause_mass_bounds, "cause_mass"
    try:
        report = check(model)
    except common_cause.PreconditionViolated as exc:
        result["status"] = "precondition_failed"
        result["reason"] = str(exc)
        return inputs, result, EXIT_VALIDATION
    result[key] = report
    violated = not report.ok
    if full_joint:
        weak = model.weak_report()
        result["weak_report"] = weak
        violated = violated or weak.violated
    result["status"] = "violation" if violated else "ok"
    return inputs, result, EXIT_VIOLATION if violated else EXIT_OK


def _cmd_oracle(args) -> tuple[dict, object, int]:
    if args.atoms is not None:
        probs = _parse_numbers(args.atoms, 16, "--atoms")
    else:
        probs = _read_json(args.file)
    res = ch_atom_oracle(probs)
    return {"atoms": list(map(float, probs))}, res, EXIT_OK if res.in_bounds else EXIT_VIOLATION


def _cmd_optimize_angles(args) -> tuple[dict, object, int]:
    from . import search

    theta, value = search.optimize_angles(mode=args.mode, grid_size=args.grid)
    inputs = {"mode": args.mode, "grid": args.grid}
    result = {"theta": list(theta), "ch_value": value, "tsirelson_ok": tsirelson_check(value)}
    return inputs, result, EXIT_OK


def _cmd_search(args) -> tuple[dict, object, int]:
    from . import search

    band = _parse_numbers(args.eps_band, 2, "--eps-band")
    cards = _parse_numbers(args.cards, 4, "--cards", kind=int)
    cfg = search.SearchConfig(
        seed=args.seed,
        restarts=args.restarts,
        cause_cards=tuple(cards),
        eps_band=(band[0], band[1]),
    )
    res = search.search_counterexample(cfg)
    inputs = {"seed": cfg.seed, "restarts": cfg.restarts, "cause_cards": cfg.cause_cards, "eps_band": cfg.eps_band}
    result = {
        "feasible": res.feasible,
        "restart_index": res.restart_index,
        "objective": res.objective,
        "penalty": res.penalty,
        "epsilon": res.epsilon,
        "ch_value": res.ch_value,
        "weak_report": res.weak_report,
        "model": res.model.to_dict(),
    }
    return inputs, result, EXIT_VIOLATION if res.feasible else EXIT_OK


def _cmd_simulate(args) -> tuple[dict, object, int]:
    from . import common_cause, simulate

    if args.model and (args.angles is not None or args.degrees):
        raise _UsageError("--angles and --degrees apply to the singlet, not to --model")
    angles = "0,0,0,0" if args.angles is None else args.angles
    theta = _maybe_radians(_parse_numbers(angles, 4, "--angles"), args.degrees)
    sp = None
    if args.setting_probs:
        vals = _parse_numbers(args.setting_probs, 4, "--setting-probs")
        sp = [vals[:2], vals[2:]]
    source = "singlet"
    if args.model:
        source = common_cause.model_from_dict(_read_json(args.model))
        if not isinstance(source, common_cause.EprbModel):
            raise WeakChError(f"{args.model} does not hold a full joint model")
    cfg = simulate.SimConfig(
        seed=args.seed,
        n=args.n,
        theta=tuple(theta),
        setting_probs=sp,
        source=source,
    )
    table = simulate.sample_runs(cfg)
    est = simulate.estimate(table)
    report = simulate.test_inequality(est, args.epsilon, args.k_sigma)
    inputs = {
        "seed": args.seed,
        "n": args.n,
        "angles": None if args.model else list(theta),  # a model is sampled at no angles
        "model": args.model,
        "epsilon": args.epsilon,
        "k_sigma": args.k_sigma,
        "setting_probs": cfg.setting_probs,
    }
    result = {
        "counts": table.counts,
        "pair_counts": est.pair_counts,
        "test": report,
        "undefined": list(est.undefined),
    }
    violated = report.violated_lower or report.violated_upper
    return inputs, result, EXIT_VIOLATION if violated else EXIT_OK


# A handler takes the parsed args and returns (inputs, result, exit code);
# main alone writes stdout, so each call prints exactly one envelope.
_HANDLERS = {
    "predict": _cmd_predict,
    "bounds": _cmd_bounds,
    "thresholds": _cmd_thresholds,
    "check": _cmd_check,
    "check-model": _cmd_check_model,
    "oracle": _cmd_oracle,
    "optimize-angles": _cmd_optimize_angles,
    "search": _cmd_search,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        inputs, result, code = _HANDLERS[args.command](args)
        envelope = _envelope(args.command, inputs, result)
    except _UsageError as exc:
        if args is not None:  # raised by a handler; the parser prints its own
            print(f"weakch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WeakChError, ValueError) as exc:
        # stdout stays machine-readable on validation failures too
        print(f"weakch: {exc}", file=sys.stderr)
        envelope = {
            "command": getattr(args, "command", None),
            "error": str(exc),
            "version": __version__,
        }
        code = EXIT_VALIDATION
    _emit(envelope, getattr(args, "format", "json"))
    return code


if __name__ == "__main__":
    sys.exit(main())
