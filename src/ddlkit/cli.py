"""Command-line front end.

Exit codes: 0 success, 1 usage/parse/IO errors and internal errors, 2
model-condition violations or faithfulness mismatches, 3 countermodel
found.  Randomized subcommands are reproducible from --seed.  Each
warning a command raises is one `warning:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .checker import eval_formula, truth_set
from .export import axioms_problem, to_thf_problem
from .faithful import check_faithfulness
from .hol import axioms, beta_eta_normalize, embed, pretty_term
from .model import (InvalidModelError, ModelError, ValidationReport,
                    load_model, model_json)
from .search import CounterModel, verdict
from .syntax import ParseError, parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlkit",
        description="Reasoning tools for dyadic deontic logic over finite "
                    "models, with an export to higher-order provers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula in a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--world", type=int, default=None)
    p.add_argument("--allow-invalid", action="store_true",
                   help="evaluate even if the model violates the conditions")

    p = sub.add_parser("validate-model", help="check the model conditions")
    p.add_argument("file", help="model JSON file")

    p = sub.add_parser("valid", help="search for a countermodel")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=3,
                   help="exhaustive up to 3 worlds, sampled at 4")
    p.add_argument("--samples", type=int, default=1000,
                   help="frames and tables drawn at 4 worlds")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("embed", help="show the embedded term or write THF")
    p.add_argument("--formula", required=True)
    p.add_argument("--thf", default=None, metavar="PATH",
                   help="write a THF problem file instead ('-' for stdout)")

    p = sub.add_parser("faithfulness",
                       help="fuzz agreement of the two semantics")
    p.add_argument("--max-worlds", type=int, default=2)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("axioms", help="print the eight axioms or write THF")
    p.add_argument("--thf", default=None, metavar="PATH",
                   help="write the axioms as a THF file ('-' for stdout)")
    return parser


def _write_or_print(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_check(args) -> int:
    m = load_model(Path(args.model).read_bytes(),
                   allow_invalid=args.allow_invalid)
    f = parse(args.formula)
    if args.world is not None:
        print("true" if eval_formula(m, args.world, f) else "false")
        return 0
    ts = truth_set(m, f)
    print(json.dumps({str(s): bool(ts >> s & 1) for s in range(m.n)},
                     separators=(",", ":")))
    return 0


def _cmd_validate(args) -> int:
    try:  # `load_model` validates, and its error carries the report
        load_model(Path(args.file).read_bytes())
        report = ValidationReport()
    except InvalidModelError as e:
        report = e.report
    print(report)
    return 0 if report.ok else 2


def _cmd_valid(args) -> int:
    f = parse(args.formula)
    v = verdict(f, args.max_worlds, args.samples, args.seed)
    if isinstance(v, CounterModel):
        print(f'{{"world":{v.world},"model":{model_json(v.model)}}}')
        return 3
    print(f"no counterexample up to {v.n_max} worlds")
    return 0


def _cmd_embed(args) -> int:
    f = parse(args.formula)
    if args.thf is not None:
        _write_or_print(to_thf_problem(f).text(), args.thf)
        return 0
    print(pretty_term(beta_eta_normalize(embed(f))))
    return 0


def _cmd_faithfulness(args) -> int:
    report = check_faithfulness(args.max_worlds, args.samples, args.seed)
    print(report.render())
    return 0 if report.ok else 2


def _cmd_axioms(args) -> int:
    if args.thf is not None:
        _write_or_print(axioms_problem().text(), args.thf)
        return 0
    for name, term in axioms():
        print(f"{name}: {pretty_term(term)}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "validate-model": _cmd_validate,
    "valid": _cmd_valid,
    "embed": _cmd_embed,
    "faithfulness": _cmd_faithfulness,
    "axioms": _cmd_axioms,
}


# built once: building takes far longer than parsing a command line
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except InvalidModelError as e:
            print(e, file=sys.stderr)
            return 2
        except (ParseError, ModelError, OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except RecursionError:
            print("error: formula nested too deeply", file=sys.stderr)
            return 1
        except Exception as e:  # a defect: one line, not a traceback
            detail = " ".join(f"{type(e).__name__}: {e}".split())
            print(f"error: internal: {detail}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
