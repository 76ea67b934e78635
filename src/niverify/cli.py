"""Command line interface: ``ni check`` and ``ni corpus``.

Exit codes for ``check``: 0 secure, 1 insecure, 2 inconclusive, 3 error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from niverify import driver, lang
from niverify.driver import AnalysisConfig, Insecure, Inconclusive, Secure


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=driver.ENGINES, default="redsoundrse")
    parser.add_argument("--single-engine", choices=driver.SINGLE_ENGINES, default="redsoundse")
    parser.add_argument("--bound", type=int, default=3, help="loop iteration budget (default 3)")
    parser.add_argument("--path-cap", type=int, default=4096)
    parser.add_argument(
        "--solver",
        default=None,
        help="external SMT-LIB2 solver command, e.g. 'z3 -in' or "
        "'python3 -m niverify.smtshell'",
    )
    parser.add_argument("--solver-timeout-ms", type=int, default=5000)
    parser.add_argument(
        "--solver-backend",
        choices=("internal", "brute"),
        default="internal",
        help="built-in backend when no --solver is given",
    )
    parser.add_argument("--all-paths", action="store_true", help="collect every refutation")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _config_from(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        engine=args.engine,
        single_engine=args.single_engine,
        domain="intervals" if args.single_engine == "redsoundse" else "none",
        bound=args.bound,
        path_cap=args.path_cap,
        solver_command=shlex.split(args.solver) if args.solver else None,
        solver_timeout_ms=args.solver_timeout_ms,
        solver_backend=args.solver_backend,
        all_paths=args.all_paths,
    )


def _print_check(verdict, args) -> None:
    if args.format == "json":
        entry = {"program": args.file, "config": vars(args).get("engine")}
        entry.update(driver.verdict_to_json(verdict))
        print(json.dumps(entry, indent=2, sort_keys=True))
        return
    match verdict:
        case Secure():
            print("Secure")
        case Insecure(ce):
            print(f"Insecure: low variable {ce.witness_var!r} differs")
            print(f"  initial store 0: {dict(ce.store0)}")
            print(f"  initial store 1: {dict(ce.store1)}")
            print(f"  final store 0:   {dict(ce.out0)}")
            print(f"  final store 1:   {dict(ce.out1)}")
        case Inconclusive(alarms):
            print(f"Inconclusive: {len(alarms)} alarm path(s)")
            for alarm in alarms:
                flag = "precise" if alarm.precise else "over-approximated"
                print(f"  [{flag}] {alarm.store}")
                if alarm.path:
                    print(f"           path: {alarm.path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ni", description="noninterference verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze one program")
    check.add_argument("file")
    _add_engine_flags(check)

    corpus = sub.add_parser("corpus", help="run the engine matrix over a directory")
    corpus.add_argument("dir")
    _add_engine_flags(corpus)

    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            program = lang.parse_program(open(args.file).read())
            verdict = driver.verify_ni(program, _config_from(args))
            _print_check(verdict, args)
            match verdict:
                case Secure():
                    return 0
                case Insecure(_):
                    return 1
                case Inconclusive(_):
                    return 2
        if args.command == "corpus":
            report = driver.run_corpus(args.dir, _config_from(args))
            if args.format == "json":
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(driver.report_text(report))
            return 0
    except (lang.LangError, driver.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Exit 1 means Insecure, so no internal failure may escape as a traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 3


if __name__ == "__main__":
    sys.exit(main())
