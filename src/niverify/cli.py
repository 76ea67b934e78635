"""Command line interface: ``ni check`` and ``ni corpus``.

Exit codes for ``check``: 0 secure, 1 insecure, 2 inconclusive, 3 error
(a usage error included).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from pathlib import Path

from niverify import driver, lang
from niverify.driver import AnalysisConfig, Insecure, Inconclusive, Secure


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error; argparse's own 2 means Inconclusive here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_analysis_flags(parser: argparse.ArgumentParser, defaults: AnalysisConfig) -> None:
    parser.add_argument(
        "--bound", type=int, default=defaults.bound, help="loop iteration budget (default %(default)s)"
    )
    parser.add_argument(
        "--path-cap",
        type=int,
        default=defaults.path_cap,
        help="states to expand before ending Inconclusive (default %(default)s)",
    )
    parser.add_argument(
        "--solver",
        default=None,
        help="external SMT-LIB2 solver command, e.g. 'z3 -in' or "
        "'python3 -m niverify.smtshell'",
    )
    parser.add_argument(
        "--solver-timeout-ms",
        type=int,
        default=defaults.solver_timeout_ms,
        help="time limit of each query to an external solver (default %(default)s)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _config_from(args: argparse.Namespace) -> AnalysisConfig:
    """The analysis settings; for ``check`` also its engines."""
    base = AnalysisConfig(
        bound=args.bound,
        path_cap=args.path_cap,
        solver_command=shlex.split(args.solver) if args.solver else None,
        solver_timeout_ms=args.solver_timeout_ms,
    )
    if args.command != "check":
        return base
    return driver.config_for(args.engine, args.single_engine, base)


def _check_text(verdict, args, config: AnalysisConfig) -> str:
    if args.format == "json":
        entry = {"program": args.file, "config": config.label()}
        entry.update(driver.verdict_to_json(verdict))
        return json.dumps(entry, indent=2, sort_keys=True)
    match verdict:
        case Secure():
            return "Secure"
        case Insecure(ce):
            return (
                f"Insecure: low variable {ce.witness_var!r} differs\n"
                f"  initial store 0: {dict(ce.store0)}\n"
                f"  initial store 1: {dict(ce.store1)}\n"
                f"  final store 0:   {dict(ce.out0)}\n"
                f"  final store 1:   {dict(ce.out1)}"
            )
        case Inconclusive(alarms):
            lines = [f"Inconclusive: {len(alarms)} alarm path(s)"]
            for alarm in alarms:
                flag = "precise" if alarm.precise else "over-approximated"
                lines.append(f"  [{flag}] {alarm.store}")
                if alarm.path:
                    lines.append(f"           path: {alarm.path}")
            return "\n".join(lines)


# Exit code of ``ni check`` per verdict.
EXIT_CODES = {Secure: 0, Insecure: 1, Inconclusive: 2}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="ni", description="noninterference verifier")
    defaults = AnalysisConfig()  # every flag's default is the config's own
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze one program")
    check.add_argument("file")
    check.add_argument("--engine", choices=driver.ENGINES, default=defaults.engine)
    check.add_argument("--single-engine", choices=driver.SINGLE_ENGINES, default=defaults.single_engine)
    _add_analysis_flags(check, defaults)

    corpus = sub.add_parser("corpus", help="run the engine matrix over a directory")
    corpus.add_argument("dir")
    _add_analysis_flags(corpus, defaults)

    args = parser.parse_args(argv)
    for name, least in driver.MINIMUMS.items():
        if getattr(args, name) < least:
            flag = "--" + name.replace("_", "-")
            parser.error(f"argument {flag}: must be at least {least}, got {getattr(args, name)}")

    try:
        if args.command == "check":
            program = lang.parse_program(Path(args.file).read_text())
            config = _config_from(args)
            verdict = driver.verify_ni(program, config)
            code, text = EXIT_CODES[type(verdict)], _check_text(verdict, args, config)
        else:
            report = driver.run_corpus(args.dir, _config_from(args))
            code = 0
            if args.format == "json":
                text = json.dumps(report, indent=2, sort_keys=True)
            else:
                text = driver.report_text(report)
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader went away after the verdict was reached, which
            # does not change it.  Point stdout at devnull so that the
            # flush at interpreter exit cannot fail as well.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (lang.LangError, driver.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Exit 1 means Insecure, so no internal failure may escape as a traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
