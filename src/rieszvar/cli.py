"""Numerical toolkit for weighted Riesz variation and Sobolev norms.

Every subcommand but catalog prints one report and exits 2 on any
error row, else 1 on any fail row, else 0. A config that cannot be loaded
or a report that cannot be written exits 1 with one ``Error:`` line.
"""

import argparse
import os
import sys
from functools import partial

from .catalog import list_catalog
from .config import load_config, load_config_file
from .errors import ToolkitError
from .harness import TABLES, run_config, run_table
from .report import emit_report, report_to_csv, report_to_json


def _existing_file(path):
    if not (os.path.isfile(path) and os.access(path, os.R_OK)):
        raise argparse.ArgumentTypeError(f"{path!r} is not a readable file")
    return path


def _report(run, args):
    """Write the report ``run(config)`` returns; the exit code its rows give."""
    overrides = {key: getattr(args, key) for key in ("seed", "format", "out")}
    raw = load_config_file(args.config).raw | {k: v for k, v in overrides.items() if v is not None}
    config = load_config(raw)
    report = run(config)
    if config.out:
        try:
            emit_report(report, config.out, config.fmt)
        except OSError as exc:
            raise ToolkitError(f"cannot write the report: {exc}") from exc
        print(f"wrote {config.out} ({len(report.rows)} rows)")
    else:
        sys.stdout.write(report_to_json(report) if config.fmt == "json" else report_to_csv(report))
    if any(row.status == "error" for row in report.rows):
        return 2
    return 1 if report.has_failures() else 0


def _catalog(args):
    """List the function, weight, and exponent families."""
    for kind, names in list_catalog().items():
        print(f"{kind}:")
        for name in names:
            print(f"  {name}")
    return 0


def main(argv=None):
    """``toolkit <subcommand> --config <path>``: the exit code; usage errors exit 2."""
    parser = argparse.ArgumentParser(prog="toolkit", description=__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    commands.add_parser("catalog", help=_catalog.__doc__,
                        description=_catalog.__doc__).set_defaults(run=_catalog)
    reports = [(name, partial(run_table, name=name), table.__doc__)
               for name, table in TABLES.items()]
    reports.append(("verify", run_config, "Run the configured theorem suites."))
    for name, run, text in reports:
        command = commands.add_parser(name, help=text, description=text)
        command.add_argument("--config", required=True, type=_existing_file)
        command.add_argument("--out")
        command.add_argument("--format", choices=["csv", "json"])
        command.add_argument("--seed", type=int)
        command.set_defaults(run=partial(_report, run))
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ToolkitError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
