"""Command-line entry point: ``toolkit <subcommand> --config <path>``."""

import sys
from functools import partial

import click

from .catalog import list_catalog
from .config import load_config, load_config_file
from .errors import ToolkitError
from .harness import TABLES, run_config, run_table
from .report import emit_report, report_to_csv, report_to_json


def _load(config_path, seed, fmt, out_path):
    config = load_config_file(config_path)
    raw = dict(config.raw)
    if seed is not None:
        raw["seed"] = seed
    if fmt is not None:
        raw["format"] = fmt
    if out_path is not None:
        raw["out"] = out_path
    return load_config(raw)


@click.group()
def main():
    """Numerical toolkit for weighted Riesz variation and Sobolev norms.

    Every subcommand but catalog prints one report and exits 2 on any
    error row, else 1 on any fail row, else 0.
    """


def _report_command(name, run, help):
    """Register subcommand ``name``, which writes the report ``run(config)`` returns."""

    @main.command(name, help=help)
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--out", "out_path", default=None, type=click.Path())
    @click.option("--format", "fmt", default=None, type=click.Choice(["csv", "json"]))
    @click.option("--seed", default=None, type=int)
    def command(config_path, out_path, fmt, seed):
        try:
            config = _load(config_path, seed, fmt, out_path)
            report = run(config)
        except ToolkitError as exc:
            raise click.ClickException(str(exc))
        if config.out:
            emit_report(report, config.out, config.fmt)
            click.echo(f"wrote {config.out} ({len(report.rows)} rows)")
        else:
            text = report_to_json(report) if config.fmt == "json" else report_to_csv(report)
            click.echo(text, nl=False)
        if any(row.status == "error" for row in report.rows):
            sys.exit(2)
        if report.has_failures():
            sys.exit(1)


for _name, _table in TABLES.items():
    _report_command(_name, partial(run_table, name=_name), _table.__doc__)
_report_command("verify", run_config, "Run the configured theorem suites.")


@main.command()
def catalog():
    """List the function, weight, and exponent families."""
    for kind, names in list_catalog().items():
        click.echo(f"{kind}:")
        for name in names:
            click.echo(f"  {name}")


if __name__ == "__main__":
    main()
