"""Command-line entry point: ``toolkit <subcommand> --config <path>``."""

import json
import sys

import click

from .catalog import list_catalog
from .config import load_config, load_config_file, materialize_level
from .errors import ToolkitError
from .grid import gradient_magnitude
from .harness import run_config
from .report import Report, ReportRow, emit_report, params_string, report_to_csv, report_to_json
from .riesz import riesz_variation
from .sobolev import weighted_lp_norm
from .varexp import lh_constants, luxemburg_norm, modular, rbv_var_seminorm
from .weights import compute_diagnostics, doubling_ball_family, generate_cubes


def _common(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False))(fn)
    fn = click.option("--out", "out_path", default=None, type=click.Path())(fn)
    fn = click.option("--format", "fmt", default=None,
                      type=click.Choice(["csv", "json"]))(fn)
    fn = click.option("--seed", default=None, type=int)(fn)
    fn = click.option("--threads", default=None, type=int,
                      help="Accepted and ignored; computation is single-threaded.")(fn)
    return fn


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


def _deliver(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Numerical toolkit for weighted Riesz variation and Sobolev norms."""


@main.command()
@_common
def weights(config_path, out_path, fmt, seed, threads):
    """Weight-class constants over the configured cube family."""
    config = _load(config_path, seed, fmt, out_path)
    grid, _, w, _ = materialize_level(config, 0)
    family = generate_cubes(grid, config.cubes.min_side, config.cubes.levels,
                            config.cubes.shifts)
    radii = config.radii or (4 * grid.spacing,)
    balls = doubling_ball_family(grid, radii, stride=max(1, grid.n_nodes // 64))
    diag = compute_diagnostics(
        w, family,
        p_values=config.p_values, s_values=config.s_values,
        ball_family=balls,
        threshold=config.thresholds.rw_threshold, tol=config.thresholds.rw_tol,
    )
    records = []
    for p, v in sorted(diag.ap_constant.items()):
        records.append(("ap", p, family.provenance.value, config.cubes.levels, v))
    records.append(("a1", "", family.provenance.value, config.cubes.levels,
                    diag.a1_constant))
    for s, v in sorted(diag.rh_constant.items()):
        records.append(("rh", s, family.provenance.value, config.cubes.levels, v))
    records.append(("rw", "", family.provenance.value, config.cubes.levels,
                    diag.rw_estimate.value))
    records.append(("doubling", "", "balls", config.cubes.levels,
                    diag.doubling_constant))
    if config.fmt == "json":
        payload = [
            {"quantity": q, "p_or_s": ps, "family": fam, "levels": lv, "value": v}
            for q, ps, fam, lv, v in records
        ]
        _deliver(json.dumps(payload, indent=2) + "\n", config.out)
    else:
        lines = ["quantity,p_or_s,family,levels,value"]
        lines += [f"{q},{ps},{fam},{lv},{v!r}" for q, ps, fam, lv, v in records]
        _deliver("\n".join(lines) + "\n", config.out)


@main.command("riesz-var")
@_common
def riesz_var(config_path, out_path, fmt, seed, threads):
    """Weighted Riesz p-variation by packing optimization."""
    config = _load(config_path, seed, fmt, out_path)
    grid, f, w, _ = materialize_level(config, 0)
    results = []
    for p in config.p_values:
        sol = riesz_variation(f, w, p, config.radii, method=config.method)
        results.append({
            "p": p,
            "method": sol.method,
            "h": grid.spacing,
            "radii": list(config.radii),
            "total": sol.total,
            "variation": sol.variation,
            "n_balls": len(sol.collection),
            "balls": [
                {
                    "center": [float(c) for c in s.ball.center],
                    "radius": s.ball.radius,
                    "osc": s.oscillation,
                    "mass": s.weight_mass,
                    "score": s.score,
                }
                for s in sol.scores
            ],
        })
    payload = results[0] if len(results) == 1 else results
    _deliver(json.dumps(payload, indent=2) + "\n", config.out)


@main.command()
@_common
def sobolev(config_path, out_path, fmt, seed, threads):
    """Weighted L^p and Sobolev norms of the configured function."""
    config = _load(config_path, seed, fmt, out_path)
    grid, f, w, _ = materialize_level(config, 0)
    results = []
    for p in config.p_values:
        lp = weighted_lp_norm(f, w, p)
        grad_lp = weighted_lp_norm(gradient_magnitude(f), w, p)
        results.append({
            "lp": lp, "grad_lp": grad_lp, "total": lp + grad_lp,
            "p": p, "h": grid.spacing,
        })
    payload = results[0] if len(results) == 1 else results
    _deliver(json.dumps(payload, indent=2) + "\n", config.out)


@main.command()
@_common
def varexp(config_path, out_path, fmt, seed, threads):
    """Variable-exponent norms and diagnostics."""
    config = _load(config_path, seed, fmt, out_path)
    grid, f, _, pfun = materialize_level(config, 0)
    if pfun is None:
        raise click.ClickException("config has no exponent section")
    lh = lh_constants(pfun, seed=config.seed)
    rows = [
        ReportRow("varexp", "p_minus", "", pfun.p_minus, float("inf"), "info"),
        ReportRow("varexp", "p_plus", "", pfun.p_plus, float("inf"), "info"),
        ReportRow("varexp", "lh_c0", params_string(p_inf=lh.p_infinity_used),
                  lh.c0_estimate, float("inf"), "info"),
        ReportRow("varexp", "lh_c_infinity", params_string(p_inf=lh.p_infinity_used),
                  lh.c_infinity_estimate, float("inf"), "info"),
        ReportRow("varexp", "modular", "", modular(f, pfun), float("inf"), "info"),
        ReportRow("varexp", "luxemburg_norm", "", luxemburg_norm(f, pfun),
                  float("inf"), "info"),
    ]
    if config.radii:
        rows.append(
            ReportRow("varexp", "rbv_var_seminorm", "",
                      rbv_var_seminorm(f, pfun, config.radii, method=config.method),
                      float("inf"), "info")
        )
    report = Report(rows=tuple(rows), config_hash=config.config_hash(),
                    seed=config.seed)
    text = report_to_json(report) if config.fmt == "json" else report_to_csv(report)
    _deliver(text, config.out)


@main.command()
@_common
def verify(config_path, out_path, fmt, seed, threads):
    """Run the configured theorem suites; exit 2 on any error row, else 1 on any fail row."""
    config = _load(config_path, seed, fmt, out_path)
    try:
        report = run_config(config)
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


@main.command()
def catalog():
    """List the function, weight, and exponent families."""
    for kind, names in list_catalog().items():
        click.echo(f"{kind}:")
        for name in names:
            click.echo(f"  {name}")


if __name__ == "__main__":
    main()
