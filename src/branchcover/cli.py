"""Command-line surface.

Exit codes: 0 success, 1 domain errors (valid input, impossible request),
2 input validation failures.  Results go to stdout (JSON by default);
diagnostics go to stderr as one JSON object per error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Callable

import click

from . import charts, covering, hurwitz, links, quandles
from .permutations import cycle_string

EXIT_DOMAIN = 1
EXIT_INPUT = 2


class _JsonExit(click.ClickException):
    def show(self, file=None):
        json.dump({"error": str(self.message)}, sys.stderr)
        sys.stderr.write("\n")


class DomainExit(_JsonExit):
    exit_code = EXIT_DOMAIN


class InputExit(_JsonExit):
    exit_code = EXIT_INPUT


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputExit(f"{path}: {exc}")


def _load_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputExit(f"{path}: {exc}")


def _load(path: str, parse: Callable, read: Callable[[str], Any] = _load_json):
    """``parse(read(path))``; the parsers' errors are ValueErrors, reported as
    input errors that name the file."""
    try:
        return parse(read(path))
    except ValueError as exc:
        raise InputExit(f"{path}: {exc}")


def _print(data, fmt: str) -> None:
    if fmt == "json":
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        if isinstance(data, (list, tuple)):
            for item in data:
                sys.stdout.write(f"{item}\n")
        elif isinstance(data, dict):
            for key, value in data.items():
                sys.stdout.write(f"{key}: {value}\n")
        else:
            sys.stdout.write(f"{data}\n")


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    help="Output format.",
)


@click.group()
def main():
    """Calculus of simple branched coverings: Hurwitz systems, charts,
    link colorings and quandle lifts."""


@main.command()
@click.argument("system_file")
@click.option("--trace-out", type=click.Path(), help="Write the move trace as JSON.")
@format_option
def normalize(system_file, trace_out, fmt):
    """Normal form of a simple transitive closing permutation system."""
    s = _load(system_file, hurwitz.system_from_json)
    try:
        nf, trace = hurwitz.hc_normal_form(s)
    except hurwitz.HurwitzError as exc:
        raise DomainExit(str(exc))
    payload = hurwitz.system_to_json(nf)
    payload["moves"] = len(trace)
    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump([_trace_step_json(step) for step in trace], fh)
    _print(payload if fmt == "json" else str(nf), fmt)


def _trace_step_json(step):
    if step[0] == "H":
        return {"move": "hurwitz", "k": step[1], "direction": step[2]}
    return {"move": "conjugate", "by": cycle_string(step[1])}


@main.command()
@click.argument("system_a")
@click.argument("system_b")
@click.option("--mode", type=click.Choice(["hc", "covering"]), default="hc")
@click.option("--budget", type=int, default=hurwitz.DEFAULT_EQUIV_BUDGET, show_default=True)
@format_option
def equiv(system_a, system_b, mode, budget, fmt):
    """Decide HC-equivalence, or covering equivalence with --mode covering."""
    s = _load(system_a, hurwitz.system_from_json)
    t = _load(system_b, hurwitz.system_from_json)
    try:
        if mode == "hc":
            verdict = hurwitz.hc_equivalent(s, t, budget=budget).value
        else:
            verdict = "equivalent" if covering.covering_equivalent(s, t) else "distinct"
    except hurwitz.HurwitzError as exc:
        raise DomainExit(str(exc))
    _print({"verdict": verdict}, fmt)


@main.command()
@click.argument("system_file")
@format_option
def cover(system_file, fmt):
    """Reconstruct the covering surface of a closing permutation system."""
    s = _load(system_file, hurwitz.system_from_json)
    try:
        surface = covering.build_covering(s)
    except hurwitz.HurwitzError as exc:
        raise DomainExit(str(exc))
    _print(surface.to_json(), fmt)


@main.command("chart-validate")
@click.argument("chart_file")
@format_option
def chart_validate(chart_file, fmt):
    """Validate a chart's sweep encoding."""
    c = _load(chart_file, charts.chart_from_json)
    report = charts.validate_chart(c)
    payload = dataclasses.asdict(report)
    _print(payload, fmt)
    if not report.valid:
        sys.exit(EXIT_DOMAIN)


@main.command("chart-monodromy")
@click.argument("chart_file")
@format_option
def chart_monodromy(chart_file, fmt):
    """Hurwitz system induced by a chart."""
    c = _load(chart_file, charts.chart_from_json)
    try:
        system = charts.chart_hurwitz_system(c)
    except charts.ChartError as exc:
        raise DomainExit(str(exc))
    _print(hurwitz.system_to_json(system), fmt)


@main.command("chart-orient")
@click.argument("chart_file")
@click.option("--witness-out", type=click.Path(), help="Write the oriented chart.")
@format_option
def chart_orient(chart_file, witness_out, fmt):
    """Decide orientability; emits a braid-chart witness when one exists."""
    c = _load(chart_file, charts.chart_from_json)
    try:
        result = charts.chart_orientable(c)
    except charts.ChartError as exc:
        raise DomainExit(str(exc))
    payload = {"orientable": result.orientable}
    if result.orientable:
        payload["witness"] = charts.chart_to_json(result.witness)
        if witness_out:
            with open(witness_out, "w") as fh:
                json.dump(payload["witness"], fh)
    _print(payload if fmt == "json" else payload["orientable"], fmt)


@main.command("chart-move")
@click.argument("chart_file")
@click.option("--move", "move_name", required=True,
              type=click.Choice(sorted(charts.MOVES)))
@click.option("--site", default="", help="Comma-separated key=value arguments.")
@click.option("--out", type=click.Path(), help="Write the moved chart.")
@format_option
def chart_move(chart_file, move_name, site, out, fmt):
    """Apply a named chart move at a site, e.g. --site at=2,position=0."""
    c = _load(chart_file, charts.chart_from_json)
    kwargs = {}
    if site:
        for pair in site.split(","):
            if "=" not in pair:
                raise InputExit(f"bad site argument {pair!r}")
            key, _, value = pair.partition("=")
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                raise InputExit(f"site values must be integers, got {value!r}")
    try:
        moved = charts.apply_chart_move(c, move_name, **kwargs)
    except charts.MoveError as exc:
        raise DomainExit(str(exc))
    payload = charts.chart_to_json(moved)
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh)
    _print(payload, fmt)


@main.command()
@click.argument("pd_file")
@click.option("--degree", "-d", type=int, required=True)
@click.option("--show-colors", is_flag=True, help="Name degree-3 colors.")
@format_option
def color(pd_file, degree, show_colors, fmt):
    """Enumerate simple colorings of a PD diagram."""
    dg = _load(pd_file, links.parse_pd, _load_text)
    try:
        cols = links.enumerate_simple_colorings(dg, degree)
    except links.LinkError as exc:
        raise DomainExit(str(exc))
    payload = []
    for c in cols:
        entry = links.coloring_to_json(c)
        entry["transitive"] = c.is_transitive()
        if show_colors and degree == 3:
            entry["names"] = {
                str(a): links.color_name(v) for a, v in c.assignment.items()
            }
        payload.append(entry)
    _print({"count": len(cols), "colorings": payload}, fmt)


@main.command()
@click.argument("pd_file")
@click.argument("coloring_file")
@click.option("--conjugator-bound", type=int, default=links.DEFAULT_CONJUGATOR_BOUND,
              show_default=True)
@click.option("--budget", type=int, default=links.DEFAULT_LIFT_BUDGET, show_default=True)
@format_option
def lift(pd_file, coloring_file, conjugator_bound, budget, fmt):
    """Search for a simple braid lift of a transposition coloring."""
    dg = _load(pd_file, links.parse_pd, _load_text)
    f = _load(coloring_file, links.coloring_from_json)
    try:
        result = links.find_simple_lift(dg, f, conjugator_bound, budget)
    except links.LinkError as exc:
        raise DomainExit(str(exc))
    payload = {
        "found": result.lift is not None,
        "exhausted": result.exhausted,
        "checks": result.checks,
    }
    if result.lift is not None:
        payload["lift"] = links.coloring_to_json(result.lift)
    _print(payload, fmt)


@main.command("quandle-check")
@click.argument("table_file")
@format_option
def quandle_check(table_file, fmt):
    """Validate the quandle axioms for an operation table."""
    try:
        q = quandles.quandle_from_text(_load_text(table_file))
    except quandles.QuandleError as exc:
        raise InputExit(str(exc))
    report = quandles.quandle_validate(q)
    _print(dataclasses.asdict(report), fmt)
    if not report.valid:
        sys.exit(EXIT_DOMAIN)


@main.command("quandle-lift")
@click.argument("pd_file")
@click.argument("coloring_file")
@click.option("--source-table", type=click.Path(),
              help="Lift through a finite surjection instead of A_d.")
@click.option("--target-table", type=click.Path())
@click.option("--surjection", type=click.Path())
@click.option("--conjugator-bound", type=int, default=links.DEFAULT_CONJUGATOR_BOUND,
              show_default=True)
@click.option("--budget", type=int, default=links.DEFAULT_LIFT_BUDGET, show_default=True)
@format_option
def quandle_lift(pd_file, coloring_file, source_table, target_table, surjection,
                 conjugator_bound, budget, fmt):
    """Lift a coloring to the braid conjugation quandle (default) or
    through a finite surjective quandle homomorphism."""
    dg = _load(pd_file, links.parse_pd, _load_text)
    if source_table or target_table or surjection:
        if not (source_table and target_table and surjection):
            raise InputExit("finite lifting needs --source-table, --target-table and --surjection")
        try:
            source = quandles.quandle_from_text(_load_text(source_table))
            target = quandles.quandle_from_text(_load_text(target_table))
            p = quandles.surjection_from_text(_load_text(surjection))
        except quandles.QuandleError as exc:
            raise InputExit(str(exc))
        data = _load_json(coloring_file)
        try:
            raw = data["assignment"]
            if not isinstance(raw, dict) or any(type(v) is not int for v in raw.values()):
                raise TypeError(f"assignment must map arcs to element numbers, got {raw!r}")
            coloring = {int(a): v for a, v in raw.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputExit(f"{coloring_file}: {exc}")
        try:
            lifted = quandles.lift_through_surjection(p, source, target, dg, coloring)
        except quandles.QuandleError as exc:
            raise DomainExit(str(exc))
        payload = {"found": lifted is not None}
        if lifted is not None:
            payload["lift"] = {str(a): v for a, v in lifted.items()}
        _print(payload, fmt)
        return
    f = _load(coloring_file, links.coloring_from_json)
    try:
        result = quandles.lift_to_Ad(dg, f, conjugator_bound, budget)
    except links.LinkError as exc:
        raise DomainExit(str(exc))
    payload = {
        "found": result.lift is not None,
        "exhausted": result.exhausted,
    }
    if result.lift is not None:
        payload["lift"] = links.coloring_to_json(result.lift)
    _print(payload, fmt)


@main.command()
@click.argument("chart_file")
@click.option("--format", "fmt", type=click.Choice(["svg", "dot"]), default="svg",
              show_default=True)
@click.option("--out", "-o", type=click.Path(), help="Output file (stdout otherwise).")
def render(chart_file, fmt, out):
    """Render a chart's sweep diagram as SVG or DOT."""
    c = _load(chart_file, charts.chart_from_json)
    report = charts.validate_chart(c)
    if not report.valid:
        raise DomainExit(report.error or "invalid chart")
    text = charts.chart_to_svg(c) if fmt == "svg" else charts.chart_to_dot(c)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")


if __name__ == "__main__":
    main()
