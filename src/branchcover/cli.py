"""Command-line surface.

Every subcommand except ``render`` (SVG or DOT) prints one JSON object on
stdout.  Exit codes: 0 success; 1 when the library refuses valid input (any
library error, for example an intransitive system or a degree above the
cap) or a chart or quandle table fails validation; 2 when an input file
cannot be read or parsed, an output file cannot be written, or a ``--site``
value is malformed or its keys do not fit the move.  Those errors go to
stderr as one JSON object; click's own usage errors also exit 2.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Callable

import click

from . import charts, covering, hurwitz, links, quandles

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


def _load(path: str, parse: Callable, text: bool = False):
    """``parse`` of a JSON file, or of the file's text with ``text=True``.  The
    parsers' errors are ValueErrors; like an unreadable file, they are input
    errors that name the file."""
    try:
        with open(path) as fh:
            return parse(fh.read() if text else json.load(fh))
    except (OSError, ValueError) as exc:
        raise InputExit(f"{path}: {exc}")


def _write(path: str, text: str) -> None:
    """Write an output file; failing to is an input error that names the file."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputExit(f"{path}: {exc}")


def _print(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


class _Main(click.Group):
    def invoke(self, ctx):
        # Library ValueErrors (HurwitzError, ChartError, LinkError, QuandleError,
        # degree checks) refuse valid input; a SiteError is a bad --site.
        try:
            return super().invoke(ctx)
        except charts.SiteError as exc:
            raise InputExit(str(exc)) from exc
        except ValueError as exc:
            raise DomainExit(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Calculus of simple branched coverings: Hurwitz systems, charts,
    link colorings and quandle lifts."""


@main.command()
@click.argument("system_file")
@click.option("--trace-out", type=click.Path(), help="Write the move trace as JSON.")
def normalize(system_file, trace_out):
    """Normal form of a simple transitive closing permutation system."""
    s = _load(system_file, hurwitz.system_from_json)
    nf, trace = hurwitz.hc_normal_form(s)
    payload = hurwitz.system_to_json(nf)
    payload["moves"] = len(trace)
    if trace_out:
        _write(trace_out, json.dumps([_trace_step_json(step) for step in trace]))
    _print(payload)


def _trace_step_json(step):
    if step[0] == "H":
        return {"move": "hurwitz", "k": step[1], "direction": step[2]}
    return {"move": "conjugate", "by": str(step[1])}


@main.command()
@click.argument("system_a")
@click.argument("system_b")
@click.option("--mode", type=click.Choice(["hc", "covering"]), default="hc")
@click.option("--budget", type=int, default=hurwitz.DEFAULT_EQUIV_BUDGET, show_default=True)
def equiv(system_a, system_b, mode, budget):
    """Decide HC-equivalence, or covering equivalence with --mode covering."""
    s = _load(system_a, hurwitz.system_from_json)
    t = _load(system_b, hurwitz.system_from_json)
    if mode == "hc":
        verdict = hurwitz.hc_equivalent(s, t, budget=budget).value
    else:
        verdict = "equivalent" if covering.covering_equivalent(s, t) else "distinct"
    _print({"verdict": verdict})


@main.command()
@click.argument("system_file")
def cover(system_file):
    """Reconstruct the covering surface of a closing permutation system."""
    s = _load(system_file, hurwitz.system_from_json)
    _print(covering.build_covering(s).to_json())


@main.command("chart-validate")
@click.argument("chart_file")
def chart_validate(chart_file):
    """Validate a chart's sweep encoding."""
    report = charts.validate_chart(_load(chart_file, charts.chart_from_json))
    _print(dataclasses.asdict(report))
    if not report.valid:
        sys.exit(EXIT_DOMAIN)


@main.command("chart-monodromy")
@click.argument("chart_file")
def chart_monodromy(chart_file):
    """Hurwitz system induced by a chart."""
    c = _load(chart_file, charts.chart_from_json)
    _print(hurwitz.system_to_json(charts.chart_hurwitz_system(c)))


@main.command("chart-orient")
@click.argument("chart_file")
@click.option("--witness-out", type=click.Path(), help="Write the oriented chart.")
def chart_orient(chart_file, witness_out):
    """Decide orientability; emits a braid-chart witness when one exists."""
    result = charts.chart_orientable(_load(chart_file, charts.chart_from_json))
    payload = {"orientable": result.orientable}
    if result.orientable:
        payload["witness"] = charts.chart_to_json(result.witness)
        if witness_out:
            _write(witness_out, json.dumps(payload["witness"]))
    _print(payload)


@main.command("chart-move")
@click.argument("chart_file")
@click.option("--move", "move_name", required=True,
              type=click.Choice(sorted(charts.MOVES)))
@click.option("--site", default="", help="Comma-separated key=value arguments.")
@click.option("--out", type=click.Path(), help="Write the moved chart.")
def chart_move(chart_file, move_name, site, out):
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
    payload = charts.chart_to_json(charts.apply_chart_move(c, move_name, **kwargs))
    if out:
        _write(out, json.dumps(payload))
    _print(payload)


@main.command()
@click.argument("pd_file")
@click.option("--degree", "-d", type=int, required=True)
@click.option("--show-colors", is_flag=True, help="Name degree-3 colors.")
def color(pd_file, degree, show_colors):
    """Enumerate simple colorings of a PD diagram."""
    dg = _load(pd_file, links.parse_pd, text=True)
    cols = links.enumerate_simple_colorings(dg, degree)
    payload = []
    for c in cols:
        entry = links.coloring_to_json(c)
        entry["transitive"] = c.is_transitive()
        if show_colors and degree == 3:
            entry["names"] = {
                str(a): links.color_name(v) for a, v in c.assignment.items()
            }
        payload.append(entry)
    _print({"count": len(cols), "colorings": payload})


@main.command()
@click.argument("pd_file")
@click.argument("coloring_file")
@click.option("--conjugator-bound", type=int, default=links.DEFAULT_CONJUGATOR_BOUND,
              show_default=True)
@click.option("--budget", type=int, default=links.DEFAULT_LIFT_BUDGET, show_default=True)
def lift(pd_file, coloring_file, conjugator_bound, budget):
    """Search for a simple braid lift of a transposition coloring."""
    dg = _load(pd_file, links.parse_pd, text=True)
    f = _load(coloring_file, links.coloring_from_json)
    result = links.find_simple_lift(dg, f, conjugator_bound, budget)
    payload = {
        "found": result.lift is not None,
        "exhausted": result.exhausted,
        "checks": result.checks,
    }
    if result.lift is not None:
        payload["lift"] = links.coloring_to_json(result.lift)
    _print(payload)


@main.command("quandle-check")
@click.argument("table_file")
def quandle_check(table_file):
    """Validate the quandle axioms for an operation table."""
    q = _load(table_file, quandles.quandle_from_text, text=True)
    report = quandles.quandle_validate(q)
    _print(dataclasses.asdict(report))
    if not report.valid:
        sys.exit(EXIT_DOMAIN)


def _element_coloring(data) -> dict:
    """A finite-lift coloring file: {"assignment": {arc: element number}}."""
    raw = data.get("assignment") if isinstance(data, dict) else None
    if not isinstance(raw, dict) or any(type(v) is not int for v in raw.values()):
        raise ValueError(f"assignment must map arcs to element numbers, got {raw!r}")
    return {int(a): v for a, v in raw.items()}


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
@click.pass_context
def quandle_lift(ctx, pd_file, coloring_file, source_table, target_table, surjection,
                 conjugator_bound, budget):
    """Lift a coloring to the braid conjugation quandle (default: runs lift)
    or through a finite surjective quandle homomorphism."""
    if not (source_table or target_table or surjection):
        ctx.invoke(lift, pd_file=pd_file, coloring_file=coloring_file,
                   conjugator_bound=conjugator_bound, budget=budget)
        return
    if not (source_table and target_table and surjection):
        raise InputExit("finite lifting needs --source-table, --target-table and --surjection")
    dg = _load(pd_file, links.parse_pd, text=True)
    source = _load(source_table, quandles.quandle_from_text, text=True)
    target = _load(target_table, quandles.quandle_from_text, text=True)
    p = _load(surjection, quandles.surjection_from_text, text=True)
    coloring = _load(coloring_file, _element_coloring)
    lifted = quandles.lift_through_surjection(p, source, target, dg, coloring)
    payload = {"found": lifted is not None}
    if lifted is not None:
        payload["lift"] = {str(a): v for a, v in lifted.items()}
    _print(payload)


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
        _write(out, text)
    else:
        sys.stdout.write(text + "\n")


if __name__ == "__main__":
    main()
