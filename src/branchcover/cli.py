"""Command-line surface.

Every subcommand except ``render`` (SVG or DOT) prints one JSON object on
stdout.  Exit codes: 0 success; 1 when the library refuses valid input (any
library error, for example an intransitive system or a degree above the
cap) or a chart or quandle table fails validation; 2 when an input file
cannot be read or parsed, an output file cannot be written, or a ``--site``
value is malformed or its keys do not fit the move.  ``main`` maps those
errors in one place and writes them to stderr as one JSON object.  Usage
errors (an unknown, missing or malformed option, a negative ``--budget`` or
``--conjugator-bound``) also exit 2, with argparse's usage text on stderr;
``-h``/``--help`` prints help.  Integer option and ``--site`` values must be
written as ``str`` writes an int: "1_0", "+1", "01" and non-ASCII digits are
refused, and so is a ``--site`` key given twice.

The command needs only the standard library.  Each call is a fresh process,
so each subcommand imports only the library modules it calls: ``hurwitz`` at
the top (``charts``, ``covering``, ``links`` and ``quandles`` all import it),
the others inside the subcommand.  The value classes are plain classes on
one small base, so no call imports the standard library's dataclass module,
nor ``inspect`` except for a ``--site`` whose keys do not fit the move, which
``charts.apply_chart_move`` diagnoses with it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from . import hurwitz
from .permutations import _exact_ints, _plain_int

EXIT_DOMAIN = 1
EXIT_INPUT = 2

# Option values the parser needs before any subcommand runs.  They copy
# links.DEFAULT_CONJUGATOR_BOUND, links.DEFAULT_LIFT_BUDGET and
# sorted(charts.MOVES), so that building the parser imports neither module;
# tests/test_cli.py pins them to the library.
CONJUGATOR_BOUND = 3
LIFT_BUDGET = 1_000_000
MOVE_NAMES = [
    "black-into-white", "black-through-crossing", "crossing-cancel", "crossing-insert",
    "cup-cap-cancel", "cup-cap-insert", "swap", "white-cancel", "white-insert",
]


class InputExit(Exception):
    """An unreadable or unparseable input file, an unwritable output file or a
    malformed ``--site``: exit 2."""


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


def normalize(args):
    """Normal form of a simple transitive closing permutation system."""
    s = _load(args.system_file, hurwitz.system_from_json)
    nf, trace = hurwitz.hc_normal_form(s)
    payload = hurwitz.system_to_json(nf)
    payload["moves"] = len(trace)
    if args.trace_out:
        _write(args.trace_out, json.dumps([_trace_step_json(step) for step in trace]))
    _print(payload)


def _trace_step_json(step):
    if step[0] == "H":
        return {"move": "hurwitz", "k": step[1], "direction": step[2]}
    return {"move": "conjugate", "by": str(step[1])}


def equiv(args):
    """Decide HC-equivalence, or covering equivalence with --mode covering."""
    s = _load(args.system_a, hurwitz.system_from_json)
    t = _load(args.system_b, hurwitz.system_from_json)
    if args.mode == "hc":
        verdict = hurwitz.hc_equivalent(s, t, budget=args.budget).value
    else:
        from . import covering

        verdict = "equivalent" if covering.covering_equivalent(s, t) else "distinct"
    _print({"verdict": verdict})


def cover(args):
    """Reconstruct the covering surface of a closing permutation system."""
    from . import covering

    s = _load(args.system_file, hurwitz.system_from_json)
    _print(covering.build_covering(s).to_json())


def chart_validate(args):
    """Validate a chart's sweep encoding."""
    from . import charts

    report = charts.validate_chart(_load(args.chart_file, charts.chart_from_json))
    _print({"valid": report.valid, "error": report.error, "event_index": report.event_index,
            "black_count": report.black_count})
    return 0 if report.valid else EXIT_DOMAIN


def chart_monodromy(args):
    """Hurwitz system induced by a chart."""
    from . import charts

    c = _load(args.chart_file, charts.chart_from_json)
    _print(hurwitz.system_to_json(charts.chart_hurwitz_system(c)))


def chart_orient(args):
    """Decide orientability; emits a braid-chart witness when one exists."""
    from . import charts

    result = charts.chart_orientable(_load(args.chart_file, charts.chart_from_json))
    payload = {"orientable": result.orientable}
    if result.orientable:
        payload["witness"] = charts.chart_to_json(result.witness)
        if args.witness_out:
            _write(args.witness_out, json.dumps(payload["witness"]))
    _print(payload)


def chart_move(args):
    """Apply a named chart move at a site, e.g. --site at=2,position=0."""
    from . import charts

    c = _load(args.chart_file, charts.chart_from_json)
    kwargs = {}
    if args.site:
        for pair in args.site.split(","):
            if "=" not in pair:
                raise InputExit(f"bad site argument {pair!r}")
            key, _, value = pair.partition("=")
            key = key.strip()
            if key in kwargs:
                raise InputExit(f"site key {key!r} is given twice")
            number = _plain_int(value.strip())
            if number is None:
                raise InputExit(f"site values must be integers, got {value!r}")
            kwargs[key] = number
    payload = charts.chart_to_json(charts.apply_chart_move(c, args.move_name, **kwargs))
    if args.out:
        _write(args.out, json.dumps(payload))
    _print(payload)


def color(args):
    """Enumerate simple colorings of a PD diagram."""
    from . import links

    dg = _load(args.pd_file, links.parse_pd, text=True)
    cols = links.enumerate_simple_colorings(dg, args.degree)
    payload = []
    for c in cols:
        entry = links.coloring_to_json(c)
        entry["transitive"] = c.is_transitive()
        if args.show_colors and args.degree == 3:
            entry["names"] = {
                str(a): links.color_name(v) for a, v in c.assignment.items()
            }
        payload.append(entry)
    _print({"count": len(cols), "colorings": payload})


def lift(args):
    """Search for a simple braid lift of a transposition coloring."""
    from . import links

    dg = _load(args.pd_file, links.parse_pd, text=True)
    f = _load(args.coloring_file, links.coloring_from_json)
    result = links.find_simple_lift(dg, f, args.conjugator_bound, args.budget)
    payload = {
        "found": result.lift is not None,
        "exhausted": result.exhausted,
        "checks": result.checks,
    }
    if result.lift is not None:
        payload["lift"] = links.coloring_to_json(result.lift)
    _print(payload)


def quandle_check(args):
    """Validate the quandle axioms for an operation table."""
    from . import quandles

    q = _load(args.table_file, quandles.quandle_from_text, text=True)
    report = quandles.quandle_validate(q)
    _print({"valid": report.valid, "error": report.error})
    return 0 if report.valid else EXIT_DOMAIN


def _element_coloring(data) -> dict:
    """A finite-lift coloring file: {"assignment": {arc: element number}}."""
    from .links import _arc_number

    raw = data.get("assignment") if isinstance(data, dict) else None
    if not isinstance(raw, dict):
        raise ValueError(f"assignment must map arcs to element numbers, got {raw!r}")
    _exact_ints(tuple(raw.values()), "assignment value")
    return {_arc_number(a): v for a, v in raw.items()}


def quandle_lift(args):
    """Lift a coloring to the braid conjugation quandle (default: runs lift)
    or through a finite surjective quandle homomorphism."""
    tables = (args.source_table, args.target_table, args.surjection)
    if not any(tables):
        return lift(args)
    if not all(tables):
        raise InputExit("finite lifting needs --source-table, --target-table and --surjection")
    from . import links, quandles

    dg = _load(args.pd_file, links.parse_pd, text=True)
    source = _load(args.source_table, quandles.quandle_from_text, text=True)
    target = _load(args.target_table, quandles.quandle_from_text, text=True)
    p = _load(args.surjection, quandles.surjection_from_text, text=True)
    coloring = _load(args.coloring_file, _element_coloring)
    lifted = quandles.lift_through_surjection(p, source, target, dg, coloring)
    payload = {"found": lifted is not None}
    if lifted is not None:
        payload["lift"] = {str(a): v for a, v in lifted.items()}
    _print(payload)


def render(args):
    """Render a chart's sweep diagram as SVG or DOT."""
    from . import charts

    c = _load(args.chart_file, charts.chart_from_json)
    # Both renderers sweep the chart first and raise its ChartError.
    text = charts.chart_to_svg(c) if args.fmt == "svg" else charts.chart_to_dot(c)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text + "\n")


def _bound(text: str) -> int:
    """``type=`` of the search bounds: anything but a non-negative integer,
    written plainly, is a usage error."""
    value = _plain_int(text)
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _integer(text: str) -> int:
    """``type=`` of ``--degree``: an integer written plainly; the library
    checks its range."""
    value = _plain_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchcover", allow_abbrev=False,
        description="Calculus of simple branched coverings: Hurwitz systems, charts, "
                    "link colorings and quandle lifts.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run, *positionals):
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__,
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        for name in positionals:
            sub.add_argument(name)
        return sub

    default = "(default: %(default)s)"
    sub = command(normalize, "system_file")
    sub.add_argument("--trace-out", help="Write the move trace as JSON.")
    sub = command(equiv, "system_a", "system_b")
    sub.add_argument("--mode", choices=["hc", "covering"], default="hc")
    sub.add_argument("--budget", type=_bound, default=hurwitz.DEFAULT_EQUIV_BUDGET, help=default)
    command(cover, "system_file")
    command(chart_validate, "chart_file")
    command(chart_monodromy, "chart_file")
    sub = command(chart_orient, "chart_file")
    sub.add_argument("--witness-out", help="Write the oriented chart.")
    sub = command(chart_move, "chart_file")
    sub.add_argument("--move", dest="move_name", required=True, choices=MOVE_NAMES)
    sub.add_argument("--site", default="", help="Comma-separated key=value arguments.")
    sub.add_argument("--out", help="Write the moved chart.")
    sub = command(color, "pd_file")
    sub.add_argument("--degree", "-d", type=_integer, required=True)
    sub.add_argument("--show-colors", action="store_true", help="Name degree-3 colors.")
    for run in (lift, quandle_lift):
        sub = command(run, "pd_file", "coloring_file")
        sub.add_argument("--conjugator-bound", type=_bound, default=CONJUGATOR_BOUND,
                         help=default)
        sub.add_argument("--budget", type=_bound, default=LIFT_BUDGET, help=default)
    # quandle-lift only:
    sub.add_argument("--source-table", help="Lift through a finite surjection instead of A_d.")
    sub.add_argument("--target-table")
    sub.add_argument("--surjection")
    command(quandle_check, "table_file")
    sub = command(render, "chart_file")
    sub.add_argument("--format", dest="fmt", choices=["svg", "dot"], default="svg", help=default)
    sub.add_argument("--out", "-o", help="Output file (stdout otherwise).")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args) or 0
    except (InputExit, ValueError) as exc:
        # Library ValueErrors (HurwitzError, ChartError, LinkError, QuandleError,
        # degree checks) refuse valid input; a SiteError is a bad --site.  Only
        # a loaded charts module can have raised one, so none is imported here.
        charts = sys.modules.get(f"{__package__}.charts")
        bad_site = charts is not None and isinstance(exc, charts.SiteError)
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_INPUT if isinstance(exc, InputExit) or bad_site else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
