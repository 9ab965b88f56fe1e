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
so it builds the parser of its own subcommand only (help, a missing command
and an unknown one build them all) and imports only the library modules that
subcommand runs, besides ``permutations`` and ``_unionfind``, which every one
needs:

  normalize, equiv                hurwitz
  equiv --mode covering, cover    hurwitz, covering
  chart-validate, chart-orient,   charts
  chart-move, render
  chart-monodromy                 charts, hurwitz
  color                           links
  lift                            links, braids
  quandle-check                   quandles
  quandle-lift                    links, quandles with the three table options;
                                  without them it runs ``lift``

A braid-flavored system or coloring file adds braids wherever it is read.
The value classes are plain classes on one small base, so no call imports
the standard library's dataclass module, nor ``inspect`` except for a
``--site`` whose keys do not fit the move, which ``charts.apply_chart_move``
diagnoses with it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .permutations import _check_json_object, _exact_ints, _plain_int

EXIT_DOMAIN = 1
EXIT_INPUT = 2

# Option values the parser needs before any subcommand runs.  They copy
# hurwitz.DEFAULT_EQUIV_BUDGET, links.DEFAULT_CONJUGATOR_BOUND,
# links.DEFAULT_LIFT_BUDGET and sorted(charts.MOVES), so that building the
# parser imports none of those modules; tests/test_cli.py pins them to the
# library.
EQUIV_BUDGET = 100_000
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
    from . import hurwitz

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
    from . import hurwitz

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
    from . import covering, hurwitz

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
    from . import charts, hurwitz

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

    _check_json_object(data, "coloring")
    raw = data.get("assignment")
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


_DEFAULT = "(default: %(default)s)"
_LIFT_OPTIONS = (
    ("--conjugator-bound", dict(type=_bound, default=CONJUGATOR_BOUND, help=_DEFAULT)),
    ("--budget", dict(type=_bound, default=LIFT_BUDGET, help=_DEFAULT)),
)

# Each subcommand, in help order: its function, its positionals, and its
# options as the flags and keyword arguments of add_argument.
_COMMANDS = {
    "normalize": (normalize, ("system_file",), (
        ("--trace-out", dict(help="Write the move trace as JSON.")),
    )),
    "equiv": (equiv, ("system_a", "system_b"), (
        ("--mode", dict(choices=["hc", "covering"], default="hc")),
        ("--budget", dict(type=_bound, default=EQUIV_BUDGET, help=_DEFAULT)),
    )),
    "cover": (cover, ("system_file",), ()),
    "chart-validate": (chart_validate, ("chart_file",), ()),
    "chart-monodromy": (chart_monodromy, ("chart_file",), ()),
    "chart-orient": (chart_orient, ("chart_file",), (
        ("--witness-out", dict(help="Write the oriented chart.")),
    )),
    "chart-move": (chart_move, ("chart_file",), (
        ("--move", dict(dest="move_name", required=True, choices=MOVE_NAMES)),
        ("--site", dict(default="", help="Comma-separated key=value arguments.")),
        ("--out", dict(help="Write the moved chart.")),
    )),
    "color": (color, ("pd_file",), (
        ("--degree", "-d", dict(type=_integer, required=True)),
        ("--show-colors", dict(action="store_true", help="Name degree-3 colors.")),
    )),
    "lift": (lift, ("pd_file", "coloring_file"), _LIFT_OPTIONS),
    "quandle-lift": (quandle_lift, ("pd_file", "coloring_file"), _LIFT_OPTIONS + (
        ("--source-table", dict(help="Lift through a finite surjection instead of A_d.")),
        ("--target-table", dict()),
        ("--surjection", dict()),
    )),
    "quandle-check": (quandle_check, ("table_file",), ()),
    "render": (render, ("chart_file",), (
        ("--format", dict(dest="fmt", choices=["svg", "dot"], default="svg", help=_DEFAULT)),
        ("--out", "-o", dict(help="Output file (stdout otherwise).")),
    )),
}


def _parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``: only its subcommand's when ``argv[0]`` names
    one, else every subcommand's, which help, a missing command and an
    unknown one need.  A subcommand's help and usage errors read the same
    from either, so only building the others is saved."""
    parser = argparse.ArgumentParser(
        prog="branchcover", allow_abbrev=False,
        description="Calculus of simple branched coverings: Hurwitz systems, charts, "
                    "link colorings and quandle lifts.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (run, positionals, options) in _COMMANDS.items():
        if only not in (None, name):
            continue
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        for positional in positionals:
            sub.add_argument(positional)
        for *flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parser(argv).parse_args(argv)
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
