import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import branchcover
from branchcover.charts import Chart, black, chart_orientable, chart_to_json, cup, cap, validate_chart
from branchcover.cli import _COMMANDS, MOVE_NAMES, _parser, main
from branchcover.hurwitz import HurwitzSystem, conjugate_system, hurwitz_move, replay_trace, system_to_json
from branchcover.links import CORPUS, coloring_to_json, corpus_diagram, enumerate_simple_colorings
from branchcover.permutations import Permutation, parse_permutation
from branchcover.quandles import make_Td, quandle_to_text


@dataclass
class Result:
    """The exit code and output of one call; ``output`` is stdout then stderr."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


class Runner:
    """Runs ``main(args)`` in this process and captures its exit code and output."""

    def invoke(self, main, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        return Result(code or 0, out.getvalue(), err.getvalue())


@pytest.fixture
def runner():
    return Runner()


@pytest.fixture
def torus_system_file(tmp_path):
    entries = [Permutation.transposition(3, *p) for p in
               [(1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3)]]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(HurwitzSystem.of_permutations(entries, 3))))
    return str(path)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.pd"
    path.write_text(CORPUS["trefoil"])
    return str(path)


class TestNormalize:
    def test_torus_system(self, runner, torus_system_file):
        result = runner.invoke(main, ["normalize", torus_system_file])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["entries"] == ["(1 2)", "(1 2)", "(1 2)", "(1 2)", "(2 3)", "(2 3)"]

    def test_trace_replayable(self, runner, tmp_path):
        # The torus system scrambled by Hurwitz moves and a conjugation:
        # the steps read back from the trace file replay it to the printed
        # normal form.
        entries = [Permutation.transposition(3, *p) for p in [(1, 2)] * 4 + [(2, 3)] * 2]
        s = HurwitzSystem.of_permutations(entries, 3)
        for k, direction in ((4, "forward"), (3, "inverse"), (0, "forward"), (1, "inverse")):
            s = hurwitz_move(s, k, direction)
        s = conjugate_system(s, Permutation.transposition(3, 1, 3))
        system_file, trace_file = tmp_path / "system.json", tmp_path / "trace.json"
        system_file.write_text(json.dumps(system_to_json(s)))
        result = runner.invoke(main, ["normalize", str(system_file), "--trace-out", str(trace_file)])
        assert result.exit_code == 0, result.output
        steps = []
        for step in json.loads(trace_file.read_text()):
            if step["move"] == "hurwitz":
                steps.append(("H", step["k"], step["direction"]))
            else:
                assert step["move"] == "conjugate"
                steps.append(("C", parse_permutation(step["by"], 3)))
        printed = json.loads(result.stdout)
        assert {step[0] for step in steps} == {"H", "C"}
        assert printed.pop("moves") == len(steps)
        assert system_to_json(replay_trace(s, steps)) == printed

    def test_intransitive_is_domain_error(self, runner, tmp_path):
        s = HurwitzSystem.of_permutations(
            [Permutation.transposition(3, 1, 2)] * 2, 3
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(system_to_json(s)))
        result = runner.invoke(main, ["normalize", str(path)])
        assert result.exit_code == 1
        assert "intransitive" in json.loads(result.stderr)["error"]

    def test_unparseable_is_input_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["normalize", str(path)])
        assert result.exit_code == 2
        assert "error" in json.loads(result.stderr)


class TestEquiv:
    def test_hc_mode(self, runner, tmp_path):
        a = HurwitzSystem.of_permutations(
            [Permutation.transposition(4, *p) for p in [(1, 2), (3, 4), (3, 4), (1, 2)]], 4
        )
        b = HurwitzSystem.of_permutations(
            [Permutation.transposition(4, *p) for p in [(1, 2), (1, 2), (3, 4), (3, 4)]], 4
        )
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(system_to_json(a)))
        pb.write_text(json.dumps(system_to_json(b)))
        result = runner.invoke(main, ["equiv", str(pa), str(pb)])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "equivalent"

    def test_covering_mode(self, runner, torus_system_file):
        result = runner.invoke(
            main, ["equiv", torus_system_file, torus_system_file, "--mode", "covering"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "equivalent"


class TestCover:
    def test_torus(self, runner, torus_system_file):
        result = runner.invoke(main, ["cover", torus_system_file])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["components"] == [{"sheets": [1, 2, 3], "euler": 0, "genus": 1}]

    def test_non_closing_is_domain_error(self, runner, tmp_path):
        s = HurwitzSystem.of_permutations(
            [Permutation.transposition(3, 1, 2), Permutation.transposition(3, 2, 3)], 3
        )
        path = tmp_path / "open.json"
        path.write_text(json.dumps(system_to_json(s)))
        result = runner.invoke(main, ["cover", str(path)])
        assert result.exit_code == 1

    def test_non_list_entries_is_input_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 3, "flavor": "permutation", "entries": 5}))
        result = runner.invoke(main, ["cover", str(path)])
        assert result.exit_code == 2
        assert "entries" in json.loads(result.stderr)["error"]


# A string degree crashed braid systems with a TypeError (exit 1), true
# passed as degree 1, and 3.0 reached the domain checks of braid systems.
@pytest.mark.parametrize("flavor", ["permutation", "braid"])
@pytest.mark.parametrize("degree", ["3", True, 3.0], ids=["str", "bool", "float"])
@pytest.mark.parametrize("verb", ["equiv", "normalize", "cover"])
def test_non_integer_degree_is_input_error(runner, tmp_path, verb, degree, flavor):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": degree, "flavor": flavor, "entries": []}))
    files = [str(path)] * (2 if verb == "equiv" else 1)
    result = runner.invoke(main, [verb, *files])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)["error"]
    assert error.startswith(f"{path}:") and "degree" in error


# A file whose top level is not a JSON object failed with a TypeError's text,
# "system file needs degree/flavor/entries: list indices must be integers
# or slices, not str", or "string indices must be integers".
@pytest.mark.parametrize("text, got", [("[1, 2]", "an array"), ('"x"', "a string")], ids=["array", "string"])
@pytest.mark.parametrize("command, kind", [
    (["normalize", "{file}"], "system"), (["chart-validate", "{file}"], "chart"),
    (["lift", "{pd}", "{file}"], "coloring"),
    (["quandle-lift", "{pd}", "{file}", "--source-table", "{table}", "--target-table", "{table}",
      "--surjection", "{map}"], "coloring"),
], ids=["system", "chart", "coloring", "element-coloring"])
def test_json_file_must_hold_an_object(runner, trefoil_file, tmp_path, command, kind, text, got):
    path, table, surjection = tmp_path / "input.json", tmp_path / "t3.quandle", tmp_path / "id.map"
    path.write_text(text)
    table.write_text(quandle_to_text(make_Td(3)))
    surjection.write_text("0 1 2")
    args = [a.format(file=path, pd=trefoil_file, table=table, map=surjection) for a in command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {"error": f"{path}: {kind} file must hold a JSON object, got {got}"}


class TestChartVerbs:
    @pytest.fixture
    def chart_file(self, tmp_path):
        c = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(chart_to_json(c)))
        return str(path)

    def test_validate(self, runner, chart_file):
        result = runner.invoke(main, ["chart-validate", chart_file])
        assert result.exit_code == 0
        assert json.loads(result.output)["valid"] is True

    def test_validate_invalid_exits_1(self, runner, tmp_path):
        c = {"degree": 3, "oriented": False,
             "events": [{"kind": "black", "position": 0, "labels": [1], "insert": True}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(c))
        result = runner.invoke(main, ["chart-validate", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["valid"] is False

    def test_validate_non_integer_degree_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": "x", "oriented": False, "events": []}))
        result = runner.invoke(main, ["chart-validate", str(path)])
        assert result.exit_code == 2
        assert "degree" in json.loads(result.output)["error"]

    def test_validate_string_oriented_exits_2(self, runner, tmp_path):
        # bool("false") is True: the valid unsigned chart would be read as
        # oriented and rejected for its missing signs.
        c = Chart(2, False, (black(1, 0, True), black(1, 0, False)))
        data = chart_to_json(c)
        data["oriented"] = "false"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["chart-validate", str(path)])
        assert result.exit_code == 2
        assert "oriented" in json.loads(result.output)["error"]

    def test_monodromy(self, runner, chart_file):
        result = runner.invoke(main, ["chart-monodromy", chart_file])
        assert result.exit_code == 0
        assert json.loads(result.output)["entries"] == ["(1 2)", "(1 2)"]

    def test_orient(self, runner, chart_file):
        result = runner.invoke(main, ["chart-orient", chart_file])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["orientable"] is True
        assert data["witness"]["oriented"] is True

    def test_move(self, runner, chart_file):
        result = runner.invoke(
            main, ["chart-move", chart_file, "--move", "cup-cap-cancel", "--site", "at=1"]
        )
        assert result.exit_code == 0
        assert len(json.loads(result.output)["events"]) == 2

    def test_move_bad_site(self, runner, chart_file):
        result = runner.invoke(
            main, ["chart-move", chart_file, "--move", "cup-cap-cancel", "--site", "at=0"]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("move, site, keys", [
        ("cup-cap-cancel", "foo=2", ["at", "foo"]),
        ("cup-cap-insert", "at=0", ["position", "label"]),
    ])
    def test_move_site_keys_are_input_errors(self, runner, chart_file, move, site, keys):
        result = runner.invoke(main, ["chart-move", chart_file, "--move", move, "--site", site])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert move in error and all(key in error for key in keys)
        assert "keyword argument" not in error

    @pytest.mark.parametrize("command", [
        ["normalize", "{system}", "--trace-out", "{out}"],
        ["chart-orient", "{chart}", "--witness-out", "{out}"],
        ["chart-move", "{chart}", "--move", "cup-cap-cancel", "--site", "at=1", "--out", "{out}"],
        ["render", "{chart}", "-o", "{out}"],
    ])
    def test_unwritable_output_is_input_error(
        self, runner, torus_system_file, chart_file, tmp_path, command
    ):
        out = str(tmp_path / "missing" / "out")
        args = [a.format(system=torus_system_file, chart=chart_file, out=out) for a in command]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert out in json.loads(result.stderr)["error"]

    def test_move_negative_site(self, runner, chart_file):
        result = runner.invoke(
            main, ["chart-move", chart_file, "--move", "swap", "--site", "at=-1"]
        )
        assert result.exit_code == 1
        assert "no event pair" in json.loads(result.stderr)["error"]

    # int() read "0_1" and "+1" as 1 and "\u0669" as 9, and a repeated key
    # silently kept its last value.
    @pytest.mark.parametrize("move, site, error", [
        ("cup-cap-cancel", "at=0_1", "site values must be integers, got '0_1'"),
        ("cup-cap-cancel", "at=+1", "site values must be integers, got '+1'"),
        ("cup-cap-insert", "at=0,position=\u0669,label=1",
         "site values must be integers, got '\u0669'"),
        ("cup-cap-cancel", "at=0,at=1", "site key 'at' is given twice"),
    ], ids=["underscore", "plus", "non-ascii", "repeated-key"])
    def test_move_site_values_are_plain_integers(self, runner, chart_file, move, site, error):
        result = runner.invoke(main, ["chart-move", chart_file, "--move", move, "--site", site])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == error

    def test_render_svg_and_dot(self, runner, chart_file, tmp_path):
        out = tmp_path / "chart.svg"
        result = runner.invoke(main, ["render", chart_file, "-o", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("<svg")
        result = runner.invoke(main, ["render", chart_file, "--format", "dot"])
        assert result.exit_code == 0
        assert result.output.startswith("graph chart {")

    @pytest.mark.parametrize("fmt", ["svg", "dot"])
    def test_render_invalid_chart_exits_1(self, runner, tmp_path, fmt):
        # A cap on an empty word: the sweep refuses the chart at event 0.
        c = Chart(3, False, (cap(1, 0),))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(chart_to_json(c)))
        result = runner.invoke(main, ["render", str(path), "--format", fmt])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == {"error": validate_chart(c).error}
        assert validate_chart(c).error.startswith("event 0:")


class TestColor:
    def test_trefoil(self, runner, trefoil_file):
        result = runner.invoke(main, ["color", trefoil_file, "--degree", "3"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["count"] == 9
        assert sum(1 for c in data["colorings"] if c["transitive"]) == 6

    def test_show_colors(self, runner, trefoil_file):
        result = runner.invoke(
            main, ["color", trefoil_file, "--degree", "3", "--show-colors"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        names = set()
        for c in data["colorings"]:
            names.update(c["names"].values())
        assert names == {"blue", "red", "green"}

    def test_bad_pd_is_input_error(self, runner, tmp_path):
        path = tmp_path / "bad.pd"
        path.write_text("X(1,2,3)")
        result = runner.invoke(main, ["color", str(path), "--degree", "3"])
        assert result.exit_code == 2

    def test_degree_above_cap_is_domain_error(self, runner, trefoil_file):
        result = runner.invoke(main, ["color", trefoil_file, "--degree", "17"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "exceeds the configured cap" in json.loads(result.stderr)["error"]


class TestLift:
    def test_trefoil_d2(self, runner, trefoil_file, tmp_path):
        dg = corpus_diagram("trefoil")
        coloring = enumerate_simple_colorings(dg, 2)[0]
        cpath = tmp_path / "coloring.json"
        cpath.write_text(json.dumps(coloring_to_json(coloring)))
        result = runner.invoke(main, ["lift", trefoil_file, str(cpath)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["found"] is True
        assert data["lift"]["flavor"] == "braid"

    @pytest.mark.parametrize(
        "degree, assignment, field",
        [(2, [1, 2], "assignment"), (2, {"1": 5}, "assignment"), ("x", {}, "degree"),
         # "01" beside "1" silently kept one of the two arcs; "4_0" read as arc 40.
         (2, {"1": "(1 2)", "2": "(1 2)", "4": "(1 2)", "01": "(1 2)"}, "assignment key '01'"),
         (2, {"1": "(1 2)", "2": "(1 2)", "4": "(1 2)", "4_0": "(1 2)"}, "assignment key '4_0'")],
        ids=["list", "non-string", "string-degree", "leading-zero-key", "underscore-key"],
    )
    def test_malformed_coloring_is_input_error(self, runner, trefoil_file, tmp_path,
                                               degree, assignment, field):
        cpath = tmp_path / "coloring.json"
        cpath.write_text(json.dumps({"degree": degree, "flavor": "permutation",
                                     "assignment": assignment}))
        result = runner.invoke(main, ["lift", trefoil_file, str(cpath)])
        assert result.exit_code == 2
        assert field in json.loads(result.stderr)["error"]

    def test_unknown_flavor_is_input_error(self, runner, trefoil_file, tmp_path):
        cpath = tmp_path / "coloring.json"
        cpath.write_text(json.dumps({"degree": 2, "flavor": "foo", "assignment": {}}))
        result = runner.invoke(main, ["lift", trefoil_file, str(cpath)])
        assert result.exit_code == 2
        assert "unknown flavor 'foo'" in json.loads(result.stderr)["error"]


class TestQuandleVerbs:
    def test_check_valid(self, runner, tmp_path):
        path = tmp_path / "t3.quandle"
        path.write_text(quandle_to_text(make_Td(3)))
        result = runner.invoke(main, ["quandle-check", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["valid"] is True

    def test_check_invalid(self, runner, tmp_path):
        path = tmp_path / "bad.quandle"
        path.write_text("2\n1 0\n1 0\n")
        result = runner.invoke(main, ["quandle-check", str(path)])
        assert result.exit_code == 1

    def test_lift_to_Ad(self, runner, trefoil_file, tmp_path):
        dg = corpus_diagram("trefoil")
        coloring = enumerate_simple_colorings(dg, 2)[0]
        cpath = tmp_path / "coloring.json"
        cpath.write_text(json.dumps(coloring_to_json(coloring)))
        result = runner.invoke(main, ["quandle-lift", trefoil_file, str(cpath)])
        assert result.exit_code == 0
        assert json.loads(result.output)["found"] is True
        plain = runner.invoke(main, ["lift", trefoil_file, str(cpath)])
        assert result.stdout == plain.stdout

    def test_lift_through_surjection(self, runner, trefoil_file, tmp_path):
        from branchcover.quandles import dihedral_quandle, quandle_colorings

        dg = corpus_diagram("trefoil")
        r9, r3 = dihedral_quandle(9), dihedral_quandle(3)
        src = tmp_path / "r9.quandle"
        src.write_text(quandle_to_text(r9))
        tgt = tmp_path / "r3.quandle"
        tgt.write_text(quandle_to_text(r3))
        surj = tmp_path / "p.map"
        surj.write_text(" ".join(str(x % 3) for x in range(9)))
        nontrivial = next(
            c for c in quandle_colorings(dg, r3) if len(set(c.values())) > 1
        )
        cpath = tmp_path / "col.json"
        cpath.write_text(json.dumps({"assignment": {str(a): v for a, v in nontrivial.items()}}))
        result = runner.invoke(main, [
            "quandle-lift", trefoil_file, str(cpath),
            "--source-table", str(src), "--target-table", str(tgt),
            "--surjection", str(surj),
        ])
        assert result.exit_code == 0
        assert json.loads(result.output)["found"] is False

    # A float element was truncated by int() and silently accepted; "01"
    # beside "1" silently kept one of the two arcs; "4_0" read as arc 40.
    @pytest.mark.parametrize(
        "assignment",
        [[1, 2], {"1": 1.5}, {"1": 0, "2": 0, "4": 0, "01": 0}, {"1": 0, "2": 0, "4": 0, "4_0": 0}],
        ids=["list", "float", "leading-zero-key", "underscore-key"],
    )
    def test_lift_through_surjection_bad_assignment(self, runner, trefoil_file, tmp_path,
                                                   assignment):
        table = tmp_path / "t3.quandle"
        table.write_text(quandle_to_text(make_Td(3)))
        surj = tmp_path / "id.map"
        surj.write_text("0 1 2")
        cpath = tmp_path / "col.json"
        cpath.write_text(json.dumps({"assignment": assignment}))
        result = runner.invoke(main, [
            "quandle-lift", trefoil_file, str(cpath),
            "--source-table", str(table), "--target-table", str(table),
            "--surjection", str(surj),
        ])
        assert result.exit_code == 2
        assert "assignment" in json.loads(result.stderr)["error"]

    # A color outside the target table raised KeyError: a traceback, exit 1.
    @pytest.mark.parametrize("color", [99, -1])
    def test_lift_through_surjection_color_outside_target(self, runner, trefoil_file,
                                                           tmp_path, color):
        from branchcover.quandles import quandle_colorings

        t3 = make_Td(3)
        table = tmp_path / "t3.quandle"
        table.write_text(quandle_to_text(t3))
        surj = tmp_path / "id.map"
        surj.write_text("0 1 2")
        coloring = dict(quandle_colorings(corpus_diagram("trefoil"), t3)[0])
        arc = max(coloring)
        coloring[arc] = color
        cpath = tmp_path / "col.json"
        cpath.write_text(json.dumps({"assignment": {str(a): v for a, v in coloring.items()}}))
        result = runner.invoke(main, [
            "quandle-lift", trefoil_file, str(cpath),
            "--source-table", str(table), "--target-table", str(table),
            "--surjection", str(surj),
        ])
        assert result.exit_code == 1, result.output
        error = json.loads(result.stderr)["error"]
        assert f"arc {arc}" in error and str(color) in error


# Each subcommand with its positionals and required options.
_MINIMAL_CALLS = {
    "normalize": ["f"], "equiv": ["f", "f"], "cover": ["f"], "chart-validate": ["f"],
    "chart-monodromy": ["f"], "chart-orient": ["f"], "chart-move": ["f", "--move", "swap"],
    "color": ["f", "-d", "3"], "lift": ["f", "f"], "quandle-check": ["f"],
    "quandle-lift": ["f", "f"], "render": ["f"],
}


def test_minimal_calls_name_every_subcommand():
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(_MINIMAL_CALLS)


@pytest.mark.parametrize("name", sorted(set(_MINIMAL_CALLS) - {"render"}))
def test_only_render_takes_format(runner, name):
    result = runner.invoke(main, [name, *_MINIMAL_CALLS[name], "--format", "json"])
    assert result.exit_code == 2
    assert "unrecognized arguments: --format" in result.stderr


@pytest.mark.parametrize("name", sorted(_MINIMAL_CALLS))
def test_help(runner, name):
    result = runner.invoke(main, [name, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(f"usage: branchcover {name}")


def _subcommands(parser):
    return list(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)


def _parse(parser, argv):
    """The exit code, stdout and stderr of ``parser.parse_args(argv)``, which exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    return exit_info.value.code, out.getvalue(), err.getvalue()


# A call naming a subcommand builds that subcommand's parser only; its help
# and its usage errors must read as the full parser's do.
@pytest.mark.parametrize("name", sorted(_MINIMAL_CALLS))
@pytest.mark.parametrize("extra, exit_code", [(["--help"], 0), ([], 2)], ids=["help", "missing-positional"])
def test_one_subcommand_parser_reads_as_the_full_parser(runner, name, extra, exit_code):
    argv = [name, *extra]
    one = _parser(argv)
    assert _subcommands(one) == [name]
    got = _parse(one, argv)
    assert got == _parse(_parser(), argv)
    assert got[0] == exit_code
    if exit_code:
        assert "the following arguments are required" in got[2]
    else:
        assert got[1].startswith(f"usage: branchcover {name}")
    result = runner.invoke(main, argv)
    assert (result.exit_code, result.stdout, result.stderr) == got


# Help, a missing command and an unknown one need every subcommand.
@pytest.mark.parametrize("argv, exit_code, text", [
    (["--help"], 0, "quandle-check"), (["-h", "normalize"], 0, "quandle-check"),
    ([], 2, "the following arguments are required: COMMAND"),
    (["foo"], 2, "argument COMMAND: invalid choice: 'foo' (choose from 'normalize'"),
], ids=["help", "help-before-command", "no-command", "unknown-command"])
def test_calls_without_a_known_command_build_the_full_parser(runner, argv, exit_code, text):
    parser = _parser(argv)
    assert _subcommands(parser) == list(_COMMANDS) and set(_COMMANDS) == set(_MINIMAL_CALLS)
    got = _parse(parser, argv)
    assert got[0] == exit_code and text in got[1] + got[2]
    result = runner.invoke(main, argv)
    assert (result.exit_code, result.stdout, result.stderr) == got


# A negative budget answered unknown or exhausted instead of refusing the call.
@pytest.mark.parametrize("name, option", [
    ("equiv", "--budget"), ("lift", "--budget"), ("lift", "--conjugator-bound"),
    ("quandle-lift", "--budget"), ("quandle-lift", "--conjugator-bound"),
])
def test_negative_bound_is_usage_error(runner, name, option):
    result = runner.invoke(main, [name, *_MINIMAL_CALLS[name], option, "-1"])
    assert result.exit_code == 2
    assert f"argument {option}: expected a non-negative integer, got '-1'" in result.stderr


# int() read "1_0" as 10, and "+1", "01" and "\u0661" as 1.
@pytest.mark.parametrize("value", ["1_0", "+1", "01", "\u0661"])
@pytest.mark.parametrize("name, option", [
    ("equiv", "--budget"), ("lift", "--budget"), ("lift", "--conjugator-bound"),
    ("quandle-lift", "--budget"), ("quandle-lift", "--conjugator-bound"), ("color", "--degree"),
])
def test_integer_options_are_written_plainly(runner, name, option, value):
    result = runner.invoke(main, [name, *_MINIMAL_CALLS[name], option, value])
    assert result.exit_code == 2
    assert f"argument {option}" in result.stderr and f"got {value!r}" in result.stderr


class TestRoundTrips:
    def test_written_files_reparse(self, runner, torus_system_file, tmp_path):
        # normalize output is a system file readable by equiv
        result = runner.invoke(main, ["normalize", torus_system_file])
        out_path = tmp_path / "nf.json"
        data = json.loads(result.output)
        data.pop("moves")
        out_path.write_text(json.dumps(data))
        result = runner.invoke(main, ["equiv", str(out_path), torus_system_file])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "equivalent"


# Values cli.py writes as literals, so that building the parser imports
# none of hurwitz, links and charts.
def _defaults(command):
    return _parser().parse_args([command, *_MINIMAL_CALLS[command]])


def test_cli_literals_match_library():
    from branchcover import charts, hurwitz, links

    moves = sorted(charts.MOVES)
    assert MOVE_NAMES == moves
    for move in moves:
        assert _parser().parse_args(["chart-move", "f", "--move", move]).move_name == move
    for command in ("lift", "quandle-lift"):
        assert _defaults(command).conjugator_bound == links.DEFAULT_CONJUGATOR_BOUND
        assert _defaults(command).budget == links.DEFAULT_LIFT_BUDGET
    assert _defaults("equiv").budget == hurwitz.DEFAULT_EQUIV_BUDGET


# Runs the CLI module as ``python -m branchcover.cli`` does, then writes the
# modules the process loaded to the file named by argv[1].
_RUN_CLI = """
import json, runpy, sys
modules_out = sys.argv.pop(1)
try:
    runpy.run_module("branchcover.cli", run_name="__main__", alter_sys=True)
finally:
    with open(modules_out, "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""

_SRC = str(Path(branchcover.__file__).resolve().parents[1])

_BASE = {"branchcover._unionfind", "branchcover.permutations"}
_HURWITZ = _BASE | {"branchcover.hurwitz"}
_CHARTS = _BASE | {"branchcover.charts"}
_LINKS = _BASE | {"branchcover.links"}
_QUANDLES = _BASE | {"branchcover.quandles"}
_BRAIDS = "branchcover.braids"


def _python(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    """The modules of an interpreter that has imported what _RUN_CLI imports."""
    proc = _python(["-c", "import json, runpy, sys; print(json.dumps(sorted(sys.modules)))"],
                   tmp_path_factory.mktemp("bare"))
    return set(json.loads(proc.stdout))


@pytest.fixture
def cli_files(tmp_path, torus_system_file, trefoil_file):
    from branchcover.quandles import quandle_colorings

    chart = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
    dg = corpus_diagram("trefoil")
    t3 = make_Td(3)
    contents = {
        "chart": json.dumps(chart_to_json(chart)),
        "oriented": json.dumps(chart_to_json(chart_orientable(chart).witness)),
        # One forward move apart.
        "braids_a": json.dumps({"degree": 3, "flavor": "braid", "entries": ["s1", "s2"]}),
        "braids_b": json.dumps({"degree": 3, "flavor": "braid", "entries": ["s2", "s2^-1 s1 s2"]}),
        "coloring": json.dumps(coloring_to_json(enumerate_simple_colorings(dg, 2)[0])),
        "table": quandle_to_text(t3),
        "map": "0 1 2",
        "elements": json.dumps({"assignment": {
            str(a): v for a, v in quandle_colorings(dg, t3)[0].items()}}),
    }
    files = {"system": torus_system_file, "pd": trefoil_file}
    for name, text in contents.items():
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("command, exit_code, loaded", [
    pytest.param(["normalize", "{system}"], 0, _HURWITZ, id="normalize"),
    pytest.param(["equiv", "{system}", "{system}"], 0, _HURWITZ, id="equiv-hc"),
    pytest.param(["equiv", "{braids_a}", "{braids_b}"], 0, _HURWITZ | {_BRAIDS}, id="equiv-braid"),
    pytest.param(["equiv", "{system}", "{system}", "--mode", "covering"], 0,
                 _HURWITZ | {"branchcover.covering"}, id="equiv-covering"),
    pytest.param(["cover", "{system}"], 0, _HURWITZ | {"branchcover.covering"}, id="cover"),
    pytest.param(["chart-validate", "{chart}"], 0, _CHARTS, id="chart-validate"),
    pytest.param(["chart-monodromy", "{chart}"], 0, _CHARTS | {"branchcover.hurwitz"},
                 id="chart-monodromy"),
    pytest.param(["chart-monodromy", "{oriented}"], 0, _CHARTS | {"branchcover.hurwitz", _BRAIDS},
                 id="chart-monodromy-oriented"),
    pytest.param(["chart-orient", "{chart}"], 0, _CHARTS, id="chart-orient"),
    pytest.param(["chart-move", "{chart}", "--move", "cup-cap-cancel", "--site", "at=1"], 0,
                 _CHARTS, id="chart-move"),
    pytest.param(["chart-move", "{chart}", "--move", "cup-cap-cancel", "--site", "at=0"], 1,
                 _CHARTS, id="chart-move-refused"),
    pytest.param(["chart-move", "{chart}", "--move", "cup-cap-cancel", "--site", "foo=2"], 2,
                 _CHARTS, id="chart-move-site-error"),
    pytest.param(["render", "{chart}", "--format", "dot"], 0, _CHARTS, id="render"),
    pytest.param(["color", "{pd}", "--degree", "3"], 0, _LINKS, id="color"),
    pytest.param(["lift", "{pd}", "{coloring}"], 0, _LINKS | {_BRAIDS}, id="lift"),
    pytest.param(["quandle-check", "{table}"], 0, _QUANDLES, id="quandle-check"),
    pytest.param(["quandle-lift", "{pd}", "{coloring}"], 0, _LINKS | {_BRAIDS}, id="quandle-lift-Ad"),
    pytest.param(["quandle-lift", "{pd}", "{elements}", "--source-table", "{table}",
                  "--target-table", "{table}", "--surjection", "{map}"], 0, _LINKS | _QUANDLES,
                 id="quandle-lift-finite"),
])
def test_subcommand_process_loads_only_its_modules(runner, cli_files, bare_modules, tmp_path,
                                                   request, command, exit_code, loaded):
    args = [a.format(**cli_files) for a in command]
    modules_out = tmp_path / "modules.json"
    proc = _python(["-c", _RUN_CLI, str(modules_out), *args], tmp_path)
    assert proc.returncode == exit_code, proc.stderr
    in_process = runner.invoke(main, args)
    assert (proc.stdout, proc.stderr) == (in_process.stdout, in_process.stderr)
    if command[0] != "render":
        json.loads(proc.stdout or proc.stderr)
    modules = set(json.loads(modules_out.read_text()))
    assert {m for m in modules if m.startswith("branchcover.")} == loaded
    # No call imports dataclasses; only a --site whose keys do not fit the
    # move imports inspect, to name the keys the move takes.
    added = {"dataclasses", "inspect"} & (modules - bare_modules)
    assert added == ({"inspect"} if request.node.callspec.id == "chart-move-site-error" else set())


# The interpreter's own start-up (site, .pth files) may import third-party
# modules, so the check is on what the CLI adds to a bare interpreter.
@pytest.mark.parametrize("command", [
    ["equiv", "{system}", "{system}", "--mode", "covering"],
    ["chart-orient", "{chart}"],
    ["quandle-lift", "{pd}", "{elements}", "--source-table", "{table}",
     "--target-table", "{table}", "--surjection", "{map}"],
], ids=lambda command: command[0])
def test_cli_process_loads_no_third_party_module(cli_files, tmp_path, command):
    bare = _python(["-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"], tmp_path)
    modules_out = tmp_path / "modules.json"
    proc = _python(["-c", _RUN_CLI, str(modules_out),
                    *(a.format(**cli_files) for a in command)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    added = {m.partition(".")[0] for m in json.loads(modules_out.read_text())}
    added -= {m.partition(".")[0] for m in json.loads(bare.stdout)}
    assert added - sys.stdlib_module_names == {"branchcover"}


def test_package_import_loads_no_submodule(tmp_path):
    proc = _python(["-c", "import sys, branchcover; "
                          "print([m for m in sys.modules if m.startswith('branchcover.')])"],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
