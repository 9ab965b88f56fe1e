import json

import pytest
from click.testing import CliRunner

from branchcover.charts import Chart, black, chart_to_json, cup, cap
from branchcover.cli import main
from branchcover.hurwitz import HurwitzSystem, system_to_json
from branchcover.links import CORPUS, coloring_to_json, corpus_diagram, enumerate_simple_colorings
from branchcover.permutations import Permutation
from branchcover.quandles import make_Td, quandle_to_text


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_trace_replayable(self, runner, torus_system_file, tmp_path):
        trace_file = tmp_path / "trace.json"
        result = runner.invoke(
            main, ["normalize", torus_system_file, "--trace-out", str(trace_file)]
        )
        assert result.exit_code == 0
        steps = json.loads(trace_file.read_text())
        assert all(step["move"] in ("hurwitz", "conjugate") for step in steps)

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

    def test_render_svg_and_dot(self, runner, chart_file, tmp_path):
        out = tmp_path / "chart.svg"
        result = runner.invoke(main, ["render", chart_file, "-o", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("<svg")
        result = runner.invoke(main, ["render", chart_file, "--format", "dot"])
        assert result.exit_code == 0
        assert result.output.startswith("graph chart {")


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
        [(2, [1, 2], "assignment"), (2, {"1": 5}, "assignment"), ("x", {}, "degree")],
        ids=["list", "non-string", "string-degree"],
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

    # A float element was truncated by int() and silently accepted.
    @pytest.mark.parametrize("assignment", [[1, 2], {"1": 1.5}], ids=["list", "float"])
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


@pytest.mark.parametrize("name", sorted(set(main.commands) - {"render"}))
def test_only_render_takes_format(runner, name):
    result = runner.invoke(main, [name, "--format", "json"])
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--format" in result.stderr


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
