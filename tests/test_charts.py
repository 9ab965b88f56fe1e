import functools
import hashlib
import itertools
import operator
import random
import re
import sys
import time

import pytest

from branchcover import charts
from branchcover._unionfind import ParityUnionFind
from branchcover.braids import BraidWord, braids_equal, project
from branchcover.charts import (
    Chart,
    ChartError,
    ChartEvent,
    MoveError,
    MOVES,
    SiteError,
    apply_chart_move,
    black,
    black_into_white,
    black_through_crossing,
    cap,
    chart_from_json,
    chart_hurwitz_system,
    chart_orientable,
    chart_to_dot,
    chart_to_json,
    chart_to_svg,
    crossing,
    cup,
    cup_cap_cancel,
    cup_cap_insert,
    event_swap,
    forget_orientation,
    patch_rewrite,
    sweep_record,
    validate_chart,
    white,
    white_pair_cancel,
)
from branchcover.charts import _rewrite
from branchcover.hurwitz import (
    Equivalence,
    hc_equivalent,
    total_monodromy,
)
from branchcover.permutations import Permutation
from oracles import chart_entries_by_products, random_chart, sign_classes, white_sign_patterns


def two_vertex_chart(d=2):
    return Chart(d, False, (black(1, 0, True), black(1, 0, False)))


def torus_chart():
    # Six black vertices giving the system ((12), (12), (12), (12), (23), (23)).
    events = (
        black(1, 0, True),
        black(1, 0, False),
        black(1, 0, True),
        black(1, 0, False),
        black(2, 0, True),
        black(2, 0, False),
    )
    return Chart(3, False, events)


class TestValidation:
    def test_empty_chart(self):
        assert validate_chart(Chart(3, False, ())).valid

    def test_two_vertex_chart(self):
        report = validate_chart(two_vertex_chart())
        assert report.valid
        assert report.black_count == 2

    def test_white_label_distance(self):
        c = Chart(4, False, (white(1, 3, 0),))
        report = validate_chart(c)
        assert not report.valid
        assert report.event_index == 0
        assert "adjacent" in report.error

    def test_crossing_label_distance(self):
        c = Chart(3, False, (crossing(1, 2, 0),))
        report = validate_chart(c)
        assert not report.valid
        assert "differ by more than 1" in report.error

    def test_unclosed_sweep(self):
        c = Chart(2, False, (black(1, 0, True),))
        report = validate_chart(c)
        assert not report.valid
        assert "nonempty word" in report.error
        assert report.event_index == 1

    def test_position_out_of_range(self):
        c = Chart(2, False, (black(1, 5, True), black(1, 0, False)))
        report = validate_chart(c)
        assert not report.valid
        assert report.event_index == 0

    def test_label_out_of_range(self):
        c = Chart(2, False, (black(5, 0, True), black(5, 0, False)))
        assert not validate_chart(c).valid

    def test_oriented_cap_needs_opposite_signs(self):
        events = (
            black(1, 0, True, 1),
            black(1, 1, True, 1),
            cap(1, 0),
        )
        assert not validate_chart(Chart(2, True, events)).valid
        events = (
            black(1, 0, True, 1),
            black(1, 1, True, -1),
            cap(1, 0),
        )
        assert validate_chart(Chart(2, True, events)).valid

    @pytest.mark.parametrize(
        "chart, message, index",
        [
            (Chart(3, False, (black(1, 0, True), black(2, 0, False))),
             "strand at 0 has label 1, expected 2", 1),
            (Chart(3, False, (black(1, 0, True), black(2, 1, True), cap(1, 0))),
             "cap labels (1, 2) do not match 1", 2),
            (Chart(5, False, (black(1, 0, True), black(3, 1, True), crossing(3, 1, 0))),
             "strands at 0 are (1, 3), expected (3, 1)", 2),
            (Chart(3, False, (black(1, 0, True), black(2, 1, True), black(2, 2, True),
                              white(1, 2, 0))),
             "strands at 0 are (1, 2, 2), expected (1, 2, 1)", 3),
            (Chart(3, True, (black(1, 0, True, -1), black(2, 1, True, 1),
                             black(1, 2, True, -1), white(1, 2, 0))),
             "sign pattern (1, -1, 1) not admissible at a white vertex", 3),
            (Chart(2, True, (black(1, 0, True), black(1, 0, False))),
             "oriented black insert needs a sign", 0),
        ],
        ids=["black-delete-label", "cap-labels", "crossing-strands", "white-strands",
             "white-signs", "unsigned-insert"],
    )
    def test_sweep_rejections(self, chart, message, index):
        report = validate_chart(chart)
        assert not report.valid
        assert message in report.error
        assert report.event_index == index

    def test_report_matches_the_recorded_sweep(self):
        # Valid charts of both kinds, and copies with one event's position
        # or labels changed: the report names what sweep_record raises.
        rng = random.Random(26)
        invalid = 0
        for k in range(150):
            d = rng.choice([3, 4, 5])
            c = random_chart(d, rng.randrange(4, 30), rng, oriented=k % 2 == 1)
            t = rng.randrange(len(c.events))
            ev = c.events[t]
            if k % 3 == 0:
                ev = ChartEvent(ev.kind, rng.randrange(8), ev.labels, ev.insert, ev.sign)
            else:
                labels = tuple(rng.randrange(1, d + 1) for _ in ev.labels)
                ev = ChartEvent(ev.kind, ev.position, labels, ev.insert, ev.sign)
            bad = Chart(d, c.oriented, c.events[:t] + (ev,) + c.events[t + 1:])
            for chart in (c, bad):
                report = validate_chart(chart)
                try:
                    sweep_record(chart)
                    expected = (True, None, None)
                except ChartError as exc:
                    expected = (False, str(exc), exc.event_index)
                    invalid += 1
                assert (report.valid, report.error, report.event_index) == expected
        assert invalid > 50


class TestMonodromy:
    def test_two_vertex(self):
        s = chart_hurwitz_system(two_vertex_chart())
        t1 = Permutation.adjacent(2, 1)
        assert s.entries == (t1, t1)

    def test_torus_chart(self):
        s = chart_hurwitz_system(torus_chart())
        t1, t2 = Permutation.adjacent(3, 1), Permutation.adjacent(3, 2)
        assert s.entries == (t1, t1, t1, t1, t2, t2)

    def test_oriented_two_vertex(self):
        # Signs (+, -) on the two black vertices give (s1, s1^-1).
        c = Chart(2, True, (black(1, 0, True, 1), black(1, 0, False, -1)))
        assert validate_chart(c).valid
        s = chart_hurwitz_system(c)
        assert braids_equal(s.entries[0], BraidWord(2, (1,)))
        assert braids_equal(s.entries[1], BraidWord(2, (-1,)))
        # A mismatched deletion sign is rejected.
        bad = Chart(2, True, (black(1, 0, True, 1), black(1, 0, False, 1)))
        assert not validate_chart(bad).valid

    def test_oriented_pair(self):
        c = Chart(
            2,
            True,
            (black(1, 0, True, 1), black(1, 1, True, -1), cap(1, 0)),
        )
        s = chart_hurwitz_system(c)
        assert s.flavor == "braid"
        assert braids_equal(s.entries[0], BraidWord(2, (1,)))
        # Second meridian: prefix is the +1 strand, so s1 s1^-1 s1^-1.
        assert braids_equal(s.entries[1], BraidWord(2, (-1,)) ** BraidWord(2, (-1,)))
        assert braids_equal(s.entries[1], BraidWord(2, (-1,)))

    def test_nontrivial_prefix(self):
        events = (
            black(1, 0, True),
            black(3, 1, True),
            black(1, 0, False),
            black(3, 0, False),
        )
        s = chart_hurwitz_system(Chart(4, False, events))
        t1, t3 = Permutation.adjacent(4, 1), Permutation.adjacent(4, 3)
        assert s.entries == (t1, t1 * t3 * t1, t1, t3)

    def test_closed_charts_have_trivial_total(self):
        rng = random.Random(20)
        for _ in range(60):
            c = random_chart(rng.choice([2, 3, 4]), rng.randrange(4, 20), rng)
            assert validate_chart(c).valid
            assert total_monodromy(chart_hurwitz_system(c)).is_identity()

    def test_oriented_closed_charts_total(self):
        rng = random.Random(21)
        for _ in range(40):
            c = random_chart(rng.choice([2, 3, 4]), rng.randrange(4, 16), rng, oriented=True)
            assert validate_chart(c).valid
            assert total_monodromy(chart_hurwitz_system(c)).is_identity()

    def test_entries_match_prefix_products(self):
        rng = random.Random(22)
        for k in range(40):
            c = random_chart(rng.choice([2, 3, 4, 5]), rng.randrange(4, 60), rng, oriented=k % 2 == 1)
            c = forget_orientation(c)
            assert list(chart_hurwitz_system(c).entries) == chart_entries_by_products(c)


class TestWhitePatterns:
    def test_plain_relation_present(self):
        table = white_sign_patterns(1, 2)
        assert table[(1, 1, 1)] == (1, 1, 1)
        assert table[(-1, -1, -1)] == (-1, -1, -1)
        assert len(table) == 6

    def test_patterns_are_braid_identities(self):
        # Each admissible reading must equate the consumed and produced
        # subwords as braid elements; this is what keeps monodromy stable.
        for i, j in [(1, 2), (2, 1), (2, 3)]:
            d = max(i, j) + 1
            for cons, prod in white_sign_patterns(i, j).items():
                u = functools.reduce(
                    operator.mul, [BraidWord(d, (l * s,)) for l, s in zip((i, j, i), cons)]
                )
                v = functools.reduce(
                    operator.mul, [BraidWord(d, (l * s,)) for l, s in zip((j, i, j), prod)]
                )
                assert braids_equal(u, v), (i, j, cons, prod)

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (2, 3), (3, 4)])
    def test_sweep_follows_table(self, i, j):
        # Three signed strands (i, j, i) meet one white vertex and die; the
        # sweep must admit exactly the tabulated triples and emit their rows.
        table = white_sign_patterns(i, j)
        for cons in itertools.product((1, -1), repeat=3):
            events = (
                black(i, 0, True, -cons[0]),
                black(j, 1, True, -cons[1]),
                black(i, 2, True, -cons[2]),
                white(i, j, 0),
                black(j, 0, False),
                black(i, 0, False),
                black(j, 0, False),
            )
            c = Chart(max(i, j) + 1, True, events)
            report = validate_chart(c)
            assert report.valid == (cons in table), cons
            if not report.valid:
                assert report.event_index == 3 and "not admissible" in report.error
                continue
            words = sweep_record(c).words
            assert tuple((l, s) for l, s, _ in words[3]) == tuple(zip((i, j, i), cons))
            assert tuple((l, s) for l, s, _ in words[4]) == tuple(zip((j, i, j), table[cons]))


def assert_hc_equivalent_systems(c1, c2, budget=30_000):
    s1, s2 = chart_hurwitz_system(c1), chart_hurwitz_system(c2)
    assert s1.degree == s2.degree and s1.flavor == s2.flavor
    assert hc_equivalent(s1, s2, budget=budget) is Equivalence.EQUIVALENT


class TestMoves:
    def test_cup_cap_cancel(self):
        c = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
        out = cup_cap_cancel(c, 1)
        assert out.events == two_vertex_chart(3).events
        assert chart_hurwitz_system(out).entries == chart_hurwitz_system(c).entries

    def test_cup_cap_insert_roundtrip(self):
        c = two_vertex_chart(3)
        ins = cup_cap_insert(c, 1, 0, 2)
        assert chart_hurwitz_system(ins).entries == chart_hurwitz_system(c).entries
        assert cup_cap_cancel(ins, 1).events == c.events

    def test_white_cancel(self):
        base = (
            black(1, 0, True),
            black(2, 1, True),
            black(1, 2, True),
            white(1, 2, 0),
            white(2, 1, 0),
            black(1, 0, False),
            black(2, 0, False),
            black(1, 0, False),
        )
        c = Chart(3, False, base)
        assert validate_chart(c).valid
        out = white_pair_cancel(c, 3)
        assert len(out.events) == 6
        assert chart_hurwitz_system(out).entries == chart_hurwitz_system(c).entries

    def test_event_swap_blacks_is_hurwitz_move(self):
        c = Chart(4, False, (black(1, 0, True), black(3, 1, True), black(1, 0, False), black(3, 0, False)))
        out = event_swap(c, 0)
        assert_hc_equivalent_systems(c, out)

    def test_black_through_crossing_exact(self):
        events = (
            black(3, 0, True),
            black(1, 0, True),
            crossing(1, 3, 0),
            black(1, 1, False),
            black(3, 0, False),
        )
        c = Chart(4, False, events)
        assert validate_chart(c).valid
        out = black_through_crossing(c, 1)
        assert validate_chart(out).valid
        assert chart_hurwitz_system(out).entries == chart_hurwitz_system(c).entries

    def test_black_into_white_exact(self):
        events = (
            black(2, 0, True),
            black(1, 1, True),
            black(1, 0, True),
            white(1, 2, 0),
            black(2, 0, False),
            black(1, 0, False),
            black(2, 0, False),
        )
        c = Chart(3, False, events)
        assert validate_chart(c).valid
        out = black_into_white(c, 2)
        assert validate_chart(out).valid
        assert chart_hurwitz_system(out).entries == chart_hurwitz_system(c).entries

    def test_black_into_white_refuses_sign_change(self):
        # The white vertex consumes signs (-1, 1, -1) and hands back
        # (-1, 1, -1) reversed; moving the black vertex to slot 2 would put
        # the word (2, -1), (1, 1), (2, -1) after the window, flipping the
        # signs of edges outside the move's disk.  The deletions leave their
        # signs undeclared, so the output would still sweep.
        events = (
            black(2, 0, True, 1),
            black(1, 1, True, -1),
            black(1, 0, True, 1),
            white(1, 2, 0),
            black(2, 0, False),
            black(1, 0, False),
            black(2, 0, False),
        )
        c = Chart(3, True, events)
        assert validate_chart(c).valid
        with pytest.raises(MoveError, match="word after its window"):
            black_into_white(c, 2)

    def test_patch_rewrite_preserves_exactly(self):
        # Replace a cup/cap circle patch by an equivalent empty patch.
        c = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
        out = patch_rewrite(c, 1, 3, [])
        assert chart_hurwitz_system(out).entries == chart_hurwitz_system(c).entries
        # And rebuild it with a different but word-equivalent patch.
        back = patch_rewrite(out, 1, 1, [cup(2, 1), cap(2, 1)])
        assert chart_hurwitz_system(back).entries == chart_hurwitz_system(c).entries

    def test_patch_rewrite_rejects_blacks(self):
        c = two_vertex_chart()
        with pytest.raises(MoveError):
            patch_rewrite(c, 0, 1, [])

    def test_patch_rewrite_rejects_word_change(self):
        c = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
        with pytest.raises(MoveError):
            patch_rewrite(c, 1, 3, [cup(1, 1)])

    def test_patch_rewrite_ignores_signs_when_unoriented(self):
        # An unoriented sweep keeps a cup's declared sign; the boundary words
        # of the patch must still compare by labels alone.
        patch = [cup(1, 0), cap(1, 2)]
        for sign in (1, -1):
            c = Chart(3, False, (black(1, 0, True), cup(1, 1, sign), black(1, 0, False), cap(1, 0)))
            out = patch_rewrite(c, 2, 2, patch)
            assert out.events == c.events[:2] + tuple(patch) + c.events[2:]
            assert chart_hurwitz_system(out).entries == chart_hurwitz_system(c).entries

    def test_events_given_as_a_list_are_stored_as_a_tuple(self):
        c = Chart(3, False, list(two_vertex_chart(3).events))
        assert c == two_vertex_chart(3) and hash(c) == hash(two_vertex_chart(3))
        out = apply_chart_move(c, "cup-cap-insert", at=0, position=0, label=1)
        assert out == cup_cap_insert(two_vertex_chart(3), 0, 0, 1)

    def test_event_labels_given_as_a_list_are_stored_as_a_tuple(self):
        ev = ChartEvent("black", 0, [1], True)
        assert ev == black(1, 0, True) and hash(ev) == hash(black(1, 0, True))
        c = Chart(2, False, [ev, ChartEvent("black", 0, [1], False)])
        assert c == two_vertex_chart() and hash(c) == hash(two_vertex_chart())

    def test_unknown_move(self):
        with pytest.raises(MoveError, match="unknown move"):
            apply_chart_move(two_vertex_chart(), "no-such-move")

    def test_site_keys_must_fit_the_move(self):
        with pytest.raises(SiteError, match=r"keys at, position, label, sign; got \['at'\]"):
            apply_chart_move(two_vertex_chart(), "cup-cap-insert", at=0)
        with pytest.raises(SiteError, match=r"takes site keys at; got \['foo'\]"):
            apply_chart_move(two_vertex_chart(), "swap", foo=1)

    def test_type_error_inside_a_move_is_not_a_site_error(self, monkeypatch):
        def broken(chart, at):
            raise TypeError("inside the move")

        monkeypatch.setitem(MOVES, "broken", broken)
        with pytest.raises(TypeError, match="inside the move"):
            apply_chart_move(two_vertex_chart(), "broken", at=0)

    def test_inapplicable_site(self):
        with pytest.raises(MoveError):
            apply_chart_move(two_vertex_chart(), "cup-cap-cancel", at=0)

    def test_swap_at_negative_site_rejected(self):
        # A wrapped index would splice the last event before the first and
        # return a valid chart with twice the black vertices.
        c = Chart(3, False, (black(1, 0, True), black(2, 1, True), black(1, 0, False), black(2, 0, False)))
        with pytest.raises(MoveError):
            apply_chart_move(c, "swap", at=-1)

    @pytest.mark.parametrize("at", [-1, 3])
    def test_insert_out_of_range_site_rejected(self, at):
        c = two_vertex_chart(3)
        with pytest.raises(MoveError, match="out of range"):
            apply_chart_move(c, "cup-cap-insert", at=at, position=0, label=2)

    @pytest.mark.parametrize("index", [True, 0.0, "0", 1.5], ids=repr)
    def test_event_index_must_be_an_exact_int(self, index):
        c = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
        message = f"event index must be an integer, got {index!r}"
        for move, site in (("cup-cap-cancel", {}), ("swap", {}),
                           ("cup-cap-insert", {"position": 0, "label": 1})):
            with pytest.raises(SiteError, match=re.escape(message)):
                apply_chart_move(c, move, at=index, **site)
        for start, end in ((index, 3), (1, index)):
            with pytest.raises(SiteError, match=re.escape(message)):
                patch_rewrite(c, start, end, [])

    def test_insert_at_the_end_must_close(self):
        # The words before and after an empty window at the end are both the
        # final empty word; new events that leave strands change it.
        c = two_vertex_chart(3)
        with pytest.raises(MoveError, match="changes the word after its window"):
            patch_rewrite(c, 2, 2, [cup(1, 0)])
        out = cup_cap_insert(c, 2, 0, 1)
        assert out.events == c.events + (cup(1, 0), cap(1, 0))

    def test_window_before_an_invalid_event_is_refused(self):
        # The move's window is fine; the sweep after it is not.
        c = Chart(3, False, two_vertex_chart(3).events + (black(2, 5, False),))
        for call in (lambda: cup_cap_insert(c, 0, 0, 1),
                     lambda: patch_rewrite(c, 1, 1, [])):
            with pytest.raises(MoveError, match="move needs a valid chart: event 2: position 5"):
                call()


def _applicable_move_sites(c):
    """All (move, site) pairs applicable to chart c, discovered by trying."""
    out = []
    for name in MOVES:
        for at in range(len(c.events) + 1):
            kwargs_list = [{"at": at}]
            if name == "cup-cap-insert":
                kwargs_list = [{"at": at, "position": 0, "label": 1}]
            elif name == "white-insert":
                kwargs_list = [{"at": at, "position": p, "i": i, "j": j}
                               for p in range(3) for i, j in [(1, 2), (2, 1)]]
            elif name == "crossing-insert":
                kwargs_list = [{"at": at, "position": p, "i": 1, "j": 3} for p in range(3)]
            for kwargs in kwargs_list:
                try:
                    moved = apply_chart_move(c, name, **kwargs)
                except MoveError:
                    continue
                out.append((name, kwargs, moved))
    return out


def _without_deletion_signs(c):
    events = tuple(ChartEvent(e.kind, e.position, e.labels, e.insert) if e.kind == "black" and not e.insert else e
                   for e in c.events)
    return Chart(c.degree, c.oriented, events)


def _word_after(c, t):
    """The word after event t-1, with signs when c is oriented."""
    return [(l, s) if c.oriented else l for l, s, _ in sweep_record(c).words[t]]


class TestMovePreservation:
    def test_randomized_moves_preserve_monodromy(self):
        # Unoriented charts, then oriented ones, each also with its deletion
        # signs undeclared (the sweep then reads them off the strands).
        rng = random.Random(22)
        checked = 0
        for oriented in (False, True):
            for _ in range(30):
                c = random_chart(rng.choice([3, 4]), rng.randrange(6, 16), rng, oriented=oriented)
                for c in ([c, _without_deletion_signs(c)] if oriented else [c]):
                    sites = _applicable_move_sites(c)
                    rng.shuffle(sites)
                    for name, kwargs, moved in sites[:4]:
                        assert validate_chart(moved).valid, (name, kwargs)
                        assert_hc_equivalent_systems(c, moved)
                        # Inserts rewrite an empty window, the other moves a pair.
                        end = kwargs["at"] + (0 if name.endswith("insert") else 2)
                        new_end = end + len(moved.events) - len(c.events)
                        assert _word_after(moved, new_end) == _word_after(c, end), (name, kwargs)
                        checked += 1
        assert checked >= 90


class TestOrientability:
    def test_single_arc(self):
        res = chart_orientable(two_vertex_chart())
        assert res.orientable
        assert validate_chart(res.witness).valid
        assert res.witness.oriented

    def test_no_whites_always_orientable(self):
        rng = random.Random(23)
        for _ in range(25):
            c = random_chart(rng.choice([2, 3, 4]), rng.randrange(4, 14), rng)
            if any(e.kind == "white" for e in c.events):
                continue
            res = chart_orientable(c)
            assert res.orientable

    def test_witness_projects_back(self):
        rng = random.Random(24)
        done = 0
        while done < 25:
            oriented = random_chart(rng.choice([3, 4]), rng.randrange(6, 18), rng, oriented=True)
            plain = forget_orientation(oriented)
            res = chart_orientable(plain)
            assert res.orientable  # the original orientation is one witness
            witness = res.witness
            assert validate_chart(witness).valid
            assert forget_orientation(witness).events == plain.events
            sys_plain = chart_hurwitz_system(plain)
            sys_oriented = chart_hurwitz_system(witness)
            from branchcover.braids import project

            assert tuple(project(e) for e in sys_oriented.entries) == sys_plain.entries
            done += 1

    def test_witness_is_lex_least(self):
        # A chart with one free arc: witness should pick +1 for the first segment.
        res = chart_orientable(two_vertex_chart())
        assert res.segment_signs[0] == 1

    NONORIENTABLE = (
        cup(1, 0),
        black(1, 1, True),
        black(2, 2, True),
        white(1, 2, 1),
        black(1, 2, False),
        black(2, 2, False),
        cup(2, 2),
        black(1, 2, True),
        black(1, 4, True),
        white(1, 2, 2),
        black(2, 2, False),
        black(2, 3, False),
        white(1, 2, 0),
        black(2, 0, False),
        black(1, 0, False),
        cap(2, 0),
    )

    def test_nonorientable_chart(self):
        # Three interlocked white vertices: cup twins and a closing cap force
        # the last white to read signs (s, -s, s), which no braid-chart
        # vertex admits.  The solver's negative certificate is cross-checked
        # by exhausting all sign assignments.
        c = Chart(3, False, self.NONORIENTABLE)
        assert validate_chart(c).valid
        res = chart_orientable(c)
        assert not res.orientable
        assert res.witness is None

    def test_nonorientable_chart_brute_force(self):
        import itertools

        from branchcover.charts import sweep_record

        c = Chart(3, False, self.NONORIENTABLE)
        rec = sweep_record(c)
        segs = sorted(rec.segment_label)
        assert len(segs) <= 20
        for combo in itertools.product((1, -1), repeat=len(segs)):
            sign = dict(zip(segs, combo))
            ok = True
            for ev, (cons, prod) in zip(c.events, rec.event_io):
                if ev.kind == "cup":
                    ok = sign[prod[0]] == -sign[prod[1]]
                elif ev.kind == "cap":
                    ok = sign[cons[0]] == -sign[cons[1]]
                elif ev.kind == "crossing":
                    ok = (
                        sign[prod[0]] == sign[cons[1]]
                        and sign[prod[1]] == sign[cons[0]]
                    )
                elif ev.kind == "white":
                    table = white_sign_patterns(*ev.labels)
                    consumed = tuple(sign[s] for s in cons)
                    ok = consumed in table and table[consumed] == tuple(
                        sign[s] for s in prod
                    )
                if not ok:
                    break
            assert not ok, f"assignment {combo} orients a nonorientable chart"

    def test_matches_brute_force(self):
        # Independent oracle: the first valid assignment in product order over
        # the sorted segments is the lexicographically least witness.  Half
        # the charts join two closed charts with white vertices, so their
        # signs split into two or more white-linked components.
        rng = random.Random(26)
        charts = []
        while len(charts) < 60:
            c = _small_chart_with_whites(rng)
            if len(charts) >= 30:
                b = _small_chart_with_whites(rng)
                c = Chart(max(c.degree, b.degree), False, c.events + b.events)
            if len(sweep_record(c).segment_label) <= 16:
                charts.append(c)
        for c in charts:
            signs = _first_valid_signs(c)
            res = chart_orientable(c)
            if signs is None:
                assert not res.orientable and res.witness is None
            else:
                assert res.orientable and res.segment_signs == signs

    def test_gadget_after_long_free_prefix_is_fast(self):
        # 24 free arcs are 24 sign classes that no white vertex touches;
        # they take their signs without branching (2^24 nodes otherwise).
        prefix = []
        for k in range(24):
            prefix += [black(1 + k % 2, 0, True), black(1 + k % 2, 0, False)]
        c = Chart(3, False, tuple(prefix) + self.NONORIENTABLE)
        start = time.perf_counter()
        res = chart_orientable(c)
        assert time.perf_counter() - start < 1.0
        assert not res.orientable and res.witness is None

    def test_scan_chart_is_fast(self):
        # A 165-event chart with 32 white vertices; it ran past 20 s under
        # a search that assigned every class in order without propagation.
        plain = forget_orientation(random_chart(4, 160, random.Random(160002), oriented=True))
        start = time.perf_counter()
        res = chart_orientable(plain)
        assert time.perf_counter() - start < 1.0
        assert res.orientable
        assert validate_chart(res.witness).valid
        assert forget_orientation(res.witness).events == plain.events
        entries = chart_hurwitz_system(res.witness).entries
        assert tuple(project(e) for e in entries) == chart_hurwitz_system(plain).entries

    def test_oriented_input_rejected(self):
        c = Chart(2, True, (black(1, 0, True, 1), black(1, 0, False, 1)))
        with pytest.raises(ChartError):
            chart_orientable(c)

    def test_cap_joins_never_contradict(self, monkeypatch):
        # The docstring proves that a cap's union of two sign classes never
        # contradicts the parities already recorded; count every union over
        # 2,000 seeded charts, half of them ending in the gadget.
        joins = []

        class Recording(ParityUnionFind):
            def union(self, a, b, rel):
                same = self.find(a)[0] == self.find(b)[0]
                ok = super().union(a, b, rel)
                joins.append((same, ok))
                return ok

        monkeypatch.setattr(charts, "ParityUnionFind", Recording)
        verdicts = [chart_orientable(c).orientable for c in _seeded_charts()]
        assert all(ok for _, ok in joins)
        # Both kinds of join occur: a cap closing one class into a curve,
        # and a cap joining two classes.
        assert {same for same, _ in joins} == {True, False}
        assert True in verdicts and False in verdicts

    def test_signs_are_constant_on_oracle_classes(self):
        # The classes carried along the sweep agree with the oracle's
        # union-find over every segment: each witness gives each oracle
        # class one sign up to parity, every white vertex reads an
        # admissible pattern, and with at most 8 classes the witness is
        # the least one that brute force over the classes finds.
        brute = 0
        for c in _seeded_charts():
            classes = sign_classes(c)
            assert classes is not None
            res = chart_orientable(c)
            if len(set(root for root, _ in classes.values())) <= 8:
                assert res.segment_signs == _least_signs_by_classes(c)
                brute += 1
            if not res.orientable:
                continue
            signs = res.segment_signs
            by_root = {}
            for seg, (root, par) in classes.items():
                value = -signs[seg] if par else signs[seg]
                assert by_root.setdefault(root, value) == value
            rec = sweep_record(c)
            for ev, (cons, prod) in zip(c.events, rec.event_io):
                if ev.kind == "white":
                    consumed = tuple(signs[s] for s in cons)
                    assert white_sign_patterns(*ev.labels).get(consumed) == tuple(signs[s] for s in prod)
        assert brute >= 500

    # Two charts on which the search backtracks past a decision, shrunk from
    # seeded random charts by cancelling event pairs while it still did.
    BACKTRACKING = {
        "orientable": (
            black(1, 0, True), black(1, 0, True), black(2, 2, True), cap(1, 0), black(2, 1, True),
            cap(2, 0), black(2, 0, True), black(2, 1, True), cup(1, 1), cup(1, 4), white(1, 2, 2),
            black(1, 4, True), cup(1, 6), white(2, 1, 0), black(1, 3, False), white(1, 2, 0),
            black(1, 1, False), white(2, 1, 1), black(1, 4, False), cap(1, 3), black(2, 2, False),
            cap(1, 1), black(2, 0, False),
        ),
        "nonorientable": (
            cup(1, 0), cup(1, 0), black(2, 3, True), black(1, 4, False), black(2, 1, True),
            white(1, 2, 0), white(1, 2, 1), black(2, 1, False), white(2, 1, 0), white(2, 1, 1),
            black(1, 1, False), white(1, 2, 0), white(2, 1, 0), black(1, 2, False),
            black(2, 1, False), black(1, 0, False),
        ),
    }

    @pytest.mark.parametrize("name", BACKTRACKING)
    def test_backtrack_past_a_decision(self, name):
        c = Chart(3, False, self.BACKTRACKING[name])
        assert validate_chart(c).valid
        res, backtracked = _runs_line(chart_orientable, "decisions.pop()", c)
        assert backtracked
        assert res.orientable == (name == "orientable")
        assert res.segment_signs == _least_signs_by_classes(c)
        if res.orientable:
            assert validate_chart(res.witness).valid
            assert forget_orientation(res.witness).events == c.events

    @pytest.mark.parametrize("insert", [True, False])
    def test_insert_is_read_on_black_vertices_only(self, insert):
        # ChartEvent takes insert on every kind, but only a black vertex
        # reads it: tagging each cup, cap, crossing and white vertex changes
        # no verdict and no sign.  The witness keeps every tagged cap,
        # crossing and white event as given, and gives each cup its sign
        # with insert=None.
        plain = [Chart(2, False, (cup(1, 0), cap(1, 0)))] + list(_seeded_charts()[:400])
        for c in plain:
            tagged = Chart(c.degree, False, tuple(
                ev if ev.kind == "black" else ChartEvent(ev.kind, ev.position, ev.labels, insert)
                for ev in c.events
            ))
            res, want = chart_orientable(tagged), chart_orientable(c)
            assert (res.orientable, res.segment_signs) == (want.orientable, want.segment_signs)
            if want.orientable:
                assert res.witness.events == tuple(
                    ev if ev.kind in ("cap", "crossing", "white") else w
                    for ev, w in zip(tagged.events, want.witness.events)
                )
                assert validate_chart(res.witness).valid


def _small_chart_with_whites(rng):
    while True:
        c = random_chart(rng.choice([3, 4]), rng.randrange(4, 9), rng, oriented=rng.random() < 0.5)
        if any(e.kind == "white" for e in c.events):
            return forget_orientation(c)


def _first_valid_signs(chart):
    """Brute force: the first segment sign assignment, in itertools.product
    order over the sorted segments, that every cup, cap, crossing and white
    vertex admits; None when there is none."""
    rec = sweep_record(chart)
    segs = sorted(rec.segment_label)
    for combo in itertools.product((1, -1), repeat=len(segs)):
        sign = dict(zip(segs, combo))
        ok = True
        for ev, (cons, prod) in zip(chart.events, rec.event_io):
            if ev.kind in ("cup", "cap"):
                a, b = prod if ev.kind == "cup" else cons
                ok = sign[a] == -sign[b]
            elif ev.kind == "crossing":
                ok = sign[prod[0]] == sign[cons[1]] and sign[prod[1]] == sign[cons[0]]
            elif ev.kind == "white":
                table = white_sign_patterns(*ev.labels)
                ok = table.get(tuple(sign[s] for s in cons)) == tuple(sign[s] for s in prod)
            if not ok:
                break
        if ok:
            return sign
    return None


@functools.lru_cache(maxsize=None)
def _seeded_charts():
    """1,000 seeded random unoriented charts of 8-32 events, each followed
    by its copy with the non-orientable gadget appended."""
    rng = random.Random(3600)
    out = []
    for _ in range(1000):
        c = random_chart(rng.choice([3, 4, 5]), rng.randrange(8, 33), rng)
        out += [c, Chart(c.degree, False, c.events + TestOrientability.NONORIENTABLE)]
    return tuple(out)


def _least_signs_by_classes(chart):
    """Brute force over the oracle's sign classes: the first choice of
    signs, in product order over the classes by least segment with + first,
    for which every white vertex reads an admissible pattern; the segment
    signs, or None when no choice is admissible.  Product order over the
    classes is lexicographic order over the segments."""
    classes = sign_classes(chart)
    rec = sweep_record(chart)
    least = {}  # root -> parity of its class's least segment
    for root, par in classes.values():
        least.setdefault(root, par)
    whites = [(ev.labels, cons, prod) for ev, (cons, prod) in zip(chart.events, rec.event_io)
              if ev.kind == "white"]
    for combo in itertools.product((1, -1), repeat=len(least)):
        value = dict(zip(least, combo))  # the sign of each class's least segment
        signs = {seg: value[root] if par == least[root] else -value[root]
                 for seg, (root, par) in classes.items()}
        if all(
            white_sign_patterns(*labels).get(tuple(signs[s] for s in cons)) == tuple(signs[s] for s in prod)
            for labels, cons, prod in whites
        ):
            return signs
    return None


def _runs_line(fn, marker, *args):
    """``fn(*args)``, and whether the one line of charts.py holding
    ``marker`` ran during the call (a line trace of that file alone)."""
    with open(charts.__file__) as f:
        targets = [k for k, line in enumerate(f, 1) if marker in line]
    assert len(targets) == 1, targets
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == targets[0]:
            hits.append(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == charts.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, bool(hits)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = random.Random(25)
        for oriented in (False, True):
            c = random_chart(3, 10, rng, oriented=oriented)
            data = chart_to_json(c)
            assert chart_from_json(data) == c

    def test_json_error(self):
        with pytest.raises(ChartError):
            chart_from_json({"degree": 3})

    @pytest.mark.parametrize("events", [("x",), [black(1, 0, True), None], (("black", 0, (1,), True),)], ids=repr)
    def test_events_must_be_chart_events(self, events):
        # A chart of other values used to pass, and validate_chart then
        # raised AttributeError on it.
        with pytest.raises(ChartError, match="is not a ChartEvent"):
            Chart(3, False, events)

    @pytest.mark.parametrize("oriented", [1, "no", 0, None], ids=repr)
    def test_oriented_must_be_a_bool(self, oriented):
        with pytest.raises(ChartError, match=re.escape(f"oriented must be true or false, got {oriented!r}")):
            Chart(2, oriented, ())

    @pytest.mark.parametrize("degree", [True, "3", 0, 17])
    def test_degree_is_checked(self, degree):
        with pytest.raises(ChartError, match="degree"):
            Chart(degree, False, ())

    @pytest.mark.parametrize("degree", ["x", 3.0, True])
    def test_json_degree_must_be_integer(self, degree):
        with pytest.raises(ChartError, match="degree"):
            chart_from_json({"degree": degree, "oriented": False, "events": []})

    @pytest.mark.parametrize(
        "top, first, field",
        [
            ({"oriented": "false"}, {}, "oriented"),
            ({"oriented": 0}, {}, "oriented"),
            ({"events": 5}, {}, "events"),
            ({}, {"position": "0"}, "position"),
            ({}, {"position": True}, "position"),
            ({}, {"labels": ["1"]}, "labels"),
            ({}, {"labels": [True]}, "labels"),
            ({}, {"insert": "yes"}, "insert"),
            ({}, {"sign": True}, "sign"),
            ({"events": [5]}, {}, "event 0: event must be an object"),
            ({}, {"labels": 1}, "event 0: event labels must be a list"),
        ],
        ids=["oriented-string", "oriented-int", "events-int", "position-string",
             "position-bool", "label-string", "label-bool", "insert-string", "sign-bool",
             "event-int", "labels-int"],
    )
    def test_json_fields_must_have_their_types(self, top, first, field):
        data = chart_to_json(two_vertex_chart())
        data["events"][0].update(first)
        data.update(top)
        with pytest.raises(ChartError, match=field):
            chart_from_json(data)

    def test_event_fields_must_have_their_types(self):
        with pytest.raises(ChartError, match="position"):
            black(1, 0.0, True)
        with pytest.raises(ChartError, match="labels"):
            white(1, "2", 0)
        with pytest.raises(ChartError, match="insert"):
            black(1, 0, 1)

    def test_dot_and_svg_emit(self):
        c = torus_chart()
        dot = chart_to_dot(c)
        assert dot.startswith("graph chart {") and dot.endswith("}")
        svg = chart_to_svg(c)
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_dot_output_is_pinned(self):
        # sha256 over the dot text of 200 seeded random charts, every other
        # one oriented, recorded while chart_to_dot still ran sweep_record.
        rng = random.Random(795)
        h = hashlib.sha256()
        for k in range(200):
            c = random_chart(rng.choice([2, 3, 4, 5]), rng.randrange(4, 80), rng, oriented=k % 2 == 1)
            h.update(chart_to_dot(c).encode())
        assert h.hexdigest() == "0ec4a7039ee0599a8c11778ce6c9a6ff082c2569cfeb2c52acc2e81a7bb055e6"

    def test_svg_draws_white_and_crossing_vertices(self):
        c = Chart(4, False, (
            black(1, 0, True), black(2, 1, True), black(1, 2, True),
            white(1, 2, 0), white(2, 1, 0), black(1, 2, False), black(2, 1, False),
            black(3, 1, True), crossing(1, 3, 0), crossing(3, 1, 0),
            black(3, 1, False), black(1, 0, False),
        ))
        assert validate_chart(c).valid
        svg = chart_to_svg(c)
        # 8 black dots and 2 white circles.  The white events draw their 3
        # strands and the crossings their 2 (10 lines); 8 strands pass by.
        assert svg.count("<circle") == 10
        assert svg.count('fill="white" stroke="black"') == 2
        assert svg.count("<line") == 18


# -- the sweep pinned on a seeded corpus ----------------------------------------


def _mutations(ev):
    """One-field changes of an event: label +-1, position +-1, insert and
    sign flipped, and the kind swapped for one of the same label count;
    a change that ChartEvent itself refuses is left out."""
    fields = []
    for k in range(len(ev.labels)):
        for step in (1, -1):
            labels = ev.labels[:k] + (ev.labels[k] + step,) + ev.labels[k + 1:]
            fields.append((ev.kind, ev.position, labels, ev.insert, ev.sign))
    for step in (1, -1):
        fields.append((ev.kind, ev.position + step, ev.labels, ev.insert, ev.sign))
    if ev.insert is not None:
        fields.append((ev.kind, ev.position, ev.labels, not ev.insert, ev.sign))
    if ev.sign is not None:
        fields.append((ev.kind, ev.position, ev.labels, ev.insert, -ev.sign))
    swapped = {"white": ("crossing", None), "crossing": ("white", None), "cup": ("black", True),
               "cap": ("black", False), "black": ("cup" if ev.insert else "cap", None)}[ev.kind]
    fields.append((swapped[0], ev.position, ev.labels, swapped[1], ev.sign))
    out = []
    for kind, position, labels, insert, sign in fields:
        try:
            out.append(ChartEvent(kind, position, labels, insert, sign))
        except ChartError:
            pass
    return out


def _sweep_corpus():
    """Seeded random charts, oriented and not, and the non-orientable chart,
    each followed by every chart that one mutation of one of its events makes."""
    bases = []
    for seed in range(60):
        rng = random.Random(3200 + seed)
        bases.append(random_chart(rng.choice([3, 4, 5]), rng.randrange(4, 32), rng, oriented=seed % 2 == 1))
    bases.append(Chart(3, False, TestOrientability.NONORIENTABLE))
    charts = []
    for c in bases:
        charts.append(c)
        for t, ev in enumerate(c.events):
            for new in _mutations(ev):
                charts.append(Chart(c.degree, c.oriented, c.events[:t] + (new,) + c.events[t + 1:]))
    return charts


def _raised(exc):
    return (type(exc).__name__, str(exc), exc.event_index)


def _record_view(c):
    try:
        rec = sweep_record(c)
    except ChartError as exc:
        return _raised(exc)
    return rec.words, rec.event_io, sorted(rec.segment_label.items())


def _report_view(c):
    report = validate_chart(c)
    return report.valid, report.error, report.event_index, report.black_count


def _system_view(c):
    try:
        return [repr(e) for e in chart_hurwitz_system(c).entries]
    except ChartError as exc:
        return _raised(exc)


def _orientation_view(c):
    if c.oriented:
        return None
    try:
        res = chart_orientable(c)
    except ChartError as exc:
        return _raised(exc)
    if not res.orientable:
        return res.witness, res.segment_signs
    events = [(e.kind, e.position, e.labels, e.insert, e.sign) for e in res.witness.events]
    return events, sorted(res.segment_signs.items())


SWEEP_VIEWS = {
    "sweep_record": _record_view,
    "validate_chart": _report_view,
    "chart_hurwitz_system": _system_view,
    "chart_orientable": _orientation_view,
}

# sha256 over the repr of each view of every chart of _sweep_corpus, recorded
# before the event rule ran inline in the sweep.
SWEEP_DIGESTS = {
    "sweep_record": "acc9f10879c8d2156675061ee927d484ba71b85797d82abb1d0e020dc965239c",
    "validate_chart": "64c9add185942365b308856c1b3b2c599ca51d04ed3155b5a11862ae5febc0dd",
    "chart_hurwitz_system": "d16ecda2d437752fd4e1c20800028dfda5e8b9dc91c250bd6fc8dbce434157a6",
    "chart_orientable": "3dfc16f764eebf1175ad8ae7399f65fc3a3bc0debfc8f53c0ba6b40f4af39809",
}


def test_sweep_corpus_mixes_valid_and_invalid_charts():
    charts = _sweep_corpus()
    valid = [c for c in charts if validate_chart(c).valid]
    assert (len(charts), len(valid)) == (5769, 357)
    assert any(c.oriented for c in valid) and any(not c.oriented for c in valid)
    assert any(not chart_orientable(c).orientable for c in valid if not c.oriented)


@pytest.mark.parametrize("view", SWEEP_DIGESTS)
def test_sweep_outputs_are_pinned(view):
    h = hashlib.sha256()
    for c in _sweep_corpus():
        h.update(repr(SWEEP_VIEWS[view](c)).encode())
    assert h.hexdigest() == SWEEP_DIGESTS[view]


def _four_strand_chart(oriented):
    """Events 0-3 give birth to four strands (1, 2, 1, 4) and events 4-7
    delete them; on the oriented chart they carry the signs (1, -1, 1, -1)."""
    strands = ((1, 1), (2, -1), (1, 1), (4, -1))
    births = tuple(black(lab, t, True, -sign if oriented else None) for t, (lab, sign) in enumerate(strands))
    deaths = (black(4, 3, False), black(1, 2, False), black(2, 1, False), black(1, 0, False))
    return Chart(5, oriented, births + deaths)


@pytest.mark.parametrize(
    "oriented, new_events, message",
    [
        (False, [black(5, 0, True)], "new event 0: label 5 out of range 1..4"),
        (False, [cup(2, 0), crossing(1, 2, 0)], "new event 1: crossing labels (1, 2) must differ by more than 1"),
        (False, [white(1, 3, 0)], "new event 0: white labels (1, 3) must be adjacent"),
        (False, [cap(1, 7)], "new event 0: position 7 out of range for word length 4"),
        (False, [black(2, 0, False)], "new event 0: strand at 0 has label 1, expected 2"),
        (False, [cap(1, 0)], "new event 0: cap labels (1, 2) do not match 1"),
        (False, [crossing(1, 4, 0)], "new event 0: strands at 0 are (1, 2), expected (1, 4)"),
        (False, [white(2, 1, 0)], "new event 0: strands at 0 are (1, 2, 1), expected (2, 1, 2)"),
        (False, [white(1, 2, 0), white(1, 2, 0)], "new event 1: strands at 0 are (2, 1, 2), expected (1, 2, 1)"),
        (True, [black(1, 0, True)], "new event 0: oriented black insert needs a sign"),
        (True, [black(1, 0, False, -1)], "new event 0: strand at 0 has sign 1, expected -1"),
        (True, [black(3, 4, True, 1), black(3, 5, True, 1), cap(3, 4)],
         "new event 2: cap needs opposite strand signs"),
        (True, [white(1, 2, 0)], "new event 0: sign pattern (1, -1, 1) not admissible at a white vertex"),
    ],
    ids=["label-range", "crossing-gap", "white-gap", "position", "black-label", "cap-labels",
         "crossing-strands", "white-strands", "second-event", "unsigned-insert", "black-sign",
         "cap-signs", "white-signs"],
)
def test_rewrite_errors_name_the_new_event(oriented, new_events, message):
    chart = _four_strand_chart(oriented)
    assert validate_chart(chart).valid
    with pytest.raises(MoveError) as info:
        _rewrite(chart, 4, 4, new_events)
    assert type(info.value) is MoveError
    assert str(info.value) == "move produces an invalid chart: " + message
    assert info.value.event_index is None
