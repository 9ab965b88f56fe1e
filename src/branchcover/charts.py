"""Slice-encoded permutation charts and braid charts.

A chart is presented by a generic horizontal sweep: the sweep line meets the
chart in a word of labeled strand points, and the chart is the ordered list of
events transforming that word, starting and ending empty (the chart closes up
in the sphere).  Event kinds and their effect on the word at ``position`` p:

  black    valency-1 vertex; inserts one strand (insert=True) or deletes the
           strand at p (insert=False); carries the branch point
  cup/cap  a strand minimum/maximum; inserts/removes two adjacent points of
           one edge (opposite signs when oriented)
  crossing valency-4 vertex; swaps adjacent strands labeled (i, j), |i-j| > 1
  white    valency-6 vertex; rewrites strands (i, j, i) -> (j, i, j),
           |i-j| = 1, realizing the defining relation of the label group

Unoriented charts induce permutation monodromies through i -> (i i+1);
oriented charts carry a sign per strand and induce braid monodromies through
i -> i-th generator.  At an oriented white vertex the six rotational
readings of the relator say two things: the consumed signs never alternate,
(s, -s, s), and the produced strands carry them reversed.

Monodromy convention: the base point sits at the end of the sweep; the
meridian entry of a black event with prefix word P and letter x is P x P^-1,
multiplied left to right like everything in this package.  In oriented
charts the black event's sign is the meridian exponent; the strand born by
an insertion carries the opposite sign in the word, which is exactly what
makes the entries of a closed sweep multiply to the identity.  Positions and
event indices are 0-based.

There is one sweep, ``_sweep``, and it holds the one event rule: it checks
each event against the live word and splices the event's strands in place.
Per event it yields the event, the live word before it, the consumed
strands, the produced (label, sign) strands and the first segment id of
the produced ones; validation and moves read just these.  Monodromy traces
each black event's two meridian points back through its prefix in the live
word (an oriented chart reads the prefix as a braid word).  Orientability
carries each segment's sign class forward, so one pass leaves only a clause
per white vertex to search.  ``sweep_record`` keeps a copy of every word,
with the segment ids and labels, for rendering and the test oracles.

Only ``chart_hurwitz_system`` needs the ``hurwitz`` module, and braids only
for an oriented chart; it imports them itself, so that validating, moving,
orienting or rendering a chart loads neither.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from ._unionfind import ParityUnionFind, UnionFind
from .permutations import (
    BRAID,
    PERMUTATION,
    _Value,
    _check_degree,
    _check_json_object,
    _exact_bool,
    _exact_int,
    _exact_ints,
    _exact_sign,
    _transposition,
)

if TYPE_CHECKING:
    from .hurwitz import HurwitzSystem

EVENT_KINDS = ("black", "white", "crossing", "cup", "cap")

# (consumed, produced) strand counts per kind; black depends on insert.
_ARITY = {"white": (3, 3), "crossing": (2, 2), "cup": (0, 2), "cap": (2, 0)}


class ChartError(ValueError):
    """Invalid chart; ``event_index`` names the offending event, if any."""

    def __init__(self, message: str, event_index: Optional[int] = None):
        if event_index is not None:
            message = f"event {event_index}: {message}"
        super().__init__(message)
        self.event_index = event_index


class MoveError(ChartError):
    pass


class SiteError(MoveError):
    pass


class ChartEvent(_Value):
    def __init__(
        self,
        kind: str,
        position: int,
        labels: tuple[int, ...],
        insert: Optional[bool] = None,  # black only
        sign: Optional[int] = None,  # oriented charts: black letter / cup upper twin
    ):
        if type(labels) is not tuple:
            labels = tuple(labels)
        if kind not in EVENT_KINDS:
            raise ChartError(f"unknown event kind {kind!r}")
        _exact_int(position, "position", 0, error=ChartError)
        _exact_ints(labels, "labels entry", 1, error=ChartError)
        if kind == "black" and insert is None:
            raise ChartError("black events need insert=True or insert=False")
        if insert is not None:
            _exact_bool(insert, "insert", ChartError)
        if sign is not None:
            _exact_sign(sign, "sign", ChartError)
        want = {"black": 1, "cup": 1, "cap": 1, "crossing": 2, "white": 2}[kind]
        if len(labels) != want:
            raise ChartError(f"{kind} event needs {want} label(s)")
        self.__dict__.update(kind=kind, position=position, labels=labels, insert=insert, sign=sign)

    def arity(self) -> tuple[int, int]:
        if self.kind == "black":
            return (0, 1) if self.insert else (1, 0)
        return _ARITY[self.kind]


_EVENT = frozenset({ChartEvent})


def _unchecked(
    kind: str, position: int, labels: tuple[int, ...], insert: Optional[bool], sign: Optional[int]
) -> ChartEvent:
    """A ChartEvent whose fields come from a checked event, with a sign of
    1 or -1; nothing is re-checked."""
    ev = object.__new__(ChartEvent)
    ev.__dict__.update(kind=kind, position=position, labels=labels, insert=insert, sign=sign)
    return ev


def black(label: int, position: int, insert: bool, sign: Optional[int] = None) -> ChartEvent:
    return ChartEvent("black", position, (label,), insert, sign)


def white(i: int, j: int, position: int) -> ChartEvent:
    return ChartEvent("white", position, (i, j))


def crossing(i: int, j: int, position: int) -> ChartEvent:
    return ChartEvent("crossing", position, (i, j))


def cup(label: int, position: int, sign: Optional[int] = None) -> ChartEvent:
    return ChartEvent("cup", position, (label,), sign=sign)


def cap(label: int, position: int) -> ChartEvent:
    return ChartEvent("cap", position, (label,))


class Chart(_Value):
    def __init__(self, degree: int, oriented: bool, events: tuple[ChartEvent, ...]):
        if type(events) is not tuple:
            events = tuple(events)
        _check_degree(degree, 2, ChartError)
        _exact_bool(oriented, "chart oriented", ChartError)
        if not _EVENT.issuperset(map(type, events)):
            k = next(k for k, ev in enumerate(events) if type(ev) is not ChartEvent)
            raise ChartError(f"a {type(events[k]).__name__} is not a ChartEvent", k)
        self.__dict__.update(degree=degree, oriented=oriented, events=events)

    def black_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "black")


Strand = tuple[int, int, int]  # (label, sign, segment id)


def _sweep(
    events: Sequence[ChartEvent], degree: int, oriented: bool, word: Optional[list[Strand]] = None
) -> Iterator[tuple[ChartEvent, list[Strand], tuple[Strand, ...], tuple, int]]:
    """The one event rule, run over the live word event by event.

    Yields (event, live word before it, consumed, produced, first segment id
    of produced) per event, then splices the produced strands, numbered from
    that id, into the word in place of the consumed ones.  ``consumed`` holds
    the strands under the event's window and ``produced`` the (label, sign)
    strands replacing them.  Unoriented sweeps carry sign 1 except on cups,
    which keep a declared sign.

    Raises ChartError with the index of the event whose labels, window or
    strands do not fit.  A sweep from the empty word must end empty; one
    started from ``word`` leaves its end to the caller.
    """
    closed = word is None
    if closed:
        word = []
    first = 0
    for idx, ev in enumerate(events):
        kind, labels, p = ev.kind, ev.labels, ev.position
        for lab in labels:
            if not 0 < lab < degree:
                raise ChartError(f"label {lab} out of range 1..{degree - 1}", idx)
        n = len(word)
        if kind == "black":
            lab = labels[0]
            if ev.insert:
                if p > n:
                    raise _window_error(p, n, idx)
                if not oriented:
                    sign = 1
                elif ev.sign is None:
                    raise ChartError("oriented black insert needs a sign", idx)
                else:
                    # The event sign is the meridian exponent; the strand it
                    # births crosses slices with the opposite sign (that is
                    # what makes the total monodromy of a closed sweep trivial).
                    sign = -ev.sign
                yield ev, word, (), ((lab, sign),), first
                word.insert(p, (lab, sign, first))
                first += 1
                continue
            if p >= n:
                raise _window_error(p, n, idx)
            got = word[p]
            if got[0] != lab:
                raise ChartError(f"strand at {p} has label {got[0]}, expected {lab}", idx)
            if oriented and ev.sign is not None and ev.sign != got[1]:
                raise ChartError(f"strand at {p} has sign {got[1]}, expected {ev.sign}", idx)
            yield ev, word, (got,), (), first
            del word[p]
        elif kind == "cup":
            if p > n:
                raise _window_error(p, n, idx)
            lab = labels[0]
            sign = 1 if ev.sign is None else ev.sign
            twin = -sign if oriented else sign
            yield ev, word, (), ((lab, sign), (lab, twin)), first
            word[p:p] = ((lab, sign, first), (lab, twin, first + 1))
            first += 2
        elif kind == "cap":
            if p > n - 2:
                raise _window_error(p, n, idx)
            lab = labels[0]
            a, b = word[p], word[p + 1]
            if a[0] != lab or b[0] != lab:
                raise ChartError(f"cap labels ({a[0]}, {b[0]}) do not match {lab}", idx)
            if oriented and a[1] != -b[1]:
                raise ChartError("cap needs opposite strand signs", idx)
            yield ev, word, (a, b), (), first
            del word[p : p + 2]
        elif kind == "crossing":
            i, j = labels
            if abs(i - j) <= 1:
                raise ChartError(f"crossing labels {labels} must differ by more than 1", idx)
            if p > n - 2:
                raise _window_error(p, n, idx)
            a, b = word[p], word[p + 1]
            if a[0] != i or b[0] != j:
                raise ChartError(f"strands at {p} are ({a[0]}, {b[0]}), expected ({i}, {j})", idx)
            yield ev, word, (a, b), ((j, b[1]), (i, a[1])), first
            word[p : p + 2] = ((j, b[1], first), (i, a[1], first + 1))
            first += 2
        else:  # white
            i, j = labels
            if abs(i - j) != 1:
                raise ChartError(f"white labels {labels} must be adjacent", idx)
            if p > n - 3:
                raise _window_error(p, n, idx)
            a, b, c = word[p], word[p + 1], word[p + 2]
            if a[0] != i or b[0] != j or c[0] != i:
                raise ChartError(f"strands at {p} are {(a[0], b[0], c[0])}, expected ({i}, {j}, {i})", idx)
            if not oriented:
                sa = sb = sc = 1
            elif a[1] == c[1] == -b[1]:
                raise ChartError(f"sign pattern {(a[1], b[1], c[1])} not admissible at a white vertex", idx)
            else:
                sa, sb, sc = a[1], b[1], c[1]
            yield ev, word, (a, b, c), ((j, sc), (i, sb), (j, sa)), first
            word[p : p + 3] = ((j, sc, first), (i, sb, first + 1), (j, sa, first + 2))
            first += 3
    if closed and word:
        raise ChartError(f"sweep ends with nonempty word {tuple((l, s) for l, s, _ in word)}", len(events))


def _window_error(p: int, n: int, idx: int) -> ChartError:
    return ChartError(f"position {p} out of range for word length {n}", idx)


class SweepRecord(_Value):
    """Snapshots of one sweep, for rendering and test oracles;
    ``sweep_record`` fills its lists and dict in place."""

    def __init__(
        self,
        words: list[tuple[Strand, ...]],  # words[t] before event t; words[-1] final
        event_io: list[tuple[tuple[int, ...], tuple[int, ...]]],  # segment ids in/out
        segment_label: dict[int, int],
    ):
        self.__dict__.update(words=words, event_io=event_io, segment_label=segment_label)


def sweep_record(chart: Chart) -> SweepRecord:
    """Run the sweep, validating every event; raises ChartError on violation."""
    record = SweepRecord([], [], {})
    for _, word, consumed, produced, first in _sweep(chart.events, chart.degree, chart.oriented):
        record.words.append(tuple(word))
        for seg, (lab, _) in enumerate(produced, first):
            record.segment_label[seg] = lab
        ids = tuple(range(first, first + len(produced)))
        record.event_io.append((tuple([s[2] for s in consumed]), ids))
    record.words.append(())
    return record


class ChartReport(_Value):
    def __init__(
        self,
        valid: bool,
        error: Optional[str] = None,
        event_index: Optional[int] = None,
        black_count: int = 0,
    ):
        self.__dict__.update(valid=valid, error=error, event_index=event_index, black_count=black_count)


def validate_chart(chart: Chart) -> ChartReport:
    """Check sweep validity and the per-event label constraints.

    Never raises; the report carries the first violation and its event index.
    """
    try:
        for _ in _sweep(chart.events, chart.degree, chart.oriented):
            pass
    except ChartError as exc:
        return ChartReport(False, str(exc), exc.event_index, 0)
    return ChartReport(True, None, None, chart.black_count())


def chart_hurwitz_system(chart: Chart) -> HurwitzSystem:
    """Meridian images of the black vertices, in sweep order."""
    from . import hurwitz

    d, oriented = chart.degree, chart.oriented
    if oriented:
        from .braids import BraidWord
    entries: list = []  # meridians, or the point pairs they swap
    # A black event's prefix P is the live word left of its position.
    for ev, word, consumed, _, _ in _sweep(chart.events, d, oriented):
        if ev.kind != "black":
            continue
        lab = ev.labels[0]
        if oriented:
            # Meridian exponent: the declared sign for an insertion, the
            # strand's own sign for a deletion (they agree when declared).
            if ev.insert:
                sign = ev.sign if ev.sign is not None else 1
            else:
                sign = consumed[0][1]
            pw = BraidWord(d, tuple([l * s for l, s, _ in islice(word, ev.position)]))
            entries.append(pw * BraidWord(d, (lab * sign,)) * pw.inverse())
        else:
            # pw (lab lab+1) pw^-1 swaps the points pw sends to lab and
            # lab+1; trace the two back through pw, last letter first.
            x, y, p = lab, lab + 1, ev.position
            for l, _, _ in word[p - 1 :: -1] if p else ():
                if l == x:
                    x += 1
                elif l == x - 1:
                    x = l
                if l == y:
                    y += 1
                elif l == y - 1:
                    y = l
            entries.append((x, y) if x < y else (y, x))
    if not oriented:
        transpositions = {pair: _transposition(d, *pair) for pair in set(entries)}
        entries = [transpositions[pair] for pair in entries]
    # The sweep checked every label, so the entries need no second check.
    return hurwitz._unchecked(d, tuple(entries), BRAID if oriented else PERMUTATION)


def forget_orientation(chart: Chart) -> Chart:
    """Strip all signs; a braid chart becomes a permutation chart."""
    events = tuple(ChartEvent(ev.kind, ev.position, ev.labels, ev.insert) for ev in chart.events)
    return Chart(chart.degree, False, events)


# -- chart moves ---------------------------------------------------------
#
# A chart move is a change inside a disk: it rewrites one window of events,
# start:end, and keeps the word after it (labels and signs when oriented,
# labels alone when not), so the events outside see the strands they saw
# before.  _rewrite is the one gate and refuses a move that changes that
# word.  Moves touching no black vertex keep the system equal on the nose;
# the monodromy-preservation property test is the ground truth for the rest.


def _event_index(value) -> int:
    """An event index of a move site; an exact int, not a bool or a float."""
    return _exact_int(value, "event index must be an integer, got {}", error=SiteError)


def _rewrite(chart: Chart, start: int, end: int, new_events: Sequence[ChartEvent]) -> Chart:
    """Replace events start:end by ``new_events``, keeping the word after them.

    The input is swept once, copying only the words before ``start`` and
    before ``end``; ``new_events`` are swept from the first and must end in
    the second.  Events outside the window then see the same word, so the
    output is valid without a second sweep.
    """
    n = len(chart.events)
    start, end = _event_index(start), _event_index(end)
    if not (0 <= start <= end <= n):
        raise MoveError(f"event slice {start}:{end} out of range for {n} events")
    degree, oriented = chart.degree, chart.oriented
    word, after = [], []  # two lists: new events splice into word; a closed sweep ends empty
    try:
        for t, (_, live, _, _, _) in enumerate(_sweep(chart.events, degree, oriented)):
            if t == start:
                word = list(live)
            if t == end:
                after = list(live)
    except ChartError as exc:
        raise MoveError(f"move needs a valid chart: {exc}") from None
    try:
        for _ in _sweep(new_events, degree, oriented, word):
            pass
    except ChartError as exc:  # "event k: ...", k counted in new_events
        raise MoveError(f"move produces an invalid chart: new {exc}") from None
    width = 2 if oriented else 1  # signs mean nothing on unoriented charts
    if [s[:width] for s in word] != [s[:width] for s in after]:
        raise MoveError("move changes the word after its window")
    events = chart.events[:start] + tuple(new_events) + chart.events[end:]
    return Chart(degree, oriented, events)


def _pair(chart: Chart, at: int) -> tuple[ChartEvent, ChartEvent]:
    if not (0 <= _event_index(at) < len(chart.events) - 1):
        raise MoveError("no event pair at this index")
    return chart.events[at], chart.events[at + 1]


def _cancel_pair(chart: Chart, at: int, kinds: tuple[str, str], name: str) -> Chart:
    """Remove events at, at+1 of the given kinds at one position.

    A valid input forces mirrored labels; _rewrite checks that the word
    after the pair is the word before it.
    """
    a, b = _pair(chart, at)
    if (a.kind, b.kind) != kinds or a.position != b.position:
        raise MoveError(f"events are not a cancelling {name} pair")
    return _rewrite(chart, at, at + 2, [])


def cup_cap_cancel(chart: Chart, at: int) -> Chart:
    """Remove an adjacent cup followed by the cap closing it at the same spot."""
    return _cancel_pair(chart, at, ("cup", "cap"), "cup/cap")


def cup_cap_insert(chart: Chart, at: int, position: int, label: int, sign: int = 1) -> Chart:
    """Insert a trivial circle: cup then cap at the same position; ``sign``
    (1 or -1) is the cup's upper twin's on an oriented chart."""
    _exact_sign(sign, "sign", MoveError)
    return _rewrite(
        chart, at, at,
        [cup(label, position, sign if chart.oriented else None), cap(label, position)],
    )


def white_pair_cancel(chart: Chart, at: int) -> Chart:
    """Remove a white vertex immediately undone by its mirror."""
    return _cancel_pair(chart, at, ("white", "white"), "white")


def white_pair_insert(chart: Chart, at: int, position: int, i: int, j: int) -> Chart:
    """Insert a white vertex and its mirror; needs strands (i, j, i) there."""
    return _rewrite(chart, at, at, [white(i, j, position), white(j, i, position)])


def crossing_pair_cancel(chart: Chart, at: int) -> Chart:
    return _cancel_pair(chart, at, ("crossing", "crossing"), "crossing")


def crossing_pair_insert(chart: Chart, at: int, position: int, i: int, j: int) -> Chart:
    return _rewrite(chart, at, at, [crossing(i, j, position), crossing(j, i, position)])


def event_swap(chart: Chart, at: int) -> Chart:
    """Reorder two consecutive events acting on disjoint strand windows."""
    a, b = _pair(chart, at)
    a_in, a_out = a.arity()
    b_in, b_out = b.arity()
    delta_a = a_out - a_in
    if b.position + b_in <= a.position:
        # b's window sits strictly left of a's.
        new_a = ChartEvent(a.kind, a.position + (b_out - b_in), a.labels, a.insert, a.sign)
        return _rewrite(chart, at, at + 2, [b, new_a])
    if b.position >= a.position + a_out:
        new_b = ChartEvent(b.kind, b.position - delta_a, b.labels, b.insert, b.sign)
        return _rewrite(chart, at, at + 2, [new_b, a])
    raise MoveError("event windows overlap; the pair cannot be reordered")


def black_through_crossing(chart: Chart, at: int) -> Chart:
    """Slide a black vertex between slots 0 and 1 of a crossing's window."""
    a, b = _pair(chart, at)
    if a.kind == "black" and a.insert and b.kind == "crossing":
        if a.position - b.position in (0, 1):
            moved = black(a.labels[0], 2 * b.position + 1 - a.position, a.insert, a.sign)
            return _rewrite(chart, at, at + 2, [moved])
    elif a.kind == "crossing" and b.kind == "black" and not b.insert:
        if b.position - a.position in (0, 1):
            moved = black(b.labels[0], 2 * a.position + 1 - b.position, b.insert, b.sign)
            return _rewrite(chart, at, at + 2, [moved])
    raise MoveError("events are not a black vertex passing through a crossing")


def black_into_white(chart: Chart, at: int) -> Chart:
    """Move a black vertex between slots 0 and 2 of a white window (label i <-> j)."""
    a, b = _pair(chart, at)
    if a.kind == "black" and a.insert and b.kind == "white":
        if a.position - b.position in (0, 2):
            position = 2 * b.position + 2 - a.position
            moved = black(b.labels[1], position, a.insert, a.sign)
            return _rewrite(chart, at, at + 2, [moved])
    elif a.kind == "white" and b.kind == "black" and not b.insert:
        if b.position - a.position in (0, 2):
            position = 2 * a.position + 2 - b.position
            moved = black(a.labels[0], position, b.insert, b.sign)
            return _rewrite(chart, at, at + 2, [moved])
    raise MoveError("events are not a black vertex meeting a white vertex")


def patch_rewrite(chart: Chart, start: int, end: int, replacement: Sequence[ChartEvent]) -> Chart:
    """Replace a black-free event slice by another with the same word effect.

    This is the in-a-disk rewriting move: because no branch point is touched
    and the boundary word is preserved, the monodromy is unchanged exactly.
    """
    if any(ev.kind == "black" for ev in chart.events[_event_index(start) : _event_index(end)]):
        raise MoveError("patch may not contain black vertices")
    if any(ev.kind == "black" for ev in replacement):
        raise MoveError("replacement may not contain black vertices")
    return _rewrite(chart, start, end, replacement)


MOVES: dict[str, Callable] = {
    "cup-cap-cancel": cup_cap_cancel,
    "cup-cap-insert": cup_cap_insert,
    "white-cancel": white_pair_cancel,
    "white-insert": white_pair_insert,
    "crossing-cancel": crossing_pair_cancel,
    "crossing-insert": crossing_pair_insert,
    "swap": event_swap,
    "black-through-crossing": black_through_crossing,
    "black-into-white": black_into_white,
}


def apply_chart_move(chart: Chart, move: str, **site) -> Chart:
    """Apply a named move at a site given by keyword arguments.

    Raises MoveError when the move does not exist or does not apply there,
    and its subclass SiteError when the site's keys do not fit the move.  The
    keys are bound only after a TypeError (binding costs a tenth of a move,
    and ``inspect`` is imported only then); if they bind, the TypeError came
    from inside the move and propagates.
    """
    try:
        fn = MOVES[move]
    except KeyError:
        raise MoveError(f"unknown move {move!r}; known: {sorted(MOVES)}") from None
    try:
        return fn(chart, **site)
    except TypeError:
        import inspect

        signature = inspect.signature(fn)
        try:
            signature.bind(chart, **site)
        except TypeError:
            keys = ", ".join(list(signature.parameters)[1:])
            raise SiteError(f"move {move} takes site keys {keys}; got {sorted(site)}") from None
        raise


# -- orientability -------------------------------------------------------


class OrientationResult(_Value):
    def __init__(
        self,
        orientable: bool,
        witness: Optional[Chart] = None,
        segment_signs: Optional[dict[int, int]] = None,
    ):
        self.__dict__.update(orientable=orientable, witness=witness, segment_signs=segment_signs)


def chart_orientable(chart: Chart) -> OrientationResult:
    """Search for strand signs turning an unoriented chart into a braid chart.

    Crossings and white vertices hand each consumed sign to the produced
    strand that mirrors it; cups and caps give their twins opposite signs.
    So the segments fall into sign classes, carried along the sweep: a black
    insertion opens one, a cup one for both twins (parities 0 and 1), and
    only a cap joins two.  That join never contradicts.  A class turns back
    in sweep time only at cups (minima) and caps (maxima), each turn flipping
    the parity, and a closed curve has as many minima as maxima.  So a cap
    closing a class on itself closes an even number of turns, its own
    included, and its twins already have opposite parity.

    Each white vertex adds one clause: its consumed signs (x0, x1, x2) never
    alternate, that is NAE(x0, -x1, x2).  The classes are linked through
    shared clauses, and each linked component is decided on its own: a
    class that no clause touches gives its least segment +1 without
    branching, and the classes of a component are searched in least-segment
    order, + before -.  Assigning a class re-checks only the clauses it
    touches: three equal literals are a contradiction, and two equal ones
    force the third to the opposite value (unit propagation); a trail
    undoes both on backtracking.

    Propagation removes only partial assignments that no valid assignment
    extends, so each component's first solution is its lexicographically
    least one.  Components share no constraint, so their least solutions
    together are the least witness of the whole chart (by segment id, +
    before -); a component without a solution is a certified negative.

    The worst case stays exponential: parity constraints with NAE-3 clauses
    are NP-complete as a constraint language (Schaefer 1978).  Planar
    NAE-3SAT is polynomial (Moret 1988), but strands pass through crossings,
    so the clause graph of a chart need not be planar.
    """
    if chart.oriented:
        raise ChartError("chart is already oriented")
    # cls[seg] is (class, parity), one entry per segment in sweep order.
    cls: list[tuple[int, int]] = []
    deciding: list[int] = []  # the segment a black vertex or cup takes its sign from
    clauses = []  # the consumed (class, parity) of each white vertex
    classes = ParityUnionFind()
    for ev, _, consumed, _, first in _sweep(chart.events, chart.degree, False):
        kind = ev.kind
        deciding.append(consumed[0][2] if kind == "black" and not ev.insert else first)
        if kind == "crossing":
            a, b = consumed
            cls += (cls[b[2]], cls[a[2]])
        elif kind == "white":
            a, b, c = [cls[s[2]] for s in consumed]
            cls += (c, b, a)
            clauses.append((a, b, c))
        elif kind == "cap":
            (ca, pa), (cb, pb) = [cls[s[2]] for s in consumed]
            classes.union(ca, cb, pa ^ pb ^ 1)  # never contradicts, as the docstring shows
        elif kind == "cup":
            cls += ((first, 0), (first, 1))
        elif ev.insert:
            cls.append((first, 0))

    # roots: (root, parity) per class, in least-segment order; preferred:
    # the sign of each root that gives the least segment of its classes +1.
    roots, preferred = dict.fromkeys(c for c, _ in cls), {}
    for c in roots:
        root, par = roots[c] = classes.find(c)
        preferred.setdefault(root, -1 if par else 1)

    # Each clause reads its consumed segments as (class root, literal flip);
    # the middle flip is negated, so the literals must not all be equal.
    touching: dict[int, list[list[tuple[int, int]]]] = {}
    links = UnionFind()
    for literals in clauses:
        clause = []
        for (c, p), negate in zip(literals, (1, -1, 1)):
            root, par = roots[c]
            clause.append((root, -negate if par ^ p else negate))
        for root in dict.fromkeys(root for root, _ in clause):
            touching.setdefault(root, []).append(clause)
            links.union(clause[0][0], root)

    sign: dict[int, int] = {}
    trail: list[int] = []

    def assign(root: int, value: int) -> bool:
        """Set a root and everything it forces; False on a contradiction."""
        queue = [(root, value)]
        while queue:
            root, value = queue.pop()
            have = sign.get(root)
            if have is not None:
                if have != value:
                    return False
                continue
            sign[root] = value
            trail.append(root)
            for clause in touching[root]:
                # An unset literal reads 0, so three equal literals sum to
                # +-3 and two equal ones beside an unset one to +-2.
                literals = [sign.get(r, 0) * f for r, f in clause]
                total = sum(literals)
                if abs(total) == 3:
                    return False
                if abs(total) == 2:
                    r, f = clause[literals.index(0)]
                    queue.append((r, -total // 2 * f))
        return True

    def undo(mark: int) -> None:
        for root in trail[mark:]:
            del sign[root]
        del trail[mark:]

    def solve(order: list[int]) -> bool:
        """Depth-first search over ``order``, keeping the first solution."""
        decisions: list[tuple[int, int, int]] = []  # (index, trail mark, value)
        k, value = 0, 0
        while True:
            if not value:  # next unassigned root, preferred sign first
                while k < len(order) and order[k] in sign:
                    k += 1
                if k == len(order):
                    return True
                value = preferred[order[k]]
            mark = len(trail)
            if assign(order[k], value):
                decisions.append((k, mark, value))
                value = 0
                continue
            undo(mark)
            while value != preferred[order[k]]:  # both signs failed here
                if not decisions:
                    return False
                k, mark, value = decisions.pop()
                undo(mark)
            value = -value

    components: dict[int, list[int]] = {}
    for root in preferred:
        if root in touching:
            components.setdefault(links.find(root), []).append(root)
        else:
            sign[root] = preferred[root]
    if not all(solve(order) for order in components.values()):
        return OrientationResult(False)

    class_sign = {c: -sign[root] if par else sign[root] for c, (root, par) in roots.items()}
    signs = {seg: -class_sign[c] if p else class_sign[c] for seg, (c, p) in enumerate(cls)}
    # Each black event takes the meridian exponent its strand's sign gives
    # (an inserted strand carries the opposite sign); each cup its upper twin's.
    events = []
    for ev, seg in zip(chart.events, deciding):
        kind = ev.kind
        if kind == "black":
            s = -signs[seg] if ev.insert else signs[seg]
            ev = _unchecked(kind, ev.position, ev.labels, ev.insert, s)
        elif kind == "cup":
            ev = _unchecked(kind, ev.position, ev.labels, None, signs[seg])
        events.append(ev)
    return OrientationResult(True, Chart(chart.degree, True, tuple(events)), signs)


# -- serialization and rendering ------------------------------------------


def chart_to_json(chart: Chart) -> dict:
    events = []
    for ev in chart.events:
        item: dict = {"kind": ev.kind, "position": ev.position, "labels": list(ev.labels)}
        if ev.insert is not None:
            item["insert"] = ev.insert
        if ev.sign is not None:
            item["sign"] = ev.sign
        events.append(item)
    return {"degree": chart.degree, "oriented": chart.oriented, "events": events}


def chart_from_json(data: dict) -> Chart:
    _check_json_object(data, "chart", ChartError)
    try:
        degree = data["degree"]
        oriented = data["oriented"]
        raw = data["events"]
    except KeyError as exc:
        raise ChartError(f"chart file needs degree/oriented/events: {exc}") from exc
    if type(raw) is not list:
        raise ChartError(f"chart events must be a list, got {raw!r}")
    events = []
    for k, item in enumerate(raw):
        try:
            if type(item) is not dict:
                raise ChartError(f"event must be an object, got {item!r}")
            if type(item.get("labels")) is not list:
                raise ChartError(f"event labels must be a list, got {item.get('labels')!r}")
            events.append(
                ChartEvent(
                    item["kind"],
                    item["position"],
                    tuple(item["labels"]),
                    item.get("insert"),
                    item.get("sign"),
                )
            )
        except (KeyError, TypeError, ChartError) as exc:
            raise ChartError(str(exc), k) from exc
    return Chart(degree, oriented, tuple(events))


def chart_to_dot(chart: Chart) -> str:
    """The chart graph: vertices (black/white/crossing) and its labeled edges."""
    lines = ["graph chart {", "  node [fontsize=10];"]
    counter = {"black": 0, "white": 0, "crossing": 0}
    segment_label: dict[int, int] = {}
    seg_ends: dict[int, list[str]] = {}
    # An edge is a chain of segments joined at cups and caps; it is named by
    # the root its unions leave, in sweep order.
    twins = UnionFind()
    for ev, _, consumed, produced, first in _sweep(chart.events, chart.degree, chart.oriented):
        prod = range(first, first + len(produced))
        for seg, (lab, _) in zip(prod, produced):
            segment_label[seg] = lab
            seg_ends[seg] = []
        if ev.kind == "cup":
            twins.union(*prod)
        elif ev.kind == "cap":
            twins.union(consumed[0][2], consumed[1][2])
        else:
            counter[ev.kind] += 1
            name = f"{ev.kind[0]}{counter[ev.kind]}"
            shape = {"black": "point", "white": "circle", "crossing": "diamond"}[ev.kind]
            label = "" if ev.kind == "black" else ev.kind[0].upper()
            lines.append(f'  {name} [shape={shape}, label="{label}"];')
            for _, _, seg in consumed:
                seg_ends[seg].append(name)
            for seg in prod:
                seg_ends[seg].append(name)
    by_edge: dict[int, list[int]] = {}
    for seg in sorted(segment_label):
        by_edge.setdefault(twins.find(seg), []).append(seg)
    for edge_id, segs in sorted(by_edge.items()):
        ends = [v for seg in segs for v in seg_ends[seg]]
        lab = segment_label[segs[0]]
        if len(ends) == 2:
            lines.append(f'  {ends[0]} -- {ends[1]} [label="{lab}"];')
        elif len(ends) == 1:
            lines.append(f'  {ends[0]} -- {ends[0]} [label="{lab}"];')
        elif not ends:
            lines.append(f'  free{edge_id} [shape=plaintext, label="O{lab}"];')
    lines.append("}")
    return "\n".join(lines)


_SVG_CELL = 36  # pixels per event step and per strand position
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def chart_to_svg(chart: Chart) -> str:
    """Sweep picture: time runs right, strand positions run up."""
    record = sweep_record(chart)
    width = (len(chart.events) + 2) * _SVG_CELL
    height = (max((len(w) for w in record.words), default=0) + 2) * _SVG_CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    def xy(t: int, pos: int) -> tuple[int, int]:
        return (t + 1) * _SVG_CELL, height - (pos + 1) * _SVG_CELL - _SVG_CELL // 2

    # Strand polylines per slice transition.
    for t, word in enumerate(record.words[:-1]):
        ev = chart.events[t]
        p = ev.position
        n_in, n_out = ev.arity()
        delta = n_out - n_in
        for pos, (lab, sign, seg) in enumerate(word):
            color = _PALETTE[(lab - 1) % len(_PALETTE)]
            if p <= pos < p + n_in:
                continue  # consumed strands drawn as event geometry
            npos = pos + (delta if pos >= p + n_in else 0)
            x1, y1 = xy(t, pos)
            x2, y2 = xy(t + 1, npos)
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        color = _PALETTE[(ev.labels[0] - 1) % len(_PALETTE)]
        mid_x = xy(t, p)[0] + _SVG_CELL // 2
        if ev.kind == "black":
            bx, by = (xy(t + 1, p) if ev.insert else xy(t, p))
            parts.append(f'<circle cx="{bx}" cy="{by}" r="4" fill="black"/>')
        elif ev.kind in ("white", "crossing"):
            for k in range(n_in):
                x1, y1 = xy(t, p + k)
                x2, y2 = xy(t + 1, p + (n_in - 1 - k))
                c = _PALETTE[(word[p + k][0] - 1) % len(_PALETTE)]
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{c}" stroke-width="2"/>'
                )
            cy = (xy(t, p)[1] + xy(t, p + n_in - 1)[1]) // 2
            if ev.kind == "white":
                parts.append(
                    f'<circle cx="{mid_x}" cy="{cy}" r="5" fill="white" stroke="black"/>'
                )
        elif ev.kind == "cup":
            x2, y2 = xy(t + 1, p)
            x3, y3 = xy(t + 1, p + 1)
            parts.append(
                f'<path d="M {x2} {y2} C {x2 - _SVG_CELL} {y2}, {x3 - _SVG_CELL} {y3}, {x3} {y3}" '
                f'fill="none" stroke="{color}" stroke-width="2"/>'
            )
        elif ev.kind == "cap":
            x1, y1 = xy(t, p)
            x2, y2 = xy(t, p + 1)
            parts.append(
                f'<path d="M {x1} {y1} C {x1 + _SVG_CELL} {y1}, {x2 + _SVG_CELL} {y2}, {x2} {y2}" '
                f'fill="none" stroke="{color}" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
