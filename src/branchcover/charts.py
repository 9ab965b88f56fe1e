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
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from typing import Callable, Optional, Sequence

from . import permutations
from ._unionfind import ParityUnionFind, UnionFind
from .braids import BraidWord
from .hurwitz import BRAID, PERMUTATION, HurwitzSystem
from .permutations import Permutation

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


@dataclasses.dataclass(frozen=True)
class ChartEvent:
    kind: str
    position: int
    labels: tuple[int, ...]
    insert: Optional[bool] = None  # black only
    sign: Optional[int] = None  # oriented charts: black letter / cup upper twin

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ChartError(f"unknown event kind {self.kind!r}")
        # type() rather than isinstance(): bool is an int subclass.
        if any(type(n) is not int for n in (self.position, *self.labels)):
            raise ChartError(f"position/labels must be integers: {self.position!r} {self.labels}")
        if self.kind == "black" and self.insert is None:
            raise ChartError("black events need insert=True or insert=False")
        if self.insert is not None and type(self.insert) is not bool:
            raise ChartError(f"insert must be true or false, got {self.insert!r}")
        if self.sign is not None and (type(self.sign) is not int or self.sign not in (1, -1)):
            raise ChartError(f"sign must be +1 or -1, got {self.sign!r}")
        want = {"black": 1, "cup": 1, "cap": 1, "crossing": 2, "white": 2}[self.kind]
        if len(self.labels) != want:
            raise ChartError(f"{self.kind} event needs {want} label(s)")

    def arity(self) -> tuple[int, int]:
        if self.kind == "black":
            return (0, 1) if self.insert else (1, 0)
        return _ARITY[self.kind]


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


@dataclasses.dataclass(frozen=True)
class Chart:
    degree: int
    oriented: bool
    events: tuple[ChartEvent, ...]

    def __post_init__(self):
        if type(self.events) is not tuple:
            object.__setattr__(self, "events", tuple(self.events))
        try:
            permutations._check_degree(self.degree, 2)
        except ValueError as exc:
            raise ChartError(f"chart {exc}") from None

    def black_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "black")


Strand = tuple[int, int, int]  # (label, sign, segment id)


def _produced(
    ev: ChartEvent, word: Sequence[Sequence[int]], degree: int, oriented: bool
) -> tuple[Sequence[Sequence[int]], tuple[tuple[int, int], ...]]:
    """The one event rule: apply ``ev`` to ``word``, return (consumed, produced).

    ``word`` holds strands read as (label, sign, ...); ``consumed`` is the
    slice under the event's window, ``produced`` the (label, sign) strands
    replacing it.  Raises ChartError, without an event index, when the
    labels, the window or the strands do not fit.  Unoriented sweeps carry
    sign 1 except on cups, which keep a declared sign.
    """
    kind = ev.kind
    for lab in ev.labels:
        if not 1 <= lab < degree:
            raise ChartError(f"label {lab} out of range 1..{degree - 1}")
    if kind == "black":
        n_in = 0 if ev.insert else 1
    else:
        n_in = _ARITY[kind][0]
        if kind == "crossing" and abs(ev.labels[0] - ev.labels[1]) <= 1:
            raise ChartError(f"crossing labels {ev.labels} must differ by more than 1")
        if kind == "white" and abs(ev.labels[0] - ev.labels[1]) != 1:
            raise ChartError(f"white labels {ev.labels} must be adjacent")
    p = ev.position
    if not 0 <= p <= len(word) - n_in:
        raise ChartError(f"position {p} out of range for word length {len(word)}")
    consumed = word[p : p + n_in]
    if kind == "black":
        lab = ev.labels[0]
        if ev.insert:
            if not oriented:
                return consumed, ((lab, 1),)
            if ev.sign is None:
                raise ChartError("oriented black insert needs a sign")
            # The event sign is the meridian exponent; the strand it births
            # crosses slices with the opposite sign (that is what makes the
            # total monodromy of a closed sweep trivial).
            return consumed, ((lab, -ev.sign),)
        got = consumed[0]
        if got[0] != lab:
            raise ChartError(f"strand at {p} has label {got[0]}, expected {lab}")
        if oriented and ev.sign is not None and ev.sign != got[1]:
            raise ChartError(f"strand at {p} has sign {got[1]}, expected {ev.sign}")
        return consumed, ()
    if kind == "cup":
        lab = ev.labels[0]
        sign = 1 if ev.sign is None else ev.sign
        return consumed, ((lab, sign), (lab, -sign if oriented else sign))
    if kind == "cap":
        lab = ev.labels[0]
        a, b = consumed
        if a[0] != lab or b[0] != lab:
            raise ChartError(f"cap labels ({a[0]}, {b[0]}) do not match {lab}")
        if oriented and a[1] != -b[1]:
            raise ChartError("cap needs opposite strand signs")
        return consumed, ()
    i, j = ev.labels
    if kind == "crossing":
        a, b = consumed
        if a[0] != i or b[0] != j:
            raise ChartError(f"strands at {p} are ({a[0]}, {b[0]}), expected ({i}, {j})")
        return consumed, ((j, b[1]), (i, a[1]))
    a, b, c = consumed
    labs = (a[0], b[0], c[0])
    if labs != (i, j, i):
        raise ChartError(f"strands at {p} are {labs}, expected ({i}, {j}, {i})")
    if not oriented:
        return consumed, ((j, 1), (i, 1), (j, 1))
    if a[1] == c[1] == -b[1]:
        raise ChartError(f"sign pattern {(a[1], b[1], c[1])} not admissible at a white vertex")
    return consumed, ((j, c[1]), (i, b[1]), (j, a[1]))


@dataclasses.dataclass
class SweepRecord:
    """Strand bookkeeping of one sweep, shared by the chart algorithms."""

    words: list[tuple[Strand, ...]]  # words[t] before event t; words[-1] final
    event_io: list[tuple[tuple[int, ...], tuple[int, ...]]]  # segment ids in/out
    segment_label: dict[int, int]


def sweep_record(chart: Chart) -> SweepRecord:
    """Run the sweep, validating every event; raises ChartError on violation."""
    word: list[Strand] = []
    record = SweepRecord([], [], {})
    segment_label = record.segment_label

    for idx, ev in enumerate(chart.events):
        record.words.append(tuple(word))
        try:
            consumed, produced = _produced(ev, word, chart.degree, chart.oriented)
        except ChartError as exc:
            raise ChartError(str(exc), idx) from None
        first = len(segment_label)
        strands = [(lab, sign, first + k) for k, (lab, sign) in enumerate(produced)]
        for lab, _, seg in strands:
            segment_label[seg] = lab
        word[ev.position : ev.position + len(consumed)] = strands
        record.event_io.append(
            (tuple(s[2] for s in consumed), tuple(range(first, first + len(strands))))
        )

    if word:
        raise ChartError(
            f"sweep ends with nonempty word {tuple((l, s) for l, s, _ in word)}",
            len(chart.events),
        )
    record.words.append(())
    return record


@dataclasses.dataclass(frozen=True)
class ChartReport:
    valid: bool
    error: Optional[str] = None
    event_index: Optional[int] = None
    black_count: int = 0


def validate_chart(chart: Chart) -> ChartReport:
    """Check sweep validity and the per-event label constraints.

    Never raises; the report carries the first violation and its event index.
    """
    try:
        sweep_record(chart)
    except ChartError as exc:
        return ChartReport(False, str(exc), exc.event_index, 0)
    return ChartReport(True, None, None, chart.black_count())


def chart_hurwitz_system(chart: Chart) -> HurwitzSystem:
    """Meridian images of the black vertices, in sweep order."""
    d = chart.degree
    entries: list = []
    record = sweep_record(chart)
    for ev, word in zip(chart.events, record.words):
        if ev.kind != "black":
            continue
        p = ev.position
        prefix = word[:p]
        lab = ev.labels[0]
        if chart.oriented:
            # Meridian exponent: the declared sign for an insertion, the
            # strand's own sign for a deletion (they agree when declared).
            if ev.insert:
                sign = ev.sign if ev.sign is not None else 1
            else:
                sign = word[p][1]
            pw = BraidWord(d, tuple(l * s for l, s, _ in prefix))
            entries.append(pw * BraidWord(d, (lab * sign,)) * pw.inverse())
        else:
            # pw (lab lab+1) pw^-1 swaps the points pw sends to lab and lab+1;
            # at[k] is the point pw sends to k + 1.
            at = list(range(1, d + 1))
            for l, _, _ in prefix:
                at[l - 1], at[l] = at[l], at[l - 1]
            entries.append(Permutation.transposition(d, at[lab - 1], at[lab]))
    flavor = BRAID if chart.oriented else PERMUTATION
    return HurwitzSystem(d, tuple(entries), flavor)


def forget_orientation(chart: Chart) -> Chart:
    """Strip all signs; a braid chart becomes a permutation chart."""
    events = tuple(
        dataclasses.replace(ev, sign=None) for ev in chart.events
    )
    return Chart(chart.degree, False, events)


# -- chart moves ---------------------------------------------------------
#
# A chart move is a change inside a disk: it rewrites one window of events,
# start:end, and keeps the word after it (labels and signs when oriented,
# labels alone when not), so the events outside see the strands they saw
# before.  _rewrite is the one gate and refuses a move that changes that
# word.  Moves touching no black vertex keep the system equal on the nose;
# the monodromy-preservation property test is the ground truth for the rest.


def _rewrite(chart: Chart, start: int, end: int, new_events: Sequence[ChartEvent]) -> Chart:
    """Replace events start:end by ``new_events``, keeping the word after them.

    The input is swept once; ``new_events`` run through ``_produced`` from
    the word before the window and must end in the word after it.  Events
    outside the window then see the same word, so the output is valid
    without a second sweep.
    """
    n = len(chart.events)
    if not (0 <= start <= end <= n):
        raise MoveError(f"event slice {start}:{end} out of range for {n} events")
    try:
        words = sweep_record(chart).words
    except ChartError as exc:
        raise MoveError(f"move needs a valid chart: {exc}") from None
    word = list(words[start])
    for k, ev in enumerate(new_events):
        try:
            consumed, produced = _produced(ev, word, chart.degree, chart.oriented)
        except ChartError as exc:
            raise MoveError(f"move produces an invalid chart: new event {k}: {exc}") from None
        word[ev.position : ev.position + len(consumed)] = produced
    width = 2 if chart.oriented else 1  # signs mean nothing on unoriented charts
    if [s[:width] for s in word] != [s[:width] for s in words[end]]:
        raise MoveError("move changes the word after its window")
    events = chart.events[:start] + tuple(new_events) + chart.events[end:]
    return Chart(chart.degree, chart.oriented, events)


def _pair(chart: Chart, at: int) -> tuple[ChartEvent, ChartEvent]:
    if not (0 <= at < len(chart.events) - 1):
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
    """Insert a trivial circle: cup then cap at the same position."""
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
        new_a = dataclasses.replace(a, position=a.position + (b_out - b_in))
        return _rewrite(chart, at, at + 2, [b, new_a])
    if b.position >= a.position + a_out:
        new_b = dataclasses.replace(b, position=b.position - delta_a)
        return _rewrite(chart, at, at + 2, [new_b, a])
    raise MoveError("event windows overlap; the pair cannot be reordered")


def black_through_crossing(chart: Chart, at: int) -> Chart:
    """Slide a black vertex between slots 0 and 1 of a crossing's window."""
    a, b = _pair(chart, at)
    if a.kind == "black" and a.insert and b.kind == "crossing":
        if a.position - b.position in (0, 1):
            moved = dataclasses.replace(a, position=2 * b.position + 1 - a.position)
            return _rewrite(chart, at, at + 2, [moved])
    elif a.kind == "crossing" and b.kind == "black" and not b.insert:
        if b.position - a.position in (0, 1):
            moved = dataclasses.replace(b, position=2 * a.position + 1 - b.position)
            return _rewrite(chart, at, at + 2, [moved])
    raise MoveError("events are not a black vertex passing through a crossing")


def black_into_white(chart: Chart, at: int) -> Chart:
    """Move a black vertex between slots 0 and 2 of a white window (label i <-> j)."""
    a, b = _pair(chart, at)
    if a.kind == "black" and a.insert and b.kind == "white":
        if a.position - b.position in (0, 2):
            position = 2 * b.position + 2 - a.position
            moved = dataclasses.replace(a, labels=(b.labels[1],), position=position)
            return _rewrite(chart, at, at + 2, [moved])
    elif a.kind == "white" and b.kind == "black" and not b.insert:
        if b.position - a.position in (0, 2):
            position = 2 * a.position + 2 - b.position
            moved = dataclasses.replace(b, labels=(a.labels[0],), position=position)
            return _rewrite(chart, at, at + 2, [moved])
    raise MoveError("events are not a black vertex meeting a white vertex")


def patch_rewrite(chart: Chart, start: int, end: int, replacement: Sequence[ChartEvent]) -> Chart:
    """Replace a black-free event slice by another with the same word effect.

    This is the in-a-disk rewriting move: because no branch point is touched
    and the boundary word is preserved, the monodromy is unchanged exactly.
    """
    if any(ev.kind == "black" for ev in chart.events[start:end]):
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
    keys are bound only after a TypeError (binding costs a tenth of a move);
    if they bind, the TypeError came from inside the move and propagates.
    """
    try:
        fn = MOVES[move]
    except KeyError:
        raise MoveError(f"unknown move {move!r}; known: {sorted(MOVES)}") from None
    try:
        return fn(chart, **site)
    except TypeError:
        signature = inspect.signature(fn)
        try:
            signature.bind(chart, **site)
        except TypeError:
            keys = ", ".join(list(signature.parameters)[1:])
            raise SiteError(f"move {move} takes site keys {keys}; got {sorted(site)}") from None
        raise


# -- orientability -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class OrientationResult:
    orientable: bool
    witness: Optional[Chart] = None
    segment_signs: Optional[dict[int, int]] = None


def chart_orientable(chart: Chart) -> OrientationResult:
    """Search for strand signs turning an unoriented chart into a braid chart.

    Cups and caps give their twins opposite signs; crossings and white
    vertices hand each consumed sign to the produced strand that mirrors it.
    So the segments fall into sign classes (a parity union-find), and an odd
    cycle of these relations is a certified negative.  Each white vertex
    adds one clause: its consumed signs (x0, x1, x2) never alternate, that
    is NAE(x0, -x1, x2).  The classes are linked through shared clauses,
    and each linked component is decided on its own: a class that no clause
    touches gives its least segment +1 without branching, and the classes
    of a component are searched in least-segment order, + before -.
    Assigning a class re-checks only the clauses it touches: three equal
    literals are a contradiction, and two equal ones force the third to the
    opposite value (unit propagation); a trail undoes both on backtracking.

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
    record = sweep_record(chart)

    # Sign classes: parity 1 between two segments means opposite signs.
    classes = ParityUnionFind()
    for ev, (cons, prod) in zip(chart.events, record.event_io):
        if ev.kind in ("cup", "cap"):
            twins = cons if ev.kind == "cap" else prod
            if not classes.union(twins[0], twins[1], 1):
                return OrientationResult(False)
        elif ev.kind in ("crossing", "white"):
            if not all(classes.union(a, b, 0) for a, b in zip(cons, reversed(prod))):
                return OrientationResult(False)

    # Each clause reads its consumed segments as (class root, literal flip);
    # the middle flip is negated, so the literals must not all be equal.
    touching: dict[int, list[list[tuple[int, int]]]] = {}
    links = UnionFind()
    for ev, (cons, _) in zip(chart.events, record.event_io):
        if ev.kind == "white":
            clause = []
            for seg, negate in zip(cons, (1, -1, 1)):
                root, par = classes.find(seg)
                clause.append((root, -negate if par else negate))
            for root in dict.fromkeys(root for root, _ in clause):
                touching.setdefault(root, []).append(clause)
                links.union(clause[0][0], root)

    # The sign of each root that gives the least segment of its class +1.
    segments = sorted(record.segment_label)
    first: dict[int, int] = {}
    for seg in segments:
        root, par = classes.find(seg)
        first.setdefault(root, -1 if par else 1)

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
                value = first[order[k]]
            mark = len(trail)
            if assign(order[k], value):
                decisions.append((k, mark, value))
                value = 0
                continue
            undo(mark)
            while value != first[order[k]]:  # both signs failed here
                if not decisions:
                    return False
                k, mark, value = decisions.pop()
                undo(mark)
            value = -value

    components: dict[int, list[int]] = {}
    for root in first:
        if root in touching:
            components.setdefault(links.find(root), []).append(root)
        else:
            sign[root] = first[root]
    if not all(solve(order) for order in components.values()):
        return OrientationResult(False)

    signs = {}
    for seg in segments:
        root, par = classes.find(seg)
        signs[seg] = -sign[root] if par else sign[root]
    witness = _orient_with(chart, record, signs)
    return OrientationResult(True, witness, signs)


def _orient_with(chart: Chart, record: SweepRecord, signs: dict[int, int]) -> Chart:
    events = []
    for ev, (cons, prod) in zip(chart.events, record.event_io):
        if ev.kind == "black":
            if ev.insert:
                events.append(dataclasses.replace(ev, sign=-signs[prod[0]]))
            else:
                events.append(dataclasses.replace(ev, sign=signs[cons[0]]))
        elif ev.kind == "cup":
            events.append(dataclasses.replace(ev, sign=signs[prod[0]]))
        else:
            events.append(ev)
    return Chart(chart.degree, True, tuple(events))


# -- random charts -------------------------------------------------------


def random_chart(
    degree: int,
    size: int,
    rng: random.Random,
    oriented: bool = False,
) -> Chart:
    """A random valid closed chart with roughly ``size`` events."""
    events: list[ChartEvent] = []
    word: list[tuple[int, int]] = []  # (label, sign)

    def fits(ev: ChartEvent) -> bool:
        try:
            _produced(ev, word, degree, oriented)
        except ChartError:
            return False
        return True

    while len(events) < size or word:
        growing = len(events) < size - len(word) - 1
        choices = []
        if growing:
            choices += ["black-insert"] * 3 + ["cup"] * 2
        # Offer only events the sweep accepts: _produced judges them.
        pairs = [(p, word[p][0], word[p + 1][0]) for p in range(len(word) - 1)]
        offers = {
            "white": [ev for p, i, j in pairs if fits(ev := white(i, j, p))],
            "crossing": [ev for p, i, j in pairs if fits(ev := crossing(i, j, p))],
            "cap": [ev for p, i, _ in pairs if fits(ev := cap(i, p))],
        }
        if word:
            choices += ["black-delete"] * (1 if growing else 4)
        if offers["cap"]:
            choices += ["cap"] * (1 if growing else 4)
        if offers["white"] and len(events) < size:
            choices += ["white"] * 2
        if offers["crossing"] and len(events) < size:
            choices += ["crossing"] * 2
        if not choices:
            choices = ["black-insert", "cup"]
        kind = rng.choice(choices)
        if kind == "black-insert":
            ev = black(rng.randrange(1, degree), rng.randrange(len(word) + 1), True,
                       rng.choice([1, -1]) if oriented else None)
        elif kind == "black-delete":
            p = rng.randrange(len(word))
            lab, sign = word[p]
            ev = black(lab, p, False, sign if oriented else None)
        elif kind == "cup":
            ev = cup(rng.randrange(1, degree), rng.randrange(len(word) + 1),
                     rng.choice([1, -1]) if oriented else None)
        else:
            ev = rng.choice(offers[kind])
        events.append(ev)
        consumed, produced = _produced(ev, word, degree, oriented)
        word[ev.position : ev.position + len(consumed)] = produced
    return Chart(degree, oriented, tuple(events))


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
    try:
        degree = data["degree"]
        oriented = data["oriented"]
        raw = data["events"]
    except (KeyError, TypeError) as exc:
        raise ChartError(f"chart file needs degree/oriented/events: {exc}") from exc
    for name, value, want, text in (("oriented", oriented, bool, "true or false"),
                                    ("events", raw, list, "a list")):
        if type(value) is not want:
            raise ChartError(f"chart {name} must be {text}, got {value!r}")
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
    record = sweep_record(chart)
    lines = ["graph chart {", "  node [fontsize=10];"]
    vertex_names: dict[int, str] = {}
    counter = {"black": 0, "white": 0, "crossing": 0}
    seg_ends: dict[int, list[str]] = {seg: [] for seg in record.segment_label}
    for idx, (ev, (cons, prod)) in enumerate(zip(chart.events, record.event_io)):
        if ev.kind in ("black", "white", "crossing"):
            counter[ev.kind] += 1
            name = f"{ev.kind[0]}{counter[ev.kind]}"
            vertex_names[idx] = name
            shape = {"black": "point", "white": "circle", "crossing": "diamond"}[ev.kind]
            label = "" if ev.kind == "black" else ev.kind[0].upper()
            lines.append(f'  {name} [shape={shape}, label="{label}"];')
            for seg in cons + prod:
                seg_ends[seg].append(name)
    # An edge is a chain of segments joined at cups and caps; it is named by
    # the root its unions leave, in sweep order.
    twins = UnionFind()
    for ev, (cons, prod) in zip(chart.events, record.event_io):
        if ev.kind == "cup":
            twins.union(*prod)
        elif ev.kind == "cap":
            twins.union(*cons)
    by_edge: dict[int, list[int]] = {}
    for seg in sorted(record.segment_label):
        by_edge.setdefault(twins.find(seg), []).append(seg)
    for edge_id, segs in sorted(by_edge.items()):
        ends = [v for seg in segs for v in seg_ends[seg]]
        lab = record.segment_label[segs[0]]
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
