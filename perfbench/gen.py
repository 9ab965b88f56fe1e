"""Seeded inputs for the benchmark, built without the library.

Every generator takes a ``random.Random`` and returns plain tuples, so a
change to branchcover cannot change what is measured.  The same seed gives
the same inputs on every Python that keeps ``random.Random`` stable.
"""

from __future__ import annotations

import itertools

from . import oracles as O

# -- Hurwitz systems -------------------------------------------------------------


def random_transposition(rng, d):
    i, j = rng.sample(range(1, d + 1), 2)
    return O.transposition(d, min(i, j), max(i, j))


def family_member(rng, d, n):
    """Uniform member of the simple transitive closing systems of length n.

    Draws n-1 transpositions uniformly and keeps the draw when the forced
    last entry is a transposition and the group is transitive.
    """
    while True:
        prefix = tuple(random_transposition(rng, d) for _ in range(n - 1))
        last = O.inverse(O.product(prefix, d))
        if O.is_transposition(last) and len(O.orbits(prefix + (last,), d)) == 1:
            return prefix + (last,)


def scramble(rng, entries, d, moves, relabel=True):
    """Seeded Hurwitz moves, and transposition conjugations if ``relabel``."""
    entries = tuple(entries)
    for _ in range(moves):
        if relabel and rng.random() < 0.1:
            g = random_transposition(rng, d)
            entries = tuple(O.conj(e, g) for e in entries)
            continue
        k = rng.randrange(len(entries) - 1)
        if rng.random() < 0.5:
            entries = O.hurwitz_forward(entries, k)
        else:
            entries = O.hurwitz_inverse(entries, k)
    return entries


def scrambled_template(rng, d, n):
    return scramble(rng, O.template(d, n), d, 3 * n)


def block_sum(rng, d1, n1, d2, n2):
    """Two connected systems on disjoint sheets, interleaved and scrambled.

    Returns (entries, degree, components) with components as (sheets, genus).
    """
    d = d1 + d2
    a = [tuple(list(e) + list(range(d1 + 1, d + 1))) for e in scrambled_template(rng, d1, n1)]
    b = [tuple(list(range(1, d1 + 1)) + [x + d1 for x in e]) for e in scrambled_template(rng, d2, n2)]
    # Entries on disjoint sheets commute, so any merge keeps the product 1.
    slots = sorted(rng.sample(range(n1 + n2), n1))
    merged, ia, ib = [], 0, 0
    for k in range(n1 + n2):
        if ia < n1 and slots[ia] == k:
            merged.append(a[ia])
            ia += 1
        else:
            merged.append(b[ib])
            ib += 1
    entries = scramble(rng, merged, d, n1 + n2, relabel=False)  # keeps the sheet blocks
    components = [
        (tuple(range(1, d1 + 1)), O.genus(d1, n1)),
        (tuple(range(d1 + 1, d + 1)), O.genus(d2, n2)),
    ]
    return entries, d, components


# -- braid words ---------------------------------------------------------------------


def random_word(rng, d, length):
    """Freely reduced word of the given length in the generators of B_d."""
    w = []
    while len(w) < length:
        x = rng.randrange(1, d) * rng.choice((1, -1))
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


def key_cap(length):
    """Image-size ceiling of the key words: about 30 letters at length 8 up to
    about 6,400 at length 64, so growth stays exponential but bounded."""
    return 14 * 1.1 ** length


def capped_word(rng, d, length):
    """A random freely reduced word whose Artin images grow along ``key_cap``.

    Each letter is drawn at random among those that put the total image
    length of the prefix between 2/3 of the ceiling for its length and the
    ceiling; failing that, the largest under the ceiling, or the smallest.
    Unconstrained random words spread over several orders of magnitude in
    key size at length 48 and beyond.
    """
    images = tuple((k,) for k in range(1, d + 1))
    w = []
    while len(w) < length:
        letters = [x * s for x in range(1, d) for s in (1, -1) if not w or x * s != -w[-1]]
        rng.shuffle(letters)
        cap = key_cap(len(w) + 1)
        options = []
        for x in letters:
            new = O.artin_images(d, (x,), images)
            options.append((sum(map(len, new)), x, new))
            if cap / 1.5 <= options[-1][0] <= cap:
                chosen = options[-1]
                break
        else:
            under = [o for o in options if o[0] <= cap]
            chosen = max(under) if under else min(options)
        w.append(chosen[1])
        images = chosen[2]
    return tuple(w)


def respell(rng, w, steps):
    """Apply seeded braid relations; the element does not change.

    The relations used: s_i s_j s_i = s_j s_i s_j for |i-j| = 1 (all letters
    of one sign), s_i s_j = s_j s_i for |i-j| >= 2, and inserting or deleting
    a cancelling pair.
    """
    w = list(w)
    for _ in range(steps):
        sites = []
        for k in range(len(w) - 2):
            a, b, c = w[k : k + 3]
            if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                sites.append(("braid", k))
        for k in range(len(w) - 1):
            if abs(abs(w[k]) - abs(w[k + 1])) >= 2:
                sites.append(("commute", k))
        if sites and rng.random() < 0.8:
            kind, k = rng.choice(sites)
            if kind == "braid":
                a, b = w[k], w[k + 1]
                w[k : k + 3] = [b, a, b]
            else:
                w[k], w[k + 1] = w[k + 1], w[k]
        else:
            k = rng.randrange(len(w) + 1)
            x = w[k - 1] if k and rng.random() < 0.5 else None
            if x is None:
                x = rng.randrange(1, max(abs(y) for y in w) + 1) * rng.choice((1, -1))
            w[k:k] = [x, -x]
    return tuple(w)


def simple_conjugate(rng, d, conjugator):
    """g^-1 s_i^e g with a random g of the given length."""
    g = random_word(rng, d, conjugator)
    x = rng.randrange(1, d) * rng.choice((1, -1))
    return O.braid_conj((x,), g)


def nonsimple_word(rng, d):
    """A word whose exponent sum is not +-1."""
    while True:
        w = random_word(rng, d, rng.randrange(2, 9))
        if O.exponent_sum(w) not in (1, -1):
            return w


# Words s_i^a s_j^b at d = 3 with exponent sum +-1 and a transposition as
# projection: both screens pass, and only a conjugacy search can answer.
HARD_SIMPLICITY = ((1, 1, 1, -2, -2), (2, 2, 2, -1, -1), (-1, -1, -1, 2, 2), (-2, -2, -2, 1, 1))


def hard_nonsimple(rng):
    w = rng.choice(HARD_SIMPLICITY)
    k = rng.randrange(len(w))
    return w[k:] + w[:k]  # a rotation is a conjugate


def braid_system_moves(rng, entries, moves):
    """Seeded Hurwitz moves on a tuple of braid words."""
    entries = list(entries)
    for _ in range(moves):
        k = rng.randrange(len(entries) - 1)
        a, b = entries[k], entries[k + 1]
        if rng.random() < 0.5:
            entries[k], entries[k + 1] = b, O.braid_conj(a, b)
        else:
            entries[k], entries[k + 1] = O.braid_conj(b, O.braid_inverse(a)), a
    return tuple(entries)


def distinct_braid_pair(rng):
    """(x, x^-1, y, y^-1) against (x, x, y^-1, y^-1) in B_3, {x, y} = {s_1, s_2}.

    Entry invariants, exponent sums and projections agree; the totals 1 and
    x^2 y^-2 have different Burau traces, so the systems are not equivalent.
    """
    x, y = rng.choice((((1,), (2,)), ((2,), (1,))))
    s = (x, O.braid_inverse(x), y, O.braid_inverse(y))
    t = (x, x, O.braid_inverse(y), O.braid_inverse(y))
    if not O.certify_not_conjugate(3, (), x + x + O.braid_inverse(y) + O.braid_inverse(y)):
        raise ValueError("the Burau trace does not separate the totals")
    return s, t


# -- link diagrams ----------------------------------------------------------------------

# PD codes of small knots, as commonly tabulated.
KNOTS = {
    "trefoil": ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)),
    "figure-eight": ((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)),
    "5_1": ((1, 6, 2, 7), (3, 8, 4, 9), (5, 10, 6, 1), (7, 2, 8, 3), (9, 4, 10, 5)),
    "5_2": ((1, 4, 2, 5), (3, 8, 4, 9), (5, 10, 6, 1), (9, 6, 10, 7), (7, 2, 8, 3)),
}


def closure(word, strands):
    """PD code of the closure of a braid word; positive letters cross left over right.

    Every strand position must be touched by some letter.  Strands run up
    the braid; the edges leaving the top are welded to the bottom ones.
    """
    edge = list(range(1, strands + 1))
    nxt = strands + 1
    quads = []
    for x in word:
        i = abs(x) - 1
        left, right = edge[i], edge[i + 1]
        new_left, new_right = nxt, nxt + 1
        nxt += 2
        if x > 0:  # left strand over, right strand under towards the left
            quads.append((right, left, new_left, new_right))
        else:  # right strand over, left strand under towards the right
            quads.append((left, new_left, new_right, right))
        edge[i], edge[i + 1] = new_left, new_right
    weld = {edge[k]: k + 1 for k in range(strands)}
    return tuple(tuple(weld.get(e, e) for e in q) for q in quads)


def random_closure(rng, strands, crossings):
    """Closure of a random word touching every strand."""
    while True:
        w = random_word(rng, strands, crossings)
        if {abs(x) for x in w} == set(range(1, strands)):
            return w, closure(w, strands)


def colored_closure(rng, strands, crossings):
    """A closure with a non-trivial Fox 3-coloring, and one such coloring."""
    while True:
        w, pd = random_closure(rng, strands, crossings)
        nontrivial = [c for c in O.fox_colorings(pd) if len(set(c.values())) > 1]
        if nontrivial:
            return w, pd, rng.choice(nontrivial)


# T_3 = transpositions of S_3; Fox colors 0, 1, 2 map to them.  Any two
# distinct transpositions conjugate to the third, as 2y - x does mod 3.
T3 = (O.transposition(3, 2, 3), O.transposition(3, 1, 3), O.transposition(3, 1, 2))


def fox_to_transpositions(coloring, d=3):
    """Fox coloring -> transposition coloring of S_d on the first three points."""
    pad = tuple(range(4, d + 1))
    return {arc: T3[c] + pad for arc, c in coloring.items()}


# -- quandles -----------------------------------------------------------------------------


def transposition_quandle(d):
    """T_d as (elements, table) with op[x][y] the index of x conjugated by y."""
    elements = [O.transposition(d, i, j) for i, j in itertools.combinations(range(1, d + 1), 2)]
    index = {p: k for k, p in enumerate(elements)}
    return elements, tuple(tuple(index[O.conj(x, y)] for y in elements) for x in elements)


def product_with_trivial(table, m):
    """table x T_m, T_m trivial: (x, a) |> (y, b) = (x |> y, a)."""
    n = len(table)
    return tuple(
        tuple(table[x][y] * m + a for y in range(n) for _ in range(m))
        for x in range(n)
        for a in range(m)
    )


def surjections():
    """(source table, target table, map) with sources of at most 8 elements."""
    r3 = O.dihedral_table(3)
    return (
        (O.dihedral_table(6), r3, tuple(x % 3 for x in range(6))),
        (O.dihedral_table(8), O.dihedral_table(4), tuple(x % 4 for x in range(8))),
        (product_with_trivial(r3, 2), r3, tuple(x // 2 for x in range(6))),
    )


def target_colorings(crossings, table):
    """Every coloring of the diagram by a small quandle, by exhaustion."""
    arcs = sorted(set(O.pd_arcs(crossings).values()))
    signs = O.pd_signs(crossings)
    for values in itertools.product(range(len(table)), repeat=len(arcs)):
        coloring = dict(zip(arcs, values))
        if O.quandle_coloring_ok(crossings, signs, table, coloring):
            yield coloring


# -- charts ---------------------------------------------------------------------------------
#
# Events are tuples (kind, position, labels, insert, sign) as in oracles.


def random_chart(rng, d, size, oriented):
    """A closed chart of at least ``size`` events, grown then closed."""
    events, word = [], []  # word of (label, sign)
    while len(events) < size or word:
        growing = len(events) < size - len(word) - 1
        caps = [p for p in range(len(word) - 1) if word[p][0] == word[p + 1][0]
                and (not oriented or word[p][1] == -word[p + 1][1])]
        crossings = [p for p in range(len(word) - 1) if abs(word[p][0] - word[p + 1][0]) > 1]
        whites = [p for p in range(len(word) - 2)
                  if word[p][0] == word[p + 2][0] and abs(word[p][0] - word[p + 1][0]) == 1
                  and (not oriented or O.white_out_signs(tuple(s for _, s in word[p : p + 3])))]
        kinds = []
        if growing:
            kinds += ["birth"] * 3 + ["cup"] * 2
        if word:
            kinds += ["death"] * (1 if growing else 4)
        if caps:
            kinds += ["cap"] * (1 if growing else 4)
        if len(events) < size:
            kinds += ["white"] * 2 * bool(whites) + ["crossing"] * 2 * bool(crossings)
        kind = rng.choice(kinds or ["birth"])
        sign = rng.choice((1, -1)) if oriented else None
        if kind == "birth":
            label, p = rng.randrange(1, d), rng.randrange(len(word) + 1)
            events.append(("black", p, (label,), True, sign))
            word.insert(p, (label, -sign if oriented else 1))
        elif kind == "death":
            p = rng.randrange(len(word))
            events.append(("black", p, (word[p][0],), False, word[p][1] if oriented else None))
            del word[p]
        elif kind == "cup":
            label, p = rng.randrange(1, d), rng.randrange(len(word) + 1)
            events.append(("cup", p, (label,), None, sign))
            s = sign if oriented else 1
            word[p:p] = [(label, s), (label, -s if oriented else 1)]
        elif kind == "cap":
            p = rng.choice(caps)
            events.append(("cap", p, (word[p][0],), None, None))
            del word[p : p + 2]
        elif kind == "crossing":
            p = rng.choice(crossings)
            events.append(("crossing", p, (word[p][0], word[p + 1][0]), None, None))
            word[p : p + 2] = [word[p + 1], word[p]]
        else:
            p = rng.choice(whites)
            i, j = word[p][0], word[p + 1][0]
            events.append(("white", p, (i, j), None, None))
            out = O.white_out_signs(tuple(s for _, s in word[p : p + 3])) if oriented else (1, 1, 1)
            word[p : p + 3] = list(zip((j, i, j), out))
    return tuple(events)


def forget(events):
    return tuple((k, p, l, i, None) for k, p, l, i, _ in events)


def transitive_chart(rng, d, size):
    """An unoriented chart whose monodromy group is transitive."""
    while True:
        events = random_chart(rng, d, size, False)
        meridians = O.chart_sweep(d, events, False)[0]
        if len(O.orbits(meridians, d)) == 1:
            return events


def closed_prefix(rng, d, size, edges):
    """A closed, orientable chart of ``size`` events and exactly ``edges`` edges.

    The chart is a sequence of closed pieces: black-vertex arcs (a strand
    born and ended) and one circle of m cups whose strands the m caps join
    into one edge.  No white vertex constrains the signs, so the chart has
    2^edges orientations, and an exhaustive orientation search visits them all.
    """
    units = [1] * (edges - 1) + [size // 2 - edges + 1]  # arcs, then one circle
    events = []
    for m in units:
        label = rng.randrange(1, d)
        if m == 1:
            events += [("black", 0, (label,), True, None), ("black", 0, (label,), False, None)]
            continue
        events += [("cup", 2 * k, (label,), None, None) for k in range(m)]
        events += [("cap", 1, (label,), None, None)] * (m - 1) + [("cap", 0, (label,), None, None)]
    return tuple(events)


# The non-orientable 16-event chart of degree 3: three interlocked white
# vertices whose cup twins and closing cap force the last white vertex to
# read the alternating signs no braid-chart vertex admits.
GADGET = (
    ("cup", 0, (1,), None, None),
    ("black", 1, (1,), True, None),
    ("black", 2, (2,), True, None),
    ("white", 1, (1, 2), None, None),
    ("black", 2, (1,), False, None),
    ("black", 2, (2,), False, None),
    ("cup", 2, (2,), None, None),
    ("black", 2, (1,), True, None),
    ("black", 4, (1,), True, None),
    ("white", 2, (1, 2), None, None),
    ("black", 2, (2,), False, None),
    ("black", 3, (2,), False, None),
    ("white", 0, (1, 2), None, None),
    ("black", 0, (2,), False, None),
    ("black", 0, (1,), False, None),
    ("cap", 0, (2,), None, None),
)


def chart_move_site(rng, d, events):
    """A move the chart admits, and the events it must produce.

    Returns (name, site keywords, expected events).  Sites come from this
    module's own sweep of the chart.
    """
    words, word = [], []
    for kind, p, labels, insert, _ in events:
        words.append(tuple(word))
        n_in = _arity(kind, insert)[0]
        if kind in ("black", "cup", "cap"):
            out = [labels[0]] * _arity(kind, insert)[1]
        else:
            out = [labels[1], labels[0], labels[1]][: _arity(kind, insert)[1]]
        word[p : p + n_in] = out
    words.append(())
    options = []
    for at, w in enumerate(words):
        for p in range(len(w) - 1):
            if abs(w[p] - w[p + 1]) > 1:
                options.append(("crossing-insert", at, p))
        for p in range(len(w) - 2):
            if w[p] == w[p + 2] and abs(w[p] - w[p + 1]) == 1:
                options.append(("white-insert", at, p))
    for at in range(len(events) - 1):
        (ka, pa, la, ia, _), (kb, pb, lb, ib, _) = events[at], events[at + 1]
        a_in, a_out = _arity(ka, ia)
        b_in, b_out = _arity(kb, ib)
        if pb + b_in <= pa or pb >= pa + a_out:
            options.append(("swap", at, None))
    roll = rng.random()
    if roll < 0.25 or not options:
        at = rng.randrange(len(events) + 1)
        p, label = rng.randrange(len(words[at]) + 1), rng.randrange(1, d)
        new = [("cup", p, (label,), None, None), ("cap", p, (label,), None, None)]
        return "cup-cap-insert", {"at": at, "position": p, "label": label}, _splice(events, at, at, new)
    name, at, p = rng.choice(options)
    if name == "swap":
        (ka, pa, la, ia, sa), (kb, pb, lb, ib, sb) = events[at], events[at + 1]
        a_in, a_out = _arity(ka, ia)
        b_in, b_out = _arity(kb, ib)
        if pb + b_in <= pa:
            new = [events[at + 1], (ka, pa + b_out - b_in, la, ia, sa)]
        else:
            new = [(kb, pb - (a_out - a_in), lb, ib, sb), events[at]]
        return "swap", {"at": at}, _splice(events, at, at + 2, new)
    i, j = words[at][p], words[at][p + 1]
    kind = "crossing" if name == "crossing-insert" else "white"
    new = [(kind, p, (i, j), None, None), (kind, p, (j, i), None, None)]
    return name, {"at": at, "position": p, "i": i, "j": j}, _splice(events, at, at, new)


def _arity(kind, insert):
    if kind == "black":
        return (0, 1) if insert else (1, 0)
    return {"cup": (0, 2), "cap": (2, 0), "crossing": (2, 2), "white": (3, 3)}[kind]


def _splice(events, start, end, new):
    return tuple(events[:start]) + tuple(new) + tuple(events[end:])
