"""Independent arithmetic and checks for the benchmark.

Nothing here imports branchcover: every answer the library gives is checked
against these functions, and the generators build their inputs with them.
Conventions are the library's documented ones: a permutation is the tuple of
images of 1..d, products read left to right (``compose(a, b)`` applies a
first), braid letters are signed generator indices, and a PD crossing is
(a, b, c, d) counterclockwise from the incoming under-edge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# -- permutations ------------------------------------------------------------


def identity(d):
    return tuple(range(1, d + 1))


def transposition(d, i, j):
    images = list(range(1, d + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def compose(a, b):
    return tuple(b[x - 1] for x in a)


def inverse(a):
    inv = [0] * len(a)
    for k, x in enumerate(a):
        inv[x - 1] = k + 1
    return tuple(inv)


def conj(a, g):
    """g^-1 a g, the library's ``a ** g``."""
    return compose(compose(inverse(g), a), g)


def support(a):
    return frozenset(k + 1 for k, x in enumerate(a) if x != k + 1)


def is_transposition(a):
    return len(support(a)) == 2


def product(perms, d):
    acc = identity(d)
    for p in perms:
        acc = compose(acc, p)
    return acc


def orbits(perms, d):
    parent = list(range(d + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(1, d + 1):
            parent[find(x)] = find(p[x - 1])
    groups = {}
    for x in range(1, d + 1):
        groups.setdefault(find(x), set()).add(x)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def cycle_text(a):
    """Cycle notation as the library prints it: least point first, '()' for 1."""
    seen, parts = set(), []
    for start in range(1, len(a) + 1):
        if start in seen or a[start - 1] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = a[x - 1]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def parse_cycles(text, d):
    images = list(range(1, d + 1))
    for body in text.replace(")", "(").split("("):
        points = [int(x) for x in body.replace(",", " ").split()]
        for k, p in enumerate(points):
            images[p - 1] = points[(k + 1) % len(points)]
    return tuple(images)


# -- Hurwitz systems ------------------------------------------------------------


def hurwitz_forward(entries, k):
    a, b = entries[k], entries[k + 1]
    return entries[:k] + (b, conj(a, b)) + entries[k + 2 :]


def hurwitz_inverse(entries, k):
    a, b = entries[k], entries[k + 1]
    return entries[:k] + (conj(b, inverse(a)), a) + entries[k + 2 :]


def replay(entries, trace):
    """Apply a move trace, steps ("H", k, "forward"|"inverse") or ("C", g)."""
    entries = tuple(entries)
    for step in trace:
        if step[0] == "H" and step[2] == "forward":
            entries = hurwitz_forward(entries, step[1])
        elif step[0] == "H" and step[2] == "inverse":
            entries = hurwitz_inverse(entries, step[1])
        elif step[0] == "C":
            entries = tuple(conj(e, step[1]) for e in entries)
        else:
            raise ValueError(f"unknown trace step {step!r}")
    return entries


def template(d, n):
    """The normal form ((12)^m, (23)^2, ..., (d-1 d)^2), m = n - 2(d-2)."""
    m = n - 2 * (d - 2)
    if m < 2 or m % 2:
        raise ValueError(f"no normal form for d={d}, n={n}")
    out = [transposition(d, 1, 2)] * m
    for i in range(2, d):
        out += [transposition(d, i, i + 1)] * 2
    return tuple(out)


def genus(d, n):
    """Genus of a connected simple cover of degree d with n branch points."""
    return (n - 2 * d + 2) // 2


def check_normal_form(entries, d, result, trace):
    """The result is the template and the trace replays the input onto it."""
    want = template(d, len(entries))
    return tuple(result) == want and replay(entries, trace) == want


def count_closing_systems(d, n):
    """Simple transitive closing systems of length n, by exhausting prefixes."""
    trans = [transposition(d, i, j) for i, j in itertools.combinations(range(1, d + 1), 2)]
    count = 0
    for prefix in itertools.product(trans, repeat=n - 1):
        last = inverse(product(prefix, d))
        if is_transposition(last) and len(orbits(prefix + (last,), d)) == 1:
            count += 1
    return count


def check_covering(components, expected):
    """``components`` and ``expected`` are lists of (sheets, genus)."""
    got = sorted((tuple(sorted(s)), g) for s, g in components)
    return got == sorted((tuple(sorted(s)), g) for s, g in expected)


# -- braids: free-group action and Burau trace ---------------------------------


def free_reduce(letters):
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def braid_inverse(w):
    return tuple(-x for x in reversed(w))


def braid_conj(w, g):
    """g^-1 w g as a letter tuple."""
    return free_reduce(braid_inverse(g) + tuple(w) + tuple(g))


def exponent_sum(w):
    return sum(1 if x > 0 else -1 for x in w)


def braid_project(d, w):
    return product((transposition(d, abs(x), abs(x) + 1) for x in w), d)


def artin_images(d, w, images=None):
    """Images of x_1..x_d under w (Artin action, one substitution per letter).

    ``images`` continues from the images of a prefix.
    """
    images = images or [(k,) for k in range(1, d + 1)]
    for letter in w:
        i = abs(letter)
        if letter > 0:
            sub = {i: (i, i + 1, -i), i + 1: (i,)}
        else:
            sub = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
        for x, word in list(sub.items()):
            sub[-x] = braid_inverse(word)
        images = [
            free_reduce(y for x in word for y in sub.get(x, (x,))) for word in images
        ]
    return tuple(images)


def braids_equal(d, u, v):
    return artin_images(d, u) == artin_images(d, v)


BURAU_POINTS = (Fraction(2), Fraction(-3, 5))


def burau_trace(d, w, t):
    """Trace of the unreduced Burau matrix of w at the rational point t."""
    m = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    for letter in w:
        i = abs(letter) - 1
        blk = ((1 - t, t), (1, 0)) if letter > 0 else ((0, 1), (1 / t, 1 - 1 / t))
        for row in m:
            a, b = row[i], row[i + 1]
            row[i], row[i + 1] = a * blk[0][0] + b * blk[1][0], a * blk[0][1] + b * blk[1][1]
    return sum(m[k][k] for k in range(d))


def certify_not_conjugate(d, u, v):
    """True when the Burau traces differ, which proves u, v are not conjugate."""
    return any(burau_trace(d, u, t) != burau_trace(d, v, t) for t in BURAU_POINTS)


def certify_not_simple(d, w):
    """True when w is certified not to be a conjugate of a generator or inverse."""
    e = exponent_sum(w)
    if e not in (1, -1):
        return True
    if not is_transposition(braid_project(d, w)):
        return True
    return certify_not_conjugate(d, w, (e,))


# -- link diagrams ---------------------------------------------------------------


def pd_arcs(crossings):
    """Edge -> Wirtinger arc, named by its least edge (over slots b, d weld)."""
    parent = {e: e for quad in crossings for e in quad}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _, b, _, d in crossings:
        ra, rb = find(b), find(d)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {e: find(e) for e in parent}


def pd_signs(crossings):
    """Crossing signs, +1 when the over strand runs d -> b.

    Under-strands run a -> c; every edge has one head and one tail, which
    fixes the over directions of every component that passes under somewhere.
    """
    occ = {}
    for k, quad in enumerate(crossings):
        for slot, e in enumerate(quad):
            occ.setdefault(e, []).append((k, slot))
    runs_b_to_d = {}
    # head(k, slot): slot 0 arrives, slot 2 departs, slot 1 arrives iff b->d.
    def head(k, slot):
        if slot in (0, 2):
            return slot == 0
        if k not in runs_b_to_d:
            return None
        return runs_b_to_d[k] == (slot == 1)

    changed = True
    while changed:
        changed = False
        for (k1, s1), (k2, s2) in occ.values():
            h1, h2 = head(k1, s1), head(k2, s2)
            for (k, s), mine, other in (((k1, s1), h1, h2), ((k2, s2), h2, h1)):
                if mine is None and other is not None:
                    runs_b_to_d[k] = (not other) == (s == 1)
                    changed = True
    if len(runs_b_to_d) != len(crossings):
        raise ValueError("a component never passes under; orientation is free")
    return [-1 if runs_b_to_d[k] else 1 for k in range(len(crossings))]


def fox_rows(crossings):
    arcs = pd_arcs(crossings)
    names = sorted(set(arcs.values()))
    col = {a: k for k, a in enumerate(names)}
    rows = []
    for a, b, c, _ in crossings:
        row = [0] * len(names)
        row[col[arcs[b]]] += 2
        row[col[arcs[a]]] -= 1
        row[col[arcs[c]]] -= 1
        rows.append([x % 3 for x in row])
    return rows, names


def nullspace_mod3(rows, ncols):
    """Basis of the solutions of rows . x = 0 over GF(3), by Gaussian elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]  # 1 and 2 are their own inverses mod 3
        rows[r] = [(x * inv) % 3 for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(x - f * y) % 3 for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for k, pc in enumerate(pivots):
            v[pc] = (-rows[k][free]) % 3
        basis.append(v)
    return basis


def fox_count(crossings, free_loops=0):
    """Number of Fox 3-colorings, 3^(nullity), each free loop a factor 3."""
    rows, names = fox_rows(crossings)
    return 3 ** (len(nullspace_mod3(rows, len(names))) + free_loops)


def fox_colorings(crossings):
    """All Fox 3-colorings as dicts arc -> 0..2."""
    rows, names = fox_rows(crossings)
    basis = nullspace_mod3(rows, len(names))
    out = []
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        vec = [sum(c * v[k] for c, v in zip(coeffs, basis)) % 3 for k in range(len(names))]
        out.append(dict(zip(names, vec)))
    return out


def check_transposition_coloring(crossings, coloring):
    """Every crossing: color(under_out) = color(under_in) conjugated by color(over)."""
    arcs = pd_arcs(crossings)
    if set(coloring) != set(arcs.values()):
        return False
    for a, b, c, _ in crossings:
        u, o, out = coloring[arcs[a]], coloring[arcs[b]], coloring[arcs[c]]
        if not is_transposition(u) or conj(u, o) != out:
            return False
    return True


def check_braid_lift(d, crossings, base, lift):
    """A braid coloring lifts the transposition coloring ``base``.

    Every arc projects to its base color, and every Wirtinger relation
    out = o^-s u o^s holds under the free-group action.
    """
    arcs = pd_arcs(crossings)
    if set(lift) != set(base):
        return False
    for arc, w in lift.items():
        if exponent_sum(w) not in (1, -1) or braid_project(d, w) != base[arc]:
            return False
    for (a, b, c, _), sign in zip(crossings, pd_signs(crossings)):
        u, o = lift[arcs[a]], lift[arcs[b]]
        g = o if sign == 1 else braid_inverse(o)
        if not braids_equal(d, lift[arcs[c]], braid_conj(u, g)):
            return False
    return True


def quandle_coloring_ok(crossings, signs, table, coloring):
    """Coloring arc -> element satisfies u |> o (or its inverse) at each crossing."""
    arcs = pd_arcs(crossings)
    for (a, b, c, _), sign in zip(crossings, signs):
        u, o, out = coloring[arcs[a]], coloring[arcs[b]], coloring[arcs[c]]
        if sign == 1 and table[u][o] != out:
            return False
        if sign == -1 and table[out][o] != u:
            return False
    return True


def surjection_lifts(crossings, source, p, coloring):
    """Every lift of ``coloring`` through p, by exhausting the fibers."""
    signs = pd_signs(crossings)
    arcs = sorted(coloring)
    fibers = [[x for x in range(len(source)) if p[x] == coloring[a]] for a in arcs]
    for choice in itertools.product(*fibers):
        lifted = dict(zip(arcs, choice))
        if quandle_coloring_ok(crossings, signs, source, lifted):
            yield lifted


def dihedral_table(n):
    return tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))


def quandle_axioms_hold(table):
    n = len(table)
    if any(table[x][x] != x for x in range(n)):
        return False
    if any(len({table[x][y] for x in range(n)}) != n for y in range(n)):
        return False
    return all(
        table[table[x][y]][z] == table[table[x][z]][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


# -- charts ------------------------------------------------------------------------
#
# Events are tuples (kind, position, labels, insert, sign); insert is None
# except for black events, sign is None on unoriented charts.


def white_out_signs(signs):
    """Produced signs at an oriented white vertex, or None if inadmissible.

    Reading the relator s_i s_j s_i s_j^-1 s_i^-1 s_j^-1 around the vertex in
    each of its rotations admits every consumed pattern except the two
    alternating ones, and the produced strands carry the consumed signs in
    reverse order.
    """
    if signs in ((1, -1, 1), (-1, 1, -1)):
        return None
    return tuple(reversed(signs))


def chart_sweep(d, events, oriented):
    """Validate a sweep; returns (meridians, event segment io, segment count).

    Meridians are the black-vertex entries P x P^-1, with P the product of
    the strand letters left of the event: permutation tuples on an
    unoriented chart, braid letter tuples on an oriented one.  Raises
    ValueError at the first invalid event.
    """
    word = []  # (label, sign, segment)
    io, meridians = [], []
    segs = 0

    def new(label, sign):
        nonlocal segs
        segs += 1
        return (label, sign, segs - 1)

    for idx, (kind, p, labels, insert, sign) in enumerate(events):
        n_in = {"black": 0 if insert else 1, "cup": 0, "cap": 2, "crossing": 2, "white": 3}[kind]
        if not 0 <= p <= len(word) - n_in or any(not 1 <= x < d for x in labels):
            raise ValueError(f"event {idx}: bad position or label")
        if oriented and kind in ("black", "cup") and sign not in (1, -1):
            raise ValueError(f"event {idx}: oriented {kind} needs a sign")
        cons = word[p : p + n_in]
        if kind == "black":
            if not insert and (cons[0][0] != labels[0] or (oriented and cons[0][1] != sign)):
                raise ValueError(f"event {idx}: black end mismatch")
            if oriented:
                pw = tuple(l * s for l, s, _ in word[:p])
                meridians.append(free_reduce(pw + (labels[0] * sign,) + braid_inverse(pw)))
            else:
                x = transposition(d, labels[0], labels[0] + 1)
                pw = product((transposition(d, l, l + 1) for l, _, _ in word[:p]), d)
                meridians.append(compose(compose(pw, x), inverse(pw)))
            prod = [new(labels[0], -sign if oriented else 1)] if insert else []
        elif kind == "cup":
            s = sign if oriented else 1
            prod = [new(labels[0], s), new(labels[0], -s if oriented else 1)]
        elif kind == "cap":
            if {l for l, _, _ in cons} != {labels[0]} or (oriented and cons[0][1] != -cons[1][1]):
                raise ValueError(f"event {idx}: cap mismatch")
            prod = []
        elif kind == "crossing":
            i, j = labels
            if abs(i - j) < 2 or (cons[0][0], cons[1][0]) != (i, j):
                raise ValueError(f"event {idx}: crossing mismatch")
            prod = [new(j, cons[1][1]), new(i, cons[0][1])]
        elif kind == "white":
            i, j = labels
            if abs(i - j) != 1 or tuple(l for l, _, _ in cons) != (i, j, i):
                raise ValueError(f"event {idx}: white mismatch")
            out = (1, 1, 1)
            if oriented:
                out = white_out_signs(tuple(s for _, s, _ in cons))
                if out is None:
                    raise ValueError(f"event {idx}: inadmissible white signs")
            prod = [new(l, s) for l, s in zip((j, i, j), out)]
        else:
            raise ValueError(f"event {idx}: unknown kind {kind!r}")
        word[p : p + n_in] = prod
        io.append((tuple(s for _, _, s in cons), tuple(s for _, _, s in prod)))
    if word:
        raise ValueError("sweep does not close")
    return meridians, io, segs


def orientable_brute_force(d, events):
    """Exhaust every sign choice at cups and black births of an unoriented chart.

    All other strand signs are forced along the sweep, so this visits every
    orientation the chart could carry.
    """
    choices = [k for k, ev in enumerate(events) if ev[0] == "cup" or (ev[0] == "black" and ev[3])]
    for bits in itertools.product((1, -1), repeat=len(choices)):
        signed = list(events)
        for k, s in zip(choices, bits):
            kind, p, labels, insert, _ = events[k]
            signed[k] = (kind, p, labels, insert, s)
        try:
            _sign_deaths(d, signed)
        except ValueError:
            continue
        return True
    return False


def _sign_deaths(d, events):
    """Give black deaths the sign of the strand they end, then validate."""
    word = []
    out = []
    for kind, p, labels, insert, sign in events:
        if kind == "black" and not insert:
            sign = word[p][1]
        out.append((kind, p, labels, insert, sign))
        if kind == "black":
            if insert:
                word.insert(p, (labels[0], -sign))
            else:
                del word[p]
        elif kind == "cup":
            word[p:p] = [(labels[0], sign), (labels[0], -sign)]
        elif kind == "cap":
            if word[p][1] != -word[p + 1][1]:
                raise ValueError("cap signs")
            del word[p : p + 2]
        elif kind == "crossing":
            word[p : p + 2] = [word[p + 1], word[p]]
        else:
            i, j = labels
            s = white_out_signs(tuple(x for _, x in word[p : p + 3]))
            if s is None:
                raise ValueError("white signs")
            word[p : p + 3] = list(zip((j, i, j), s))
    chart_sweep(d, out, True)
    return out


def check_witness(d, events, witness):
    """A valid oriented chart with the same unsigned events and the same system."""
    unsigned = [(k, p, l, i) for k, p, l, i, _ in events]
    if [(k, p, l, i) for k, p, l, i, _ in witness] != unsigned:
        return False
    try:
        braid_meridians, _, _ = chart_sweep(d, witness, True)
    except ValueError:
        return False
    projected = [braid_project(d, w) for w in braid_meridians]
    return projected == chart_sweep(d, events, False)[0]
