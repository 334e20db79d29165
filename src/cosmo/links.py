"""Oriented link diagrams as PD codes and a skein-recursion Conway oracle.

Diagram encoding
----------------
A crossing record lists its four arc labels counterclockwise starting from
the incoming under-strand arc: ``(a, b, c, d, sign)``.  The under-strand runs
a -> c.  At a positive crossing the over-strand runs d -> b, at a negative
one b -> d.  A crossing is positive exactly when the frame (over-direction,
under-direction) is positively oriented in the projection plane, which is the
usual right-hand rule making the closure of a positive braid word positive.

Components are closed arc cycles in traversal order; a one-arc cycle whose
arc touches no crossing is a crossing-free circle.  The first arc of each
component is its base point, where skein walks start.

Validation
----------
A diagram is checked once, where it enters from outside.  The public
``LinkDiagram`` constructor checks signs, arc labels and component cycles,
and rejects a strand whose one arc leaves a crossing and runs straight back
into it (no planar diagram has one: the loop would cut the other strand's
ends apart).  ``parse_pd``, ``pretzel_diagram`` and the unlink generators go
through it, and ``parse_pd`` adds a planarity parity check.  Skein children,
component sub-diagrams and braid closures (after their letters are checked)
are built from data that is already consistent, so they are assembled
without being checked again.  ``switch_crossing`` rewrites one record.
``smooth_crossing`` splices the one or two cycles through the crossing and
renames only the records that touch a joined arc; the result is the diagram
``_weld`` would build from the remaining crossings.

Conway polynomial
-----------------
``conway_polynomial`` resolves a diagram by walking the components in listed
order from their base points.  The first crossing met on its under-strand
before its over-strand has been visited is the branch site: the crossing gets
switched in one child and replaced by the oriented smoothing in the other,
and nabla(D) = nabla(switched) + sign * z * nabla(smoothed).  Fully
descending diagrams are stacked unknots: value 1 for one component, 0 for
two or more.  Results are memoized on a canonical serialization of the
diagram: arcs renumbered 1..N in traversal order from the base points, then
the crossings sorted.  Equal keys mean the same diagram up to arc names, and
the memoized polynomial is a link invariant.  Shared memo tables only ever
see atomic dict get/set, so concurrent readers are safe.  One call takes a
diagram of at most ``SKEIN_CROSSING_LIMIT`` crossings and expands at most
``SKEIN_NODE_BUDGET`` skein nodes; past either it raises ``DiagramError``.

Text format
-----------
One crossing per line, ``X a,b,c,d s`` with sign s in {+, -}, followed by
one ``C a1,a2,...`` line per component (in component order; the first arc is
the base point).  Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

# the surgery-formula records and the pretzel closed form live with the code
# that consumes them; they stay importable from here
from .arith import LinkSurgeryInvariants, v3
from .obstructions import _check_pretzel, pretzel_a3_closed_form

__all__ = [
    "DiagramError",
    "Crossing",
    "LinkDiagram",
    "ConwayPoly",
    "LinkSurgeryInvariants",
    "SKEIN_CROSSING_LIMIT",
    "SKEIN_NODE_BUDGET",
    "braid_closure",
    "pretzel_diagram",
    "torus2_diagram",
    "unknot_diagram",
    "unlink_diagram",
    "linking_number",
    "conway_polynomial",
    "coefficient",
    "pretzel_a3_closed_form",
    "v3",
    "invariants_from_diagram",
    "parse_pd",
    "format_pd",
]

# Together these bound one conway_polynomial call: the crossing cap bounds the
# time and memory of each skein node (switch/smooth branching), the budget the
# number of nodes.  The costliest diagram the tests, scripts and benchmark
# evaluate, the (3, 3) pretzel link, has 19 crossings and expands 964 nodes.
SKEIN_CROSSING_LIMIT = 40
SKEIN_NODE_BUDGET = 100_000


class DiagramError(ValueError):
    """Malformed PD data or a diagram outside the oracle's working range."""


class Crossing(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    sign: int

    @property
    def over_in(self) -> int:
        return self.d if self.sign > 0 else self.b

    @property
    def over_out(self) -> int:
        return self.b if self.sign > 0 else self.d

    def switched(self) -> "Crossing":
        # Over/under swap; the CCW record is re-read from the new under-in arc.
        if self.sign > 0:
            return Crossing(self.d, self.a, self.b, self.c, -1)
        return Crossing(self.b, self.c, self.d, self.a, 1)


class LinkDiagram:
    """An oriented link diagram: crossings plus ordered arc cycles.

    The constructor validates its input and raises ``DiagramError`` on
    malformed data.  Diagrams derived from a validated one (skein children,
    component sub-diagrams) are assembled directly and not checked again.
    """

    __slots__ = ("crossings", "components", "_head", "_arc_component", "_key")

    def __init__(self, crossings: Iterable[tuple], components: Sequence[Sequence[int]] | None = None) -> None:
        self.crossings = tuple(Crossing(*x) for x in crossings)
        succ, head = self._index_crossings()
        if components is None:
            comps = _cycles_of(succ)
        else:
            comps = tuple(tuple(c) for c in components)
            self._check_components(comps, succ)
        if not comps:
            raise DiagramError("a diagram needs at least one component")
        self._assemble(self.crossings, comps, head)

    def _assemble(self, crossings, components, head, arc_component=None) -> "LinkDiagram":
        """Set every field from parts already known to form a diagram; no checks."""
        self.crossings = crossings
        self.components = components
        self._head = head
        if arc_component is None:
            arc_component = {arc: ci for ci, cyc in enumerate(components) for arc in cyc}
        self._arc_component = arc_component
        self._key = None
        return self

    # -- construction-time validation -------------------------------------

    def _index_crossings(self):
        succ: dict[int, int] = {}
        head: dict[int, tuple[int, str]] = {}
        outgoing: set[int] = set()
        for ci, x in enumerate(self.crossings):
            if x.sign not in (1, -1):
                raise DiagramError(f"crossing {ci}: sign must be +1 or -1, got {x.sign}")
            for arc in (x.a, x.b, x.c, x.d):
                if not isinstance(arc, int) or arc < 1:
                    raise DiagramError(f"crossing {ci}: arc labels must be positive integers")
            if x.a == x.c or x.b == x.d:
                loop = x.a if x.a == x.c else x.b
                raise DiagramError(f"crossing {ci}: arc {loop} leaves it and runs straight back in, which no planar diagram has")
            for arc, role in ((x.a, "u"), (x.over_in, "o")):
                if arc in head:
                    raise DiagramError(f"arc {arc} enters two crossings")
                head[arc] = (ci, role)
            for arc in (x.c, x.over_out):
                if arc in outgoing:
                    raise DiagramError(f"arc {arc} leaves two crossings")
                outgoing.add(arc)
            succ[x.a] = x.c
            succ[x.over_in] = x.over_out
        if set(head) != outgoing:
            stray = set(head).symmetric_difference(outgoing)
            raise DiagramError(f"arcs {sorted(stray)} do not appear exactly once incoming and once outgoing")
        return succ, head

    def _check_components(self, comps, succ):
        seen: set[int] = set()
        for cyc in comps:
            if not cyc:
                raise DiagramError("empty component cycle")
            if seen.intersection(cyc):
                raise DiagramError("components share arcs")
            seen.update(cyc)
            if len(cyc) == 1 and cyc[0] not in succ:
                continue  # crossing-free circle
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                if succ.get(x) != y:
                    raise DiagramError(f"component cycle breaks at arc {x}: expected successor {succ.get(x)}, got {y}")
        missing = succ.keys() - seen
        if missing:
            raise DiagramError(f"component cycles do not cover arcs {sorted(missing)}")

    # -- elementary facts ---------------------------------------------------

    def arc_component(self, arc: int) -> int:
        return self._arc_component[arc]

    # -- skein moves ---------------------------------------------------------

    def switch_crossing(self, i: int) -> "LinkDiagram":
        """Same diagram with crossing i switched (arc structure is unchanged)."""
        x = self.crossings[i].switched()
        head = dict(self._head)
        head[x.a] = (i, "u")
        head[x.over_in] = (i, "o")
        xs = self.crossings[:i] + (x,) + self.crossings[i + 1 :]
        return object.__new__(LinkDiagram)._assemble(xs, self.components, head, self._arc_component)

    def smooth_crossing(self, i: int) -> "LinkDiagram":
        """Oriented smoothing at crossing i: under-in joins over-out, over-in joins under-out.

        Only the cycles through crossing i change, so the child is spliced
        from them; it equals what ``_weld`` builds from the remaining
        crossings, each joined pair named by its smaller arc.
        """
        a, b, c, d, sign = self.crossings[i]
        oi, oo = (d, b) if sign > 0 else (b, d)
        if a == c or oi == oo:
            # a strand that loops straight back, left by a non-planar parent
            circles = [cyc[0] for cyc in self.components if len(cyc) == 1]
            return _weld(self.crossings[:i] + self.crossings[i + 1 :], ((a, oo), (oi, c)), circles)
        m1, m2 = min(a, oo), min(oi, c)  # the names of the two joined arcs
        head = self._head
        comps = list(self.components)
        ca, co = self._arc_component[a], self._arc_component[oi]
        under = comps[ca]
        k = under.index(c)
        under = under[k:] + under[:k]  # c, ..., a
        pred_a = under[-2]
        if ca == co:  # c, X..., oi, oo, Y..., a splits into (m2,)+X and (m1,)+Y
            k = under.index(oi)
            pred_oi = under[k - 1]
            new = [(m2,) + under[1:k], (m1,) + under[k + 2 : -1]]
            del comps[ca]
        else:  # c, X..., a and oo, Y..., oi join into (m1,)+Y+(m2,)+X
            over = comps[co]
            k = over.index(oo)
            over = over[k:] + over[:k]
            pred_oi = over[-2]
            new = [(m1,) + over[1:-1] + (m2,) + under[1:-1]]
            del comps[max(ca, co)], comps[min(ca, co)]
        # every cycle read from its smallest arc; the first arcs differ, so the
        # tuples sort by them
        comps = [cyc if (k := cyc.index(min(cyc))) == 0 else cyc[k:] + cyc[:k] for cyc in comps + new]
        comps.sort()

        # each lost name occurs once outside crossing i: where oo or c enters,
        # or where a or oi leaves (the crossing its predecessor enters)
        ren, touched = {}, set()
        if a != oo:
            ren[max(a, oo)] = m1
            touched.add(head[oo][0] if a < oo else head[pred_a][0])
        if oi != c:
            ren[max(oi, c)] = m2
            touched.add(head[c][0] if oi < c else head[pred_oi][0])
        xs = list(self.crossings)
        for j in touched:
            y = xs[j]
            xs[j] = Crossing(ren.get(y.a, y.a), ren.get(y.b, y.b), ren.get(y.c, y.c), ren.get(y.d, y.d), y.sign)
        del xs[i]
        new_head = {arc: ((j, role) if j < i else (j - 1, role)) for arc, (j, role) in head.items() if j != i}
        if a < oo:
            new_head[a] = new_head.pop(oo)
        if oi < c:
            new_head[oi] = new_head.pop(c)
        return object.__new__(LinkDiagram)._assemble(tuple(xs), tuple(comps), new_head)

    # -- descending walk ------------------------------------------------------

    def first_bad_crossing(self) -> int | None:
        """Index of the first crossing met on its under-strand before its over visit."""
        seen: set[int] = set()
        for cyc in self.components:
            for arc in cyc:
                hit = self._head.get(arc)
                if hit is None:
                    continue
                ci, role = hit
                if role == "o":
                    seen.add(ci)
                elif ci not in seen:
                    return ci
        return None

    # -- canonical serialization ----------------------------------------------

    def canonical_key(self):
        """Arcs renumbered in traversal order from the base points, crossings sorted."""
        if self._key is None:
            arcs = [arc for cyc in self.components for arc in cyc]
            relabel = {arc: n for n, arc in enumerate(arcs, 1)}
            sig = sorted(
                (relabel[x.a], relabel[x.b], relabel[x.c], relabel[x.d], x.sign) for x in self.crossings
            )
            self._key = (tuple(len(c) for c in self.components), tuple(sig))
        return self._key

    # -- component extraction ---------------------------------------------------

    def component_subdiagram(self, i: int) -> "LinkDiagram":
        """Sub-diagram of component i: other-component crossings deleted, arcs re-closed."""
        if not 0 <= i < len(self.components):
            raise DiagramError(f"no component {i} in a {len(self.components)}-component diagram")
        mine = set(self.components[i])
        kept, pairs = [], []
        for x in self.crossings:
            under = x.a in mine
            over = x.over_in in mine
            if under and over:
                kept.append(x)
            elif under:
                pairs.append((x.a, x.c))
            elif over:
                pairs.append((x.over_in, x.over_out))
        sub = _weld(kept, pairs, mine)
        if len(sub.components) != 1:
            raise DiagramError("component extraction produced a disconnected strand")
        return sub

    def __repr__(self) -> str:
        return f"LinkDiagram({len(self.crossings)} crossings, {len(self.components)} components)"


def _weld(
    crossings: Iterable[Crossing], pairs: Iterable[tuple[int, int]], circles: Iterable[int] = ()
) -> LinkDiagram:
    """Diagram of the crossings after joining each pair of arcs into one arc.

    Each welded class is renamed to its smallest arc.  A welded class, or an
    arc in ``circles``, that no crossing touches becomes a crossing-free circle.
    Every cycle is read from its smallest arc, the cycles sorted by it.  It
    closes braids, cuts out component sub-diagrams, and smooths a crossing
    whose strand loops straight back, which only a non-planar parent leaves.
    """
    root: dict[int, int] = {}

    def find(arc: int) -> int:
        while root.get(arc, arc) != arc:
            arc = root[arc]
        return arc

    for u, v in pairs:
        lo, hi = sorted((find(u), find(v)))
        root[lo] = root[hi] = lo
    flat = {arc: find(arc) for arc in root}
    xs = []
    succ: dict[int, int] = {}
    head: dict[int, tuple[int, str]] = {}
    for ci, (a, b, c, d, sign) in enumerate(crossings):
        a, b, c, d = flat.get(a, a), flat.get(b, b), flat.get(c, c), flat.get(d, d)
        xs.append(Crossing(a, b, c, d, sign))
        over_in, over_out = (d, b) if sign > 0 else (b, d)
        succ[a] = c
        succ[over_in] = over_out
        head[a] = (ci, "u")
        head[over_in] = (ci, "o")
    loose = ({flat.get(arc, arc) for arc in circles} | set(flat.values())) - succ.keys()
    comps = list(_cycles_of(succ)) + [(arc,) for arc in loose]
    comps.sort(key=min)
    return object.__new__(LinkDiagram)._assemble(tuple(xs), tuple(comps), head)


def _cycles_of(succ: Mapping[int, int]) -> tuple[tuple[int, ...], ...]:
    cycles = []
    left = set(succ)
    while left:
        start = min(left)
        cyc = [start]
        left.discard(start)
        cur = succ[start]
        while cur != start:
            cyc.append(cur)
            left.discard(cur)
            cur = succ[cur]
        lo = cyc.index(min(cyc))
        cycles.append(tuple(cyc[lo:] + cyc[:lo]))
    cycles.sort(key=min)
    return tuple(cycles)


# ---------------------------------------------------------------------------
# Conway polynomials


class ConwayPoly:
    """Integer polynomial in z, stored sparsely by exponent."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        clean = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent {e} is not a nonnegative integer")
            if not isinstance(c, int):
                raise ValueError(f"coefficient of z^{e} is not an integer")
            if c:
                clean[e] = c
        self._coeffs = clean

    @classmethod
    def one(cls) -> "ConwayPoly":
        return cls({0: 1})

    @classmethod
    def zero(cls) -> "ConwayPoly":
        return cls()

    def coefficient(self, i: int) -> int:
        return self._coeffs.get(i, 0)

    @property
    def coefficients(self) -> dict[int, int]:
        return dict(self._coeffs)

    @property
    def degree(self) -> int:
        return max(self._coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConwayPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant polynomial equals its int, so it hashes like it
        if self.degree <= 0:
            return hash(self.coefficient(0))
        return hash(frozenset(self._coeffs.items()))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            mono = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            if e == 0:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def __repr__(self) -> str:
        return f"ConwayPoly({self._coeffs!r})"


def coefficient(poly: ConwayPoly, i: int) -> int:
    """Coefficient of z^i in a Conway polynomial."""
    return poly.coefficient(i)


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _shift_scale(p: dict, sign: int) -> dict:
    return {e + 1: sign * c for e, c in p.items()}


def _base_value(d: LinkDiagram) -> dict:
    return {0: 1} if len(d.components) == 1 else {}


def _over_budget(budget: int) -> DiagramError:
    return DiagramError(f"diagram too costly for skein oracle: more than {budget} skein nodes expanded")


def _evaluate_memo(root: LinkDiagram, memo: dict) -> dict:
    budget = SKEIN_NODE_BUDGET
    nodes = 0
    stack: list[tuple[str, object]] = [("eval", root)]
    while stack:
        tag, payload = stack.pop()
        if tag == "eval":
            d = payload
            key = d.canonical_key()
            if key in memo:
                continue
            bad = d.first_bad_crossing()
            if bad is None:
                memo[key] = _base_value(d)
                continue
            nodes += 1
            if nodes > budget:
                raise _over_budget(budget)
            sw = d.switch_crossing(bad)
            sm = d.smooth_crossing(bad)
            stack.append(("join", (key, sw.canonical_key(), sm.canonical_key(), d.crossings[bad].sign)))
            stack.append(("eval", sw))
            stack.append(("eval", sm))
        else:
            key, kw, km, sign = payload
            if key not in memo:
                memo[key] = _add(memo[kw], _shift_scale(memo[km], sign))
    return memo[root.canonical_key()]


def _evaluate_plain(root: LinkDiagram) -> dict:
    budget = SKEIN_NODE_BUDGET
    nodes = 0
    total: dict = {}
    stack: list[tuple[LinkDiagram, dict]] = [(root, {0: 1})]
    while stack:
        d, mult = stack.pop()
        bad = d.first_bad_crossing()
        if bad is None:
            if len(d.components) == 1:
                total = _add(total, mult)
            continue
        nodes += 1
        if nodes > budget:
            raise _over_budget(budget)
        stack.append((d.switch_crossing(bad), mult))
        stack.append((d.smooth_crossing(bad), _shift_scale(mult, d.crossings[bad].sign)))
    return total


def conway_polynomial(d: LinkDiagram, *, use_memo: bool = True, memo: dict | None = None) -> ConwayPoly:
    """Conway polynomial of the diagram by descending-diagram skein recursion.

    ``memo`` may be supplied to share work across calls; by default each call
    uses a fresh table.  ``use_memo=False`` re-derives every subdiagram, which
    exists so the memoized path can be checked against an independent one.
    Either way, a diagram of more than ``SKEIN_CROSSING_LIMIT`` crossings, or
    one that expands more than ``SKEIN_NODE_BUDGET`` skein nodes, raises
    ``DiagramError``.
    """
    n = len(d.crossings)
    if n > SKEIN_CROSSING_LIMIT:
        raise DiagramError(f"diagram too large for skein oracle: {n} crossings > limit {SKEIN_CROSSING_LIMIT}")
    if use_memo:
        raw = _evaluate_memo(d, {} if memo is None else memo)
    else:
        raw = _evaluate_plain(d)
    poly = ConwayPoly(raw)
    # Holds for every planar diagram; a PD code with no planar diagram can break it.
    if len(d.components) == 2 and poly.coefficient(1) != linking_number(d, 0, 1):
        raise DiagramError("Conway z-coefficient disagrees with the linking number: the diagram is not planar")
    return poly


# ---------------------------------------------------------------------------
# Numerical link data


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j."""
    ncomp = len(d.components)
    if not (0 <= i < ncomp and 0 <= j < ncomp) or i == j:
        raise DiagramError(f"need two distinct component indices inside 0..{ncomp - 1}")
    total = 0
    for x in d.crossings:
        cu = d.arc_component(x.a)
        co = d.arc_component(x.over_in)
        if {cu, co} == {i, j}:
            total += x.sign
    if total % 2:
        raise DiagramError(f"not a planar diagram: components {i} and {j} cross an odd number of times")
    return total // 2


def invariants_from_diagram(d: LinkDiagram) -> LinkSurgeryInvariants:
    """Extract (a2_x, a2_y, a3, lk) from a two-component diagram."""
    if len(d.components) != 2:
        raise DiagramError(f"need a 2-component diagram, got {len(d.components)} components")
    memo: dict = {}
    whole = conway_polynomial(d, memo=memo)
    kx = conway_polynomial(d.component_subdiagram(0), memo=memo)
    ky = conway_polynomial(d.component_subdiagram(1), memo=memo)
    return LinkSurgeryInvariants(
        a2_x=kx.coefficient(2),
        a2_y=ky.coefficient(2),
        a3=whole.coefficient(3),
        lk=linking_number(d, 0, 1),
    )


# ---------------------------------------------------------------------------
# Generators

_CCW = ("tr", "tl", "bl", "br")  # counterclockwise port order around a crossing
_DIAG = {"bl": "tr", "tr": "bl", "br": "tl", "tl": "br"}


def _emit_record(arcs_by_port, passes, over_diag):
    """Build a PD record from the two recorded strand passes of a crossing."""
    over_in = under_in = None
    for in_port in passes:
        if {in_port, _DIAG[in_port]} == over_diag:
            over_in = in_port
        else:
            under_in = in_port
    k = _CCW.index(under_in)
    ports = [_CCW[(k + j) % 4] for j in range(4)]
    # positive exactly when the over-strand enters at slot d, just before under-in
    sign = 1 if over_in == ports[3] else -1
    a, b, c, d = (arcs_by_port[p] for p in ports)
    return Crossing(a, b, c, d, sign)


def braid_closure(word: Sequence[int], strands: int | None = None) -> LinkDiagram:
    """Closure of a braid word; letter k means the positive Artin generator
    on strands (k, k+1), negative k its inverse.  Strands run upward."""
    if strands is None:
        strands = max((abs(w) for w in word), default=1) + 1
    if strands < 1:
        raise DiagramError("braid needs at least one strand")
    for w in word:
        if w == 0 or abs(w) >= strands:
            raise DiagramError(f"braid letter {w} does not fit in {strands} strands")
    pos = list(range(1, strands + 1))
    nxt = strands + 1
    records: list[Crossing] = []
    for w in word:
        i = abs(w)
        lo, hi = pos[i - 1], pos[i]
        tl, tr = nxt, nxt + 1
        nxt += 2
        if w > 0:
            records.append(Crossing(hi, tr, tl, lo, 1))  # under br->tl, over bl->tr
        else:
            records.append(Crossing(lo, hi, tr, tl, -1))  # under bl->tr, over br->tl
        pos[i - 1], pos[i] = tl, tr
    # close up: weld the top arc of each strand to its bottom arc
    return _weld(records, zip(pos, range(1, strands + 1)))


def unknot_diagram() -> LinkDiagram:
    return LinkDiagram((), ((1,),))


def unlink_diagram(n: int) -> LinkDiagram:
    if n < 1:
        raise DiagramError("unlink needs at least one component")
    return LinkDiagram((), tuple((k,) for k in range(1, n + 1)))


def torus2_diagram(n: int) -> LinkDiagram:
    """Standard positive (2, n) torus knot diagram, odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise DiagramError(f"torus2_diagram needs odd n >= 3, got {n}")
    return braid_closure([1] * n, 2)


def pretzel_diagram(a: int, b: int) -> LinkDiagram:
    """The two-component pretzel link with twist regions (2a+1, 2b, 2b).

    Component 0 is the unknotted strand threading the two even regions;
    component 1 runs through the odd region twice and closes into a (2, 2a+1)
    torus knot.  The linking number is 0.  Positive parameters mean
    right-handed twists; the orientation conventions here are anchored by
    ``pretzel_a3_closed_form``.
    """
    _check_pretzel(a, b)
    m1, m2 = 2 * a + 1, 2 * abs(b)
    regions = [(0, m1), (m1, m2), (m1 + m2, m2)]
    adj: dict[tuple[int, str], tuple[int, str]] = {}

    def link(p, q):
        adj[p] = q
        adj[q] = p

    for base, m in regions:
        for j in range(m - 1):
            link((base + j, "tl"), (base + j + 1, "bl"))
            link((base + j, "tr"), (base + j + 1, "br"))
    tops = [base + m - 1 for base, m in regions]
    bots = [base for base, _ in regions]
    link((tops[0], "tr"), (tops[1], "tl"))
    link((tops[1], "tr"), (tops[2], "tl"))
    link((tops[2], "tr"), (tops[0], "tl"))
    link((bots[0], "br"), (bots[1], "bl"))
    link((bots[1], "br"), (bots[2], "bl"))
    link((bots[2], "br"), (bots[0], "bl"))

    arcs_by_port: dict[tuple[int, str], int] = {}
    passes: dict[int, list[str]] = {ci: [] for ci in range(m1 + 2 * m2)}
    next_arc = 1
    cycles = []
    # component 0 enters region 2 at its top right heading down; component 1
    # enters region 1 at its top left heading down
    for start in ((tops[1], "tr"), (tops[0], "tl")):
        cycle = []
        ci, in_port = start
        while True:
            passes[ci].append(in_port)
            out_port = _DIAG[in_port]
            arc = next_arc
            next_arc += 1
            arcs_by_port[(ci, out_port)] = arc
            nci, nport = adj[(ci, out_port)]
            arcs_by_port[(nci, nport)] = arc
            cycle.append(arc)
            ci, in_port = nci, nport
            if (ci, in_port) == start:
                break
        cycles.append(tuple(cycle))

    handed = {ci: 1 for ci in range(m1)}
    handed.update({ci: (1 if b > 0 else -1) for ci in range(m1, m1 + 2 * m2)})
    records = []
    for ci in range(m1 + 2 * m2):
        over = {"bl", "tr"} if handed[ci] > 0 else {"br", "tl"}
        ports = {p: arcs_by_port[(ci, p)] for p in ("bl", "br", "tl", "tr")}
        records.append(_emit_record(ports, passes[ci], over))
    return LinkDiagram(records, cycles)


# ---------------------------------------------------------------------------
# Text format


def format_pd(d: LinkDiagram) -> str:
    lines = [f"X {x.a},{x.b},{x.c},{x.d} {'+' if x.sign > 0 else '-'}" for x in d.crossings]
    lines += ["C " + ",".join(str(a) for a in cyc) for cyc in d.components]
    return "\n".join(lines) + "\n"


def parse_pd(text: str) -> LinkDiagram:
    """Parse the ``X a,b,c,d s`` / ``C a1,a2,...`` diagram format."""
    crossings = []
    components = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "X":
                if len(fields) != 3 or fields[2] not in ("+", "-"):
                    raise ValueError("expected 'X a,b,c,d s' with sign + or -")
                arcs = [int(t) for t in fields[1].split(",")]
                if len(arcs) != 4:
                    raise ValueError("crossing needs exactly four arc labels")
                crossings.append((*arcs, 1 if fields[2] == "+" else -1))
            elif fields[0] == "C":
                if len(fields) != 2:
                    raise ValueError("expected 'C a1,a2,...'")
                components.append(tuple(int(t) for t in fields[1].split(",")))
            else:
                raise ValueError(f"unknown record {fields[0]!r}")
        except ValueError as exc:
            raise DiagramError(f"line {lineno}: {exc}") from None
    try:
        d = LinkDiagram(crossings, components or None)
    except DiagramError as exc:
        raise DiagramError(f"inconsistent diagram: {exc}") from None
    # In a planar diagram two closed curves cross an even number of times.
    between = Counter(
        tuple(sorted((d.arc_component(x.a), d.arc_component(x.over_in)))) for x in d.crossings
    )
    for (i, j), count in sorted(between.items()):
        if i != j and count % 2:
            raise DiagramError(f"not a planar diagram: components {i} and {j} cross an odd number of times ({count})")
    return d
