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
then that the code has a planar diagram at all: with each crossing's four
positions read counterclockwise, n crossings whose graph has c connected
pieces bound n + 2c faces exactly when drawn on the sphere (Euler).
``parse_pd``, ``pretzel_diagram`` and the unlink generators go through it.
A braid closure is drawn in the plane, and switching or smoothing a crossing
or deleting a strand keeps a diagram planar, so braid closures (after their
letters are checked), skein children and component sub-diagrams are
assembled without being checked again.
``switch_crossing`` rewrites one record and shares everything else with its
parent.  ``smooth_crossing`` splices the one or two cycles through the
crossing and renames only the records that touch a joined arc; the result is
the diagram ``_weld`` would build from the remaining crossings.  Where an arc
lies, cycle and offset, is read from its number in the numbering below.  A
child's numbering and arc index are built when first read, so a descending
leaf never builds them.

Conway polynomial
-----------------
``conway_polynomial`` resolves a diagram by one memoized recursion that
walks the components in listed order from their base points.  A crossing met
on its under-strand before its over-strand is bad, and the first bad crossing
met is the branch site: it gets switched in one child and replaced by the
oriented smoothing in the other, and nabla(D) = nabla(switched) + sign * z *
nabla(smoothed).  Fully descending diagrams are stacked unknots: value 1 for
one component, 0 for two or more.  This holds for any base points and any
component order, since nabla is a link invariant, so the recursion chooses
them: the root and every smoothed child are first re-read from the base
points that leave the fewest bad crossings, and with at most 3 components
in the order that does (``_placed``; a tie keeps the listed choice).  A
switched child keeps its parent's reading, and that reading stays a best
one: switching the branch site changes the status of that one crossing
only, so the parent's count drops by exactly one and no other reading's
count drops by more.

The counts the placement takes decide three cases without a node:

- a split reading, whose components fall into groups with no crossing
  between them, has nabla 0, since it is a split link (L. H. Kauffman,
  "The Conway polynomial", Topology 20, 1981); switching or smoothing
  makes no crossing between two groups, so every node below it is split
  too, and none is expanded;
- a reading with no bad crossing is descending, a stacked unlink: 1 for a
  knot, 0 for a link;
- at a node with one bad crossing left, the switched child keeps the
  reading and has none, so it is descending and is not built.

None of the three is keyed or memoized; each skips only nodes whose value
is fixed, so no value and no other node changes.

Results are memoized on a canonical serialization of the diagram: arcs
renumbered 1..N in traversal order from the base points, then the crossings
sorted.  Equal keys mean the same diagram up to arc names, and the memoized
polynomial is a link invariant.  That numbering is the walk's visiting order,
so a crossing is bad exactly when its under-in arc is numbered below its
over-in arc, and the branch site is the bad crossing whose under-in arc is
numbered lowest; the pass that builds the key finds it, and nothing walks the
arcs.  A switched child has its parent's arcs and numbering, so its key and
its bad crossings are its parent's with one record replaced.  Each switch on
a path removes a bad crossing and each smoothing a crossing, so the
recursion is at most (n + 1)(n + 2)/2 calls deep on n crossings.  Shared
memo tables only ever see atomic dict lookups and stores, so concurrent
readers are safe.  One call takes a diagram of at most
``SKEIN_CROSSING_LIMIT`` crossings and expands at most ``SKEIN_NODE_BUDGET``
skein nodes; past either it raises ``DiagramError``.

Text format
-----------
One crossing per line, ``X a,b,c,d s`` with sign s in {+, -}, followed by
one ``C a1,a2,...`` line per component (in component order; the first arc is
the base point).  Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate, chain, permutations
from typing import Iterable, Mapping, NamedTuple, Sequence

# the surgery-formula records and the pretzel closed form live in arith, the
# one compute module this one imports; they stay importable from here
from .arith import LinkSurgeryInvariants, _check_pretzel, pretzel_a3_closed_form, v3

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
# number of nodes.  The costliest diagram the tests and benchmark evaluate, the
# (3, 3) pretzel link, has 19 crossings and expands 530 nodes; the default grid
# of scripts/pretzel_sweep.py reaches 640, at (3, -3).
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

    The constructor validates its input, planarity included, and raises
    ``DiagramError`` on failure.  Derived diagrams (skein children, component
    sub-diagrams) are assembled directly and not checked again.
    """

    __slots__ = ("crossings", "components", "_head_map", "_pos", "_key", "_bads")

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
        self._check_planar()
        self._assemble(self.crossings, comps, head)

    def _assemble(self, crossings, components, head=None, pos=None) -> "LinkDiagram":
        """Set every field from parts already known to form a diagram; no checks.

        The arc index, the numbering, the key and the bad crossings that are
        not given are built the first time they are read.
        """
        self.crossings = crossings
        self.components = components
        self._head_map = head
        self._pos = pos
        self._key = None
        self._bads = None
        return self

    # -- construction-time validation -------------------------------------

    def _index_crossings(self):
        succ: dict[int, int] = {}
        head: dict[int, int] = {}
        outgoing: set[int] = set()
        for ci, x in enumerate(self.crossings):
            if not isinstance(x.sign, int) or x.sign not in (1, -1):
                raise DiagramError(f"crossing {ci}: sign must be +1 or -1, got {x.sign}")
            for arc in (x.a, x.b, x.c, x.d):
                if not isinstance(arc, int) or arc < 1:
                    raise DiagramError(f"crossing {ci}: arc labels must be positive integers")
            for arc in (x.a, x.over_in):
                if arc in head:
                    raise DiagramError(f"arc {arc} enters two crossings")
                head[arc] = ci
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

    def _check_planar(self) -> None:
        """Refuse a code with no planar diagram, by Euler's formula on its rotation system.

        Dart 4i + j is position j of crossing i.  A face is an orbit of the
        step to the other end of the dart's arc, then to the next position
        counterclockwise.  A connected piece of k crossings has 2k edges, so
        it bounds k + 2 faces on the sphere and fewer on any other surface.
        """
        n = len(self.crossings)
        ends: dict[int, list[int]] = {}
        for dart, arc in enumerate(chain.from_iterable(x[:4] for x in self.crossings)):
            ends.setdefault(arc, []).append(dart)
        step, root = [0] * (4 * n), list(range(n))  # root: union-find over crossings
        for u, v in ends.values():
            step[u], step[v] = v - v % 4 + (v + 1) % 4, u - u % 4 + (u + 1) % 4
            u, v = u // 4, v // 4
            while root[u] != u:
                root[u] = u = root[root[u]]  # path halving: root[u] is set first
            while root[v] != v:
                root[v] = v = root[root[v]]
            root[u] = v
        pieces = sum(root[i] == i for i in range(n))
        faces, seen = 0, bytearray(4 * n)
        for dart in range(4 * n):
            faces += not seen[dart]
            while not seen[dart]:
                seen[dart], dart = 1, step[dart]
        if faces != n + 2 * pieces:
            raise DiagramError(
                f"not a planar diagram: {faces} faces, not the n + 2c = {n + 2 * pieces} of n crossings in c pieces"
            )

    # -- arc indexes, built on first use ---------------------------------------

    @property
    def _head(self) -> dict[int, int]:
        """The crossing each arc enters, under or over."""
        head = self._head_map
        if head is None:
            head = {}
            for i, (a, b, _, d, sign) in enumerate(self.crossings):
                head[a] = head[d if sign > 0 else b] = i
            self._head_map = head
        return head

    def _numbering(self) -> dict[int, int]:
        """Arcs numbered 1..N in traversal order: components in order, each from its base point."""
        pos = self._pos
        if pos is None:
            pos = self._pos = {arc: n for n, arc in enumerate(chain.from_iterable(self.components), 1)}
        return pos

    def _cycle_ends(self) -> list[int]:
        """The number of each cycle's last arc: the arc numbered n is on cycle bisect_left(ends, n)."""
        return list(accumulate(map(len, self.components)))

    # -- elementary facts ---------------------------------------------------

    def arc_component(self, arc: int) -> int:
        return bisect_left(self._cycle_ends(), self._numbering()[arc])

    # -- skein moves ---------------------------------------------------------

    def switch_crossing(self, i: int) -> "LinkDiagram":
        """Same diagram with crossing i switched (arc structure is unchanged).

        The same arcs enter the same crossings, so the child shares its
        parent's components, numbering and arc index.  Its key, when the
        parent has one, is the parent's with crossing i's record replaced.
        Switching the branch site makes it good and changes no other
        crossing, so the child's bad crossings are then the parent's after
        the first.
        """
        old = self.crossings[i]
        x = old.switched()
        xs = self.crossings[:i] + (x,) + self.crossings[i + 1 :]
        pos = self._pos
        child = object.__new__(LinkDiagram)._assemble(xs, self.components, self._head_map, pos)
        if self._bads and self._bads[0][1] == i:
            child._bads = self._bads[1:]
        if self._key is not None:
            lens, sig = self._key
            sig = list(sig)
            del sig[bisect_left(sig, (pos[old.a], pos[old.b], pos[old.c], pos[old.d], old.sign))]
            insort(sig, (pos[x.a], pos[x.b], pos[x.c], pos[x.d], x.sign))
            child._key = (lens, tuple(sig))
        return child

    def smooth_crossing(self, i: int) -> "LinkDiagram":
        """Oriented smoothing at crossing i: under-in joins over-out, over-in joins under-out.

        Only the cycles through crossing i change, so the child is spliced
        from them; it equals what ``_weld`` builds from the remaining
        crossings, each joined pair named by its smaller arc.  The splice
        needs a != c and over-in != over-out, which every planar diagram has.
        Where c, over-in and over-out lie, cycle and offset, is read from the
        numbering; no cycle is searched for them.
        """
        a, b, c, d, sign = self.crossings[i]
        oi, oo = (d, b) if sign > 0 else (b, d)
        m1, m2 = min(a, oo), min(oi, c)  # the names of the two joined arcs
        head = self._head
        pos = self._numbering()
        ends = self._cycle_ends()
        comps = list(self.components)
        nc, no = pos[c], pos[oi]
        ca, co = bisect_left(ends, nc), bisect_left(ends, no)
        under = comps[ca]
        k = nc - ends[ca] + len(under) - 1  # c's offset in its cycle
        under = under[k:] + under[:k]  # c, ..., a
        pred_a = under[-2]
        if ca == co:  # c, X..., oi, oo, Y..., a splits into (m2,)+X and (m1,)+Y
            k = (no - nc) % len(under)
            pred_oi = under[k - 1]
            new = [(m2,) + under[1:k], (m1,) + under[k + 2 : -1]]
            del comps[ca]
        else:  # c, X..., a and oo, Y..., oi join into (m1,)+Y+(m2,)+X
            over = comps[co]
            k = pos[oo] - ends[co] + len(over) - 1
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
            touched.add(head[oo] if a < oo else head[pred_a])
        if oi != c:
            ren[max(oi, c)] = m2
            touched.add(head[c] if oi < c else head[pred_oi])
        xs = list(self.crossings)
        for j in touched:
            y = xs[j]
            xs[j] = Crossing(ren.get(y.a, y.a), ren.get(y.b, y.b), ren.get(y.c, y.c), ren.get(y.d, y.d), y.sign)
        del xs[i]
        return object.__new__(LinkDiagram)._assemble(tuple(xs), tuple(comps))

    # -- numbering: branch site and canonical serialization ----------------------

    def _scan(self) -> list[tuple[int, int, int, int, int]]:
        """Return every record renumbered, and note the bad crossings.

        The numbering is the walk's visiting order, so crossing i is met on
        its under-strand before its over-strand exactly when its under-in arc
        is numbered below its over-in arc.  The bad crossings are kept sorted
        by that number, the walk's order.
        """
        pos = self._numbering()
        recs, bads = [], []
        for i, (a, b, c, d, sign) in enumerate(self.crossings):
            pa = pos[a]
            if pa < pos[d if sign > 0 else b]:
                bads.append((pa, i))
            recs.append((pa, pos[b], pos[c], pos[d], sign))
        bads.sort()
        self._bads = bads
        return recs

    def first_bad_crossing(self) -> int | None:
        """Index of the first crossing met on its under-strand before its over visit.

        It is the bad crossing whose under-in arc is numbered lowest in the
        numbering ``canonical_key`` uses, and the key's pass finds it; the
        skein recursion keys every node before it asks.  A switched child's
        comes from its parent's.  None on a descending diagram.  Like the key,
        it is relative to the listed base points and component order; the
        recursion chooses those before it asks.
        """
        if self._bads is None:
            self._scan()
        return self._bads[0][1] if self._bads else None

    def canonical_key(self):
        """Arcs renumbered in traversal order from the base points, crossings sorted.

        The key is relative to the listed base points and component order:
        the same diagram read from other base points has another key.  The
        pass that renumbers the records also finds the branch site.  A
        switched child's key is its parent's sorted records with the switched
        crossing's record replaced, not rebuilt.
        """
        if self._key is None:
            recs = self._scan()
            recs.sort()
            self._key = (tuple(map(len, self.components)), tuple(recs))
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
        return _weld(kept, pairs, mine)

    def __repr__(self) -> str:
        return f"LinkDiagram({len(self.crossings)} crossings, {len(self.components)} components)"


def _weld(
    crossings: Iterable[Crossing], pairs: Iterable[tuple[int, int]], circles: Iterable[int] = ()
) -> LinkDiagram:
    """Diagram of the crossings after joining each pair of arcs into one arc.

    Each welded class is renamed to its smallest arc.  A welded class, or an
    arc in ``circles``, that no crossing touches becomes a crossing-free circle.
    Every cycle is read from its smallest arc, the cycles sorted by it.  It
    closes braids and cuts out component sub-diagrams.
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
    for a, b, c, d, sign in crossings:
        a, b, c, d = flat.get(a, a), flat.get(b, b), flat.get(c, c), flat.get(d, d)
        xs.append(Crossing(a, b, c, d, sign))
        over_in, over_out = (d, b) if sign > 0 else (b, d)
        succ[a] = c
        succ[over_in] = over_out
    loose = ({flat.get(arc, arc) for arc in circles} | set(flat.values())) - succ.keys()
    comps = list(_cycles_of(succ)) + [(arc,) for arc in loose]
    comps.sort(key=min)
    return object.__new__(LinkDiagram)._assemble(tuple(xs), tuple(comps))


def _cycles_of(succ: Mapping[int, int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of ``succ``, each from its smallest arc, in increasing order of those arcs."""
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
        cycles.append(tuple(cyc))
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
        return " + ".join(parts).replace("+ -", "- ")

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


def _too_large(crossings: int) -> DiagramError:
    return DiagramError(f"diagram too large for skein oracle: {crossings} crossings > limit {SKEIN_CROSSING_LIMIT}")


def _over_budget(budget: int) -> DiagramError:
    return DiagramError(f"diagram too costly for skein oracle: more than {budget} skein nodes expanded")


def _placed(d: LinkDiagram) -> tuple[LinkDiagram, bool, int]:
    """The diagram re-read from the base points and cycle order that leave the fewest bad crossings.

    With arcs numbered in traversal order, a self-crossing whose under-in arc
    is numbered nu and whose over-in arc no is bad exactly for the base
    points no+1..nu of its cycle, read cyclically.  The prefix sums of one
    difference array over the numbering, +1 at no+1 and -1 at nu+1, count
    every base point's bad self-crossings on each cycle's slice, less the
    number of that cycle's ranges that wrap past its end (those with no > nu,
    the self-crossings bad in the listed reading): a constant per cycle,
    which does not move its minimum.  A crossing between two cycles is bad
    exactly when its under-strand's cycle comes first, whatever the base
    points, so the two choices are made apart.  Each cycle starts at its
    first best base point, and with at most 3 cycles every order is tried
    (past that the listed order stays); a tie keeps the listed base point or
    order.  The numbering of the new reading goes to the result, so keying
    it does not build it again.

    Also returned, from the same counts: whether the cycles fall into groups
    with no crossing between them (a crossing-free circle is a group of its
    own), and the number of bad crossings the new reading leaves.
    """
    comps = d.components
    k = len(comps)
    pos = d._numbering()
    marks = [0] * (len(pos) + 2)
    wraps = 0
    if k == 1:
        for a, b, _, dd, sign in d.crossings:
            nu, no = pos[a], pos[dd if sign > 0 else b]
            marks[no + 1] += 1
            marks[nu + 1] -= 1
            wraps += no > nu
    else:
        cycle = [ci for ci, cyc in enumerate(comps) for _ in cyc]  # the arc numbered n is on cycle[n - 1]
        between = [0] * (k * k)  # [u * k + o]: crossings under on cycle u, over on cycle o
        for a, b, _, dd, sign in d.crossings:
            nu, no = pos[a], pos[dd if sign > 0 else b]
            cu, co = cycle[nu - 1], cycle[no - 1]
            if cu == co:
                marks[no + 1] += 1
                marks[nu + 1] -= 1
                wraps += no > nu
            else:
                between[cu * k + co] += 1
    counts = list(accumulate(marks))
    placed, moved, end, left = [], False, 1, wraps
    for cyc in comps:
        start = end
        end += len(cyc)
        span = counts[start:end]
        low = min(span)
        left += low
        s = span.index(low)
        if s:
            cyc = cyc[s:] + cyc[:s]
            moved = True
        placed.append(cyc)
    split = False
    if k == 2:
        split = not (between[1] or between[2])
        if between[2] < between[1]:
            placed.reverse()
            moved = True
        left += min(between[1], between[2])
    elif k == 3:
        # three cycles are split when fewer than two of their pairs cross
        split = (between[1] + between[3] > 0) + (between[2] + between[6] > 0) + (between[5] + between[7] > 0) < 2

        def bad(p):
            return between[3 * p[0] + p[1]] + between[3 * p[0] + p[2]] + between[3 * p[1] + p[2]]

        order = min(permutations(range(3)), key=bad)
        if order != (0, 1, 2):
            placed = [placed[i] for i in order]
            moved = True
        left += bad(order)
    elif k > 3:
        root = list(range(k))  # union-find over the cycles, joined by each crossing between two
        for i, n in enumerate(between):
            if n:
                u, o = divmod(i, k)
                if u < o:
                    left += n
                while root[u] != u:
                    u = root[u]
                while root[o] != o:
                    o = root[o]
                root[u] = o
        split = sum(root[c] == c for c in range(k)) > 1
    if moved:
        pos = {arc: n for n, arc in enumerate(chain.from_iterable(placed), 1)}
    return object.__new__(LinkDiagram)._assemble(d.crossings, tuple(placed), d._head_map, pos), split, left


def _nabla(d: LinkDiagram, memo: dict, expanded: list[int]) -> dict:
    """nabla(d) as {exponent: coefficient}, from the reading ``_placed`` chooses.

    A split reading is a split link, nabla 0, and a reading with no bad
    crossing a stacked unlink; neither is keyed, memoized or expanded.  A
    split diagram has at least two components.
    """
    placed, split, left = _placed(d)
    if split or not left:
        return {0: 1} if len(d.components) == 1 else {}
    return _resolve(placed, memo, expanded)


# One frame per node on a root-to-leaf path, and one _nabla frame per
# smoothing.  Switching the branch site removes one bad crossing and smoothing
# removes one crossing, so at k crossings a path makes at most k - 1 switches
# before it smooths: at most (n + 1)(n + 2)/2 frames, 861 at the 40-crossing
# cap, under Python's default recursion limit of 1000.
# A module function, not a closure: a closure that calls itself is a reference
# cycle, which would keep each call's memo table until the collector ran.
def _resolve(d: LinkDiagram, memo: dict, expanded: list[int]) -> dict:
    """nabla(d) for a placed diagram that is not split and has a bad crossing.

    expanded[0] counts the call's expanded nodes.  The switched child keeps
    the reading and is not split either; with one bad crossing left it is
    descending, so its value is known and it is not built.
    """
    key = d.canonical_key()
    if key in memo:  # a membership test, so a counting table sees the hit
        return memo[key]
    expanded[0] += 1
    if expanded[0] > SKEIN_NODE_BUDGET:
        raise _over_budget(SKEIN_NODE_BUDGET)
    bads = d._bads
    bad = bads[0][1]
    # smoothing first builds the arc indexes the switched child shares
    value = _shift_scale(_nabla(d.smooth_crossing(bad), memo, expanded), d.crossings[bad].sign)
    if len(bads) > 1:
        value = _add(_resolve(d.switch_crossing(bad), memo, expanded), value)
    elif len(d.components) == 1:
        value[0] = 1  # a descending knot; the shifted smoothing has no constant term
    memo[key] = value
    return value


def conway_polynomial(d: LinkDiagram, *, memo: dict | None = None) -> ConwayPoly:
    """Conway polynomial of the diagram by one memoized descending-diagram skein recursion.

    ``memo`` may be supplied to share work across calls; by default each call
    uses a fresh table.  A diagram of more than ``SKEIN_CROSSING_LIMIT``
    crossings, or one that expands more than ``SKEIN_NODE_BUDGET`` skein
    nodes, raises ``DiagramError``.
    """
    if len(d.crossings) > SKEIN_CROSSING_LIMIT:
        raise _too_large(len(d.crossings))
    return ConwayPoly(_nabla(d, {} if memo is None else memo, [0]))


# ---------------------------------------------------------------------------
# Numerical link data


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j."""
    ncomp = len(d.components)
    if not (0 <= i < ncomp and 0 <= j < ncomp) or i == j:
        raise DiagramError(f"need two distinct component indices inside 0..{ncomp - 1}")
    pos, ends = d._numbering(), d._cycle_ends()
    return sum(
        x.sign for x in d.crossings if {bisect_left(ends, pos[x.a]), bisect_left(ends, pos[x.over_in])} == {i, j}
    ) // 2


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
        return LinkDiagram(crossings, components or None)
    except DiagramError as exc:
        raise DiagramError(f"inconsistent diagram: {exc}") from None
