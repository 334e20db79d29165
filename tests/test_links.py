"""Diagram engine tests: skein oracle values, moves, generators, PD text."""

import random
import sys
from itertools import chain, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from cosmo import links
from cosmo.links import (
    ConwayPoly,
    Crossing,
    DiagramError,
    LinkDiagram,
    LinkSurgeryInvariants,
    braid_closure,
    coefficient,
    conway_polynomial,
    format_pd,
    invariants_from_diagram,
    linking_number,
    parse_pd,
    pretzel_a3_closed_form,
    pretzel_diagram,
    torus2_diagram,
    unknot_diagram,
    unlink_diagram,
    v3,
)
from test_burau_oracle import conway_matches_burau


def torus2_conway_closed_form(n: int) -> ConwayPoly:
    """Independent route: binomial coefficients of the (2, n) torus knot."""
    import math

    k = (n - 1) // 2
    return ConwayPoly({2 * j: math.comb(k + j, 2 * j) for j in range(k + 1)})


def unmemoized_conway(d: LinkDiagram) -> ConwayPoly:
    """Reference route for the memo table: sum the leaves of the whole skein tree.

    Every path from the root multiplies by sign * z once per smoothing, so a
    path carries a monomial c z^e; a one-component descending leaf adds it.
    """
    total: dict[int, int] = {}
    stack = [(d, 0, 1)]
    while stack:
        d, e, c = stack.pop()
        bad = d.first_bad_crossing()
        if bad is None:
            if len(d.components) == 1:
                total[e] = total.get(e, 0) + c
            continue
        stack.append((d.switch_crossing(bad), e, c))
        stack.append((d.smooth_crossing(bad), e + 1, c * d.crossings[bad].sign))
    return ConwayPoly(total)


# small random braid closures for property tests
braid_words = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda w: w != 0),
    min_size=1,
    max_size=7,
)


def closed(word):
    return braid_closure(word, 4)


class TestConwayValues:
    def test_unknot_and_unlinks(self):
        assert conway_polynomial(unknot_diagram()) == ConwayPoly.one()
        for n in (2, 3, 4):
            assert conway_polynomial(unlink_diagram(n)).is_zero()

    def test_hopf_links(self):
        pos = braid_closure([1, 1], 2)
        neg = braid_closure([-1, -1], 2)
        assert conway_polynomial(pos) == ConwayPoly({1: 1})
        assert conway_polynomial(neg) == ConwayPoly({1: -1})
        assert linking_number(pos, 0, 1) == 1
        assert linking_number(neg, 0, 1) == -1

    def test_trefoil(self):
        assert conway_polynomial(torus2_diagram(3)) == ConwayPoly({0: 1, 2: 1})

    def test_figure_eight(self):
        d = braid_closure([1, -2, 1, -2], 3)
        assert len(d.components) == 1
        assert conway_polynomial(d) == ConwayPoly({0: 1, 2: -1})

    def test_torus_knot_family_against_closed_form(self):
        for n in (3, 5, 7, 9):
            d = torus2_diagram(n)
            assert conway_polynomial(d) == torus2_conway_closed_form(n)

    def test_one_crossing_kink_is_unknot(self):
        kink = braid_closure([1], 2)
        assert len(kink.components) == 1
        assert len(kink.crossings) == 1
        assert conway_polynomial(kink) == ConwayPoly.one()

    def test_solomon_link(self):
        # the (2, 4) torus link
        d = braid_closure([1, 1, 1, 1], 2)
        assert len(d.components) == 2
        assert linking_number(d, 0, 1) == 2
        assert conway_polynomial(d) == ConwayPoly({1: 2, 3: 1})


class TestSkeinProperties:
    @settings(max_examples=40, deadline=None)
    @given(braid_words)
    def test_engines_agree(self, word):
        d = closed(word)
        assert conway_polynomial(d) == unmemoized_conway(d)
        d = braid_closure([1, -2, 1, -2, 1, -2], 3)
        assert conway_polynomial(d) == unmemoized_conway(d)

    @settings(max_examples=40, deadline=None)
    @given(braid_words, st.data())
    def test_skein_relation_at_any_crossing(self, word, data):
        d = closed(word)
        i = data.draw(st.integers(min_value=0, max_value=len(d.crossings) - 1))
        sign = d.crossings[i].sign
        lhs = conway_polynomial(d).coefficients
        sw = conway_polynomial(d.switch_crossing(i)).coefficients
        sm = conway_polynomial(d.smooth_crossing(i)).coefficients
        rhs = dict(sw)
        for e, c in sm.items():
            rhs[e + 1] = rhs.get(e + 1, 0) + sign * c
        assert lhs == {e: c for e, c in rhs.items() if c}

    @settings(max_examples=30, deadline=None)
    @given(braid_words)
    def test_mirror_negates_odd_powers(self, word):
        d = closed(word)
        mirrored = d
        for i in range(len(d.crossings)):
            mirrored = mirrored.switch_crossing(i)
        p = conway_polynomial(d).coefficients
        q = conway_polynomial(mirrored).coefficients
        assert q == {e: ((-1) ** e) * c for e, c in p.items()}

    @settings(max_examples=30, deadline=None)
    @given(braid_words, st.data())
    def test_stabilization_invariance(self, word, data):
        # a trivial extra loop around one more strand does not change the link
        d = closed(word)
        sign = data.draw(st.sampled_from([4, -4]))
        stabilized = braid_closure(list(word) + [sign], 5)
        assert conway_polynomial(stabilized) == conway_polynomial(d)

    @settings(max_examples=30, deadline=None)
    @given(braid_words, st.data())
    def test_cancelling_pair_invariance(self, word, data):
        d = closed(word)
        k = data.draw(st.integers(min_value=1, max_value=3))
        pos = data.draw(st.integers(min_value=0, max_value=len(word)))
        padded = list(word[:pos]) + [k, -k] + list(word[pos:])
        assert conway_polynomial(closed(padded)) == conway_polynomial(d)

    @settings(max_examples=30, deadline=None)
    @given(braid_words, st.data())
    def test_base_point_choice_is_immaterial(self, word, data):
        # the first arc of each cycle is its base point
        d = closed(word)
        rotated = []
        for ci, cyc in enumerate(d.components):
            k = data.draw(st.integers(min_value=0, max_value=len(cyc) - 1), label=f"base{ci}")
            rotated.append(cyc[k:] + cyc[:k])
        moved = LinkDiagram(d.crossings, rotated)
        assert conway_polynomial(moved) == conway_polynomial(d)

    @settings(max_examples=30, deadline=None)
    @given(braid_words, st.data())
    def test_component_order_is_immaterial(self, word, data):
        d = closed(word)
        perm = data.draw(st.permutations(range(len(d.components))))
        shuffled = LinkDiagram(d.crossings, [d.components[i] for i in perm])
        assert conway_polynomial(shuffled) == conway_polynomial(d)

    @settings(max_examples=40, deadline=None)
    @given(braid_words)
    def test_parity_of_exponents(self, word):
        d = closed(word)
        parity = (len(d.components) - 1) % 2
        poly = conway_polynomial(d)
        assert all(e % 2 == parity for e in poly.coefficients)

    def test_memo_table_is_shared_across_calls(self):
        memo = {}
        first = conway_polynomial(torus2_diagram(7), memo=memo)
        assert memo
        size = len(memo)
        again = conway_polynomial(torus2_diagram(7), memo=memo)
        assert again == first
        assert len(memo) == size


class TestMoves:
    def test_switch_flips_sign_and_keeps_components(self):
        d = braid_closure([1, 1], 2)
        s = d.switch_crossing(0)
        assert s.crossings[0].sign == -d.crossings[0].sign
        assert s.components == d.components
        assert s.switch_crossing(0).crossings == d.crossings

    def test_smoothing_kink_gives_two_circles(self):
        kink = braid_closure([1], 2)
        smoothed = kink.smooth_crossing(0)
        assert len(smoothed.crossings) == 0
        assert len(smoothed.components) == 2

    def test_smoothing_hopf_gives_unknot(self):
        hopf = braid_closure([1, 1], 2)
        smoothed = hopf.smooth_crossing(0)
        assert len(smoothed.components) == 1
        assert conway_polynomial(smoothed) == ConwayPoly.one()

    def test_smoothing_merges_components(self):
        hopf = braid_closure([1, 1], 2)
        assert len(hopf.components) == 2
        assert len(hopf.smooth_crossing(1).components) == 1


class TestComponentExtraction:
    def test_hopf_components_are_unknots(self):
        hopf = braid_closure([1, 1], 2)
        for i in (0, 1):
            sub = hopf.component_subdiagram(i)
            assert len(sub.components) == 1
            assert conway_polynomial(sub) == ConwayPoly.one()

    def test_pretzel_components(self):
        d = pretzel_diagram(1, 1)
        c0 = d.component_subdiagram(0)
        c1 = d.component_subdiagram(1)
        assert conway_polynomial(c0) == ConwayPoly.one()
        assert conway_polynomial(c1) == ConwayPoly({0: 1, 2: 1})

    def test_bad_index_rejected(self):
        with pytest.raises(DiagramError):
            unknot_diagram().component_subdiagram(1)

    def test_untouched_strand_is_a_circle(self):
        sub = braid_closure([1, 1], 3).component_subdiagram(2)
        assert sub.crossings == ()
        assert sub.components == ((3,),)

    def test_unlink_component_keeps_its_label(self):
        assert unlink_diagram(2).component_subdiagram(1).components == ((2,),)

    def test_braid_closure_labels_pinned(self):
        d = braid_closure([1, 2, -1], 3)
        assert d.crossings == (
            Crossing(2, 5, 4, 1, 1),
            Crossing(3, 3, 6, 5, 1),
            Crossing(4, 6, 2, 1, -1),
        )
        assert d.components == ((1, 5, 3, 6), (2, 4))


class TestPretzelFamily:
    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("b", [-2, -1, 1, 2])
    def test_against_closed_form(self, a, b):
        d = pretzel_diagram(a, b)
        assert len(d.crossings) == 2 * a + 1 + 4 * abs(b)
        inv = invariants_from_diagram(d)
        assert inv.lk == 0
        assert inv.a2_x == 0
        assert inv.a2_y == a * (a + 1) // 2
        assert inv.a3 == pretzel_a3_closed_form(a, b)

    def test_frozen_examples(self):
        assert pretzel_a3_closed_form(1, 1) == -2
        assert pretzel_a3_closed_form(1, -1) == -1
        assert pretzel_a3_closed_form(1, 2) == -9
        assert pretzel_a3_closed_form(2, 1) == -3

    def test_invariants_tuple(self):
        inv = invariants_from_diagram(pretzel_diagram(1, 1))
        assert inv == LinkSurgeryInvariants(a2_x=0, a2_y=1, a3=-2, lk=0)

    def test_bad_parameters(self):
        for f in (pretzel_diagram, pretzel_a3_closed_form):
            with pytest.raises(ValueError, match="^pretzel parameter a must be >= 1, got 0$"):
                f(0, 1)
            with pytest.raises(ValueError, match="^pretzel parameter b must be nonzero$"):
                f(1, 0)


class TestV3:
    def test_zero_linking_reduces_to_a3(self):
        from fractions import Fraction

        inv = LinkSurgeryInvariants(a2_x=5, a2_y=7, a3=4, lk=0)
        assert v3(inv) == Fraction(-4, 2)

    def test_general_value(self):
        from fractions import Fraction

        inv = LinkSurgeryInvariants(a2_x=1, a2_y=2, a3=3, lk=2)
        # (-3 + 3*2)/2 + (8-2)/24
        assert v3(inv) == Fraction(3, 2) + Fraction(6, 24)

    def test_whitehead_style_input(self):
        from fractions import Fraction

        inv = invariants_from_diagram(pretzel_diagram(1, 1))
        assert v3(inv) == Fraction(1)


class TestDiagramValidation:
    def test_arc_used_twice_incoming(self):
        with pytest.raises(DiagramError):
            LinkDiagram([(1, 2, 1, 2, 1), (1, 2, 1, 2, 1)])

    def test_cycle_mismatch(self):
        hopf = braid_closure([1, 1], 2)
        with pytest.raises(DiagramError):
            LinkDiagram(hopf.crossings, ((1, 2), (3, 4)))

    def test_bad_sign(self):
        with pytest.raises(DiagramError):
            LinkDiagram([(1, 2, 3, 4, 0)], ((1, 3), (2, 4)))

    @pytest.mark.parametrize(
        "records, arc",
        [
            ([(1, 2, 1, 3, 1), (2, 5, 7, 4, 1), (7, 4, 3, 5, 1)], 1),  # under strand 1 -> 1
            ([(1, 3, 2, 3, 1), (2, 4, 1, 4, -1)], 3),  # over strand 3 -> 3
        ],
    )
    def test_self_loop_strand_rejected(self, records, arc):
        # a strand that runs straight back into its crossing cuts the other
        # strand's ends apart, so the code bounds too few faces
        with pytest.raises(DiagramError) as exc:
            LinkDiagram(records)
        faces = {1: "1 faces, not the n + 2c = 5", 3: "2 faces, not the n + 2c = 4"}[arc]
        assert str(exc.value) == f"not a planar diagram: {faces} of n crossings in c pieces"

    def test_self_loop_rejected_when_read(self):
        with pytest.raises(DiagramError) as exc:
            parse_pd("X 1,2,1,3 +\nX 2,5,7,4 +\nX 7,4,3,5 +\n")
        assert str(exc.value) == (
            "inconsistent diagram: not a planar diagram: 1 faces, not the n + 2c = 5 of n crossings in c pieces"
        )

    def test_linking_number_needs_distinct_components(self):
        hopf = braid_closure([1, 1], 2)
        with pytest.raises(DiagramError):
            linking_number(hopf, 0, 0)
        with pytest.raises(DiagramError):
            linking_number(hopf, 0, 2)


class TestBraidInput:
    def test_letter_out_of_range(self):
        with pytest.raises(DiagramError):
            braid_closure([3], 3)
        with pytest.raises(DiagramError):
            braid_closure([0], 2)

    def test_trivial_word_gives_unlink(self):
        d = braid_closure([], 3)
        assert len(d.components) == 3
        assert conway_polynomial(d).is_zero()

    def test_torus_generator_rejects_even_or_small(self):
        with pytest.raises(DiagramError):
            torus2_diagram(4)
        with pytest.raises(DiagramError):
            torus2_diagram(1)


class TestPolynomialType:
    def test_normalization_drops_zeros(self):
        p = ConwayPoly({0: 1, 2: 0, 4: -3})
        assert p.coefficients == {0: 1, 4: -3}
        assert p.degree == 4
        assert coefficient(p, 2) == 0
        assert coefficient(p, 4) == -3

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            ConwayPoly({-1: 2})
        with pytest.raises(ValueError):
            ConwayPoly({1: 1.5})

    def test_equality_with_ints(self):
        assert ConwayPoly({0: 1}) == 1
        assert ConwayPoly() == 0
        assert ConwayPoly({1: 1}) != 1

    def test_hash_agrees_with_equality(self):
        # equal objects hash equal, so a set or dict key cannot hold both
        assert hash(ConwayPoly.one()) == hash(1)
        assert hash(ConwayPoly()) == hash(0)
        assert hash(ConwayPoly({0: -7})) == hash(-7)
        assert len({ConwayPoly.one(), 1}) == 1
        assert {ConwayPoly(): "zero"}[0] == "zero"
        assert hash(ConwayPoly({0: 1, 2: 1})) == hash(ConwayPoly({2: 1, 0: 1}))

    def test_str_forms(self):
        assert str(ConwayPoly()) == "0"
        assert str(ConwayPoly({0: 1, 2: 1})) == "1 + z^2"
        assert str(ConwayPoly({1: -1})) == "-z"
        assert str(ConwayPoly({0: 1, 2: -3})) == "1 - 3*z^2"


class TestTextFormat:
    def test_round_trip(self):
        for d in (braid_closure([1, 1], 2), torus2_diagram(5), pretzel_diagram(1, -1)):
            back = parse_pd(format_pd(d))
            assert back.crossings == d.crossings
            assert back.components == d.components
            assert conway_polynomial(back) == conway_polynomial(d)

    def test_comments_and_blanks(self):
        text = """
        # a positive hopf link
        X 2,4,3,1 +   # first crossing
        X 4,2,1,3 +

        C 1,4
        C 2,3
        """
        d = parse_pd(text)
        assert conway_polynomial(d) == ConwayPoly({1: 1})

    def test_components_may_be_inferred(self):
        d = parse_pd("X 2,4,3,1 +\nX 4,2,1,3 +\n")
        assert len(d.components) == 2

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(DiagramError, match="line 1"):
            parse_pd("X 1,2,3 +")
        with pytest.raises(DiagramError, match="line 2"):
            parse_pd("X 2,3,4,1 +\nY 1,2\n")
        with pytest.raises(DiagramError, match="line 1"):
            parse_pd("X 1,2,3,4 *")
        with pytest.raises(DiagramError, match="line 1"):
            parse_pd("X a,b,c,d +")

    def test_inconsistent_diagram_reported(self):
        with pytest.raises(DiagramError, match="inconsistent"):
            parse_pd("X 2,4,3,1 +\nX 4,2,1,3 +\nC 1,2,3,4\n")


class TestCanonicalKey:
    def test_stable_under_arc_relabeling(self):
        d = braid_closure([1, 1], 2)
        shift = {a: a + 10 for cyc in d.components for a in cyc}
        moved = LinkDiagram(
            [
                (shift[x.a], shift[x.b], shift[x.c], shift[x.d], x.sign)
                for x in d.crossings
            ],
            [[shift[a] for a in cyc] for cyc in d.components],
        )
        assert moved.canonical_key() == d.canonical_key()

    def test_distinguishes_signs(self):
        pos = braid_closure([1, 1], 2)
        neg = braid_closure([-1, -1], 2)
        assert pos.canonical_key() != neg.canonical_key()


class TestTrustedAssembly:
    """Skein children skip validation; re-validating them must change nothing."""

    @staticmethod
    def assert_revalidates(d):
        again = LinkDiagram(d.crossings, d.components)
        assert again.crossings == d.crossings
        assert again.components == d.components
        assert again._head == d._head
        assert again._arc_component == d._arc_component
        assert again.canonical_key() == d.canonical_key()

    def walk_skein_tree(self, root):
        """Check every diagram the memoized recursion builds from root; return their number."""
        self.assert_revalidates(root)
        seen, stack, built = set(), [root], 1
        while stack:
            d = stack.pop()
            key = d.canonical_key()
            bad = d.first_bad_crossing()
            if key in seen or bad is None:
                continue
            seen.add(key)
            for child in (d.switch_crossing(bad), d.smooth_crossing(bad)):
                self.assert_revalidates(child)
                stack.append(child)
                built += 1
        return built

    def walk_with_components(self, d):
        built = self.walk_skein_tree(d)
        for i in range(len(d.components)):
            built += self.walk_skein_tree(d.component_subdiagram(i))
        return built

    def test_braid_closures(self):
        rng = random.Random(8)
        built = 0
        for _ in range(300):
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10))]
            built += self.walk_with_components(braid_closure(word, strands))
        assert built > 3000

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [-2, -1, 1, 2])
    def test_pretzels_read_back_from_text(self, a, b):
        self.walk_with_components(parse_pd(format_pd(pretzel_diagram(a, b))))

    def test_torus_knots(self):
        for n in range(3, 16, 2):
            self.walk_with_components(torus2_diagram(n))


def welded_smoothing(d, i):
    """Independent route to the smoothing at crossing i: re-weld the whole diagram."""
    x = d.crossings[i]
    circles = [cyc[0] for cyc in d.components if len(cyc) == 1]
    return links._weld(d.crossings[:i] + d.crossings[i + 1 :], ((x.a, x.over_out), (x.over_in, x.c)), circles)


class TestSmoothingSplice:
    """smooth_crossing splices the touched cycles; it must build exactly the welded diagram."""

    @staticmethod
    def assert_smoothings_weld(d):
        """Compare every smoothing of d field by field; return the kinks among its crossings."""
        kinks = 0
        for i, x in enumerate(d.crossings):
            spliced, welded = d.smooth_crossing(i), welded_smoothing(d, i)
            assert spliced.crossings == welded.crossings
            assert spliced.components == welded.components
            assert spliced._head == welded._head
            assert spliced._arc_component == welded._arc_component
            kinks += x.a == x.over_out or x.over_in == x.c
        return kinks

    def walk(self, root):
        """Check every node of the memoized skein tree of root; return (nodes, kinks)."""
        seen, stack, nodes, kinks = set(), [root], 0, 0
        while stack:
            d = stack.pop()
            key = d.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            nodes += 1
            kinks += self.assert_smoothings_weld(d)
            bad = d.first_bad_crossing()
            if bad is not None:
                stack += [d.switch_crossing(bad), d.smooth_crossing(bad)]
        return nodes, kinks

    def test_braid_closures(self):
        rng = random.Random(13)
        nodes = kinks = 0
        for _ in range(120):
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 9))]
            n, k = self.walk(braid_closure(word, strands))
            nodes, kinks = nodes + n, kinks + k
        assert nodes > 2000 and kinks > 1000

    @pytest.mark.parametrize("a, b", [(1, 1), (1, -2), (2, 1), (2, -1)])
    def test_pretzels_read_back_from_text(self, a, b):
        self.walk(parse_pd(format_pd(pretzel_diagram(a, b))))

    def test_small_diagrams(self):
        for d in (torus2_diagram(3), torus2_diagram(7), braid_closure([1, 1], 2), braid_closure([1], 2)):
            self.walk(d)
        assert self.assert_smoothings_weld(braid_closure([1], 2)) == 1

    def test_base_points_off_the_smallest_arc(self):
        # a root read from text keeps its base points and component order
        d = braid_closure([1, -2, 1, 2, -1], 3)
        moved = LinkDiagram(d.crossings, [cyc[1:] + cyc[:1] for cyc in reversed(d.components)])
        self.walk(moved)

    def test_random_planar_codes(self):
        # planar codes that no braid produces, smoothed down at random crossings
        rng = random.Random(5)
        smoothed = 0
        for d in random_planar_codes(5, 3000):
            while d.crossings:
                self.assert_smoothings_weld(d)
                smoothed += len(d.crossings)
                d = d.smooth_crossing(rng.randrange(len(d.crossings)))
        assert smoothed > 1000


def seeded_braids(seed, count, letters):
    """Closures of seeded random braid words on 2-5 strands with 0..letters letters."""
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, letters))]
        yield braid_closure(word, strands)


def walked_bad_crossings(crossings, components):
    """Independent route to the bad crossings, in the order met: walk every arc from the base points."""
    head = {}
    for i, x in enumerate(crossings):
        head[x.a] = (i, "u")
        head[x.over_in] = (i, "o")
    seen, bad = set(), []
    for arc in chain.from_iterable(components):
        hit = head.get(arc)
        if hit is None:
            continue
        i, role = hit
        if role == "o":
            seen.add(i)
        elif i not in seen:
            bad.append(i)
    return bad


def walked_bad_crossing(d):
    """Independent route to the branch site: the first bad crossing the walk meets."""
    bad = walked_bad_crossings(d.crossings, d.components)
    return bad[0] if bad else None


def random_codes(seed, count):
    """Random pairings of in- and out-arcs: consistent crossing records, mostly not planar."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        ins, outs = rng.sample(range(1, 2 * n + 1), 2 * n), rng.sample(range(1, 2 * n + 1), 2 * n)
        records = []
        for j in range(n):
            a, oi, c, oo = ins[2 * j], ins[2 * j + 1], outs[2 * j], outs[2 * j + 1]
            records.append((a, oo, c, oi, 1) if rng.random() < 0.5 else (a, oi, c, oo, -1))
        yield records


def random_planar_codes(seed, count):
    """The random codes the constructor accepts: exactly the planar ones."""
    for records in random_codes(seed, count):
        try:
            yield LinkDiagram(records)
        except DiagramError:
            continue


class TestPlanarity:
    """The constructor's face count refuses exactly the codes with no planar diagram."""

    @classmethod
    def welded_conway(cls, d):
        """nabla by plain skein recursion on welded smoothings, which take a non-planar code too."""
        bad = d.first_bad_crossing()
        if bad is None:
            return {0: 1} if len(d.components) == 1 else {}
        value = cls.welded_conway(d.switch_crossing(bad))
        for e, c in cls.welded_conway(welded_smoothing(d, bad)).items():
            value[e + 1] = value.get(e + 1, 0) + d.crossings[bad].sign * c
        return value

    def test_seeded_random_codes(self, monkeypatch):
        # the checks the face count replaced, run on the codes built without it:
        # a strand that runs straight back into its crossing, two components
        # crossing an odd number of times, a Conway z-coefficient other than lk
        looped = accepted = refused = old_refused = 0
        for records in random_codes(1, 3000):
            try:
                LinkDiagram(records)
                planar = True
            except DiagramError as exc:
                assert str(exc).startswith("not a planar diagram: ")
                planar = False
            if any(a == c or b == d for a, b, c, d, _ in records):
                looped += 1
                assert not planar
                continue
            accepted += 1
            refused += not planar
            with monkeypatch.context() as m:
                m.setattr(LinkDiagram, "_check_planar", lambda self: None)
                d = LinkDiagram(records)
            between = [{d.arc_component(x.a), d.arc_component(x.over_in)} for x in d.crossings]
            odd = any(len(pair) == 2 and between.count(pair) % 2 for pair in between)
            if not odd and len(d.components) == 2:
                odd = self.welded_conway(d).get(1, 0) != linking_number(d, 0, 1)
            old_refused += odd
            assert not (planar and odd)
        assert (looped, accepted, refused, old_refused) == (1801, 1199, 679, 346)

    def test_planar_families_and_their_children_pass(self):
        rng = random.Random(16)
        roots = [pretzel_diagram(a, b) for a in range(1, 7) for b in range(-6, 7) if b]
        for _ in range(300):
            strands = rng.randint(2, 6)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 14))]
            roots.append(braid_closure(word, strands))
        checked = 0
        for d in roots:
            for i in range(len(d.crossings)):
                for child in (d.switch_crossing(i), d.smooth_crossing(i)):
                    LinkDiagram(child.crossings, child.components)
                    checked += 1
            LinkDiagram(d.crossings, d.components)
        assert checked > 7000


class TestBranchSite:
    """The branch site read off the key's numbering is the one the arc walk finds."""

    @staticmethod
    def assert_switches_agree(d):
        """Switch every crossing: the child's branch site and key match a fresh copy's."""
        for i in range(len(d.crossings)):
            child = d.switch_crossing(i)
            fresh = LinkDiagram(child.crossings, child.components)
            assert child.first_bad_crossing() == walked_bad_crossing(fresh) == fresh.first_bad_crossing()
            assert child.canonical_key() == fresh.canonical_key()

    def walk(self, root, switch_all=False):
        """Compare the branch site at every node of the memoized skein tree of root; return the nodes expanded."""
        seen, stack, expanded = set(), [root], 0
        while stack:
            d = stack.pop()
            key = d.canonical_key()
            bad = d.first_bad_crossing()
            assert bad == walked_bad_crossing(d)
            if switch_all:
                self.assert_switches_agree(d)
            if key in seen or bad is None:
                continue
            seen.add(key)
            expanded += 1
            stack += [d.switch_crossing(bad), d.smooth_crossing(bad)]
        return expanded

    def test_braid_closures(self):
        expanded = sum(self.walk(d, switch_all=k < 40) for k, d in enumerate(seeded_braids(21, 150, 10)))
        assert expanded > 1400

    def test_base_points_off_the_smallest_arc(self):
        d = braid_closure([1, -2, 1, 2, -1, -2], 3)
        moved = LinkDiagram(d.crossings, [cyc[2:] + cyc[:2] for cyc in reversed(d.components)])
        assert moved.components[0][0] != min(moved.components[0])
        self.walk(moved, switch_all=True)

    def test_crossing_free_circles(self):
        # unused strands close into circles; listed first, they are walked first
        d = braid_closure([2, -2, 2, 4, -4], 6)
        circles = [cyc for cyc in d.components if len(cyc) == 1]
        assert len(circles) == 2
        self.walk(d, switch_all=True)
        self.walk(LinkDiagram(d.crossings, circles + [cyc for cyc in d.components if len(cyc) > 1]))
        assert walked_bad_crossing(unlink_diagram(3)) is unlink_diagram(3).first_bad_crossing() is None

    def test_random_planar_codes(self):
        assert sum(self.walk(d, switch_all=True) for d in random_planar_codes(5, 3000)) > 500

    def test_expanded_nodes_pinned_on_a_braid_sample(self, monkeypatch):
        # one smooth_crossing call per expanded node (the last switch of a
        # chain is not built); the sample expanded 2,811 from the listed base
        # points, 960 from the placed ones, and 881 once split readings are
        # not expanded: the 79 split nodes of those 960
        calls = []
        smooth = LinkDiagram.smooth_crossing
        monkeypatch.setattr(LinkDiagram, "smooth_crossing", lambda d, i: calls.append(i) or smooth(d, i))
        for d in seeded_braids(34, 200, 12):
            conway_polynomial(d)
        assert len(calls) == 881


def fewest_bad_crossings(d):
    """Brute force: every rotation of every cycle, in every order when there are at most 3 cycles."""
    orders = permutations(d.components) if len(d.components) <= 3 else [d.components]
    return min(
        len(walked_bad_crossings(d.crossings, rotated))
        for order in orders
        for rotated in product(*[[cyc[k:] + cyc[:k] for k in range(len(cyc))] for cyc in order])
    )


def crossing_groups_split(d):
    """Brute force: do the components fall into groups with no crossing between them?"""
    comp = {arc: ci for ci, cyc in enumerate(d.components) for arc in cyc}
    linked = {frozenset((comp[x.a], comp[x.over_in])) for x in d.crossings}
    reached, grew = {0}, True
    while grew:
        grew = False
        for pair in linked:
            if len(pair) == 2 and len(pair & reached) == 1:
                reached |= pair
                grew = True
    return len(reached) < len(d.components)


class TestPlacement:
    """The recursion re-reads each diagram from base points and an order that leave the fewest bad crossings."""

    @staticmethod
    def assert_placed_best(d):
        placed, split, left = links._placed(d)
        best = fewest_bad_crossings(d)
        assert placed.crossings is d.crossings
        assert len(walked_bad_crossings(placed.crossings, placed.components)) == best == left
        assert split == crossing_groups_split(d)
        # the same cycles, each rotated; past 3 cycles in the listed order
        assert sorted(map(sorted, placed.components)) == sorted(map(sorted, d.components))
        if len(d.components) > 3:
            assert [set(c) for c in placed.components] == [set(c) for c in d.components]
        # a tie keeps the listed reading
        listed = len(walked_bad_crossings(d.crossings, d.components))
        if listed == best:
            assert placed.components == d.components
        # the numbering handed over is the one the cycles give
        fresh = LinkDiagram(placed.crossings, placed.components)
        assert placed.canonical_key() == fresh.canonical_key()
        bad = placed.first_bad_crossing()
        assert bad == walked_bad_crossing(placed) == fresh.first_bad_crossing()
        if bad is not None:
            # switching the branch site leaves the count one lower, still the fewest
            child = placed.switch_crossing(bad)
            count = len(walked_bad_crossings(child.crossings, child.components))
            assert count == best - 1 == fewest_bad_crossings(child)
        return listed > best

    def test_braid_closures(self):
        # the sample of TestBranchSite, and the smoothing at each root's branch
        # site; the placement lowers the count on 147 of them
        roots = list(seeded_braids(21, 150, 10))
        smoothed = [d.smooth_crossing(d.first_bad_crossing()) for d in roots if d.first_bad_crossing() is not None]
        assert sum(map(self.assert_placed_best, roots + smoothed)) == 147
        assert sum(len(d.components) > 3 for d in roots) > 10

    def test_random_planar_codes(self):
        # the placement lowers the count on 300 of the 510 codes
        assert sum(map(self.assert_placed_best, random_planar_codes(5, 3000))) == 300

    def test_base_points_off_the_smallest_arc(self):
        d = braid_closure([1, -2, 1, 2, -1, -2], 3)
        moved = LinkDiagram(d.crossings, [cyc[2:] + cyc[:2] for cyc in reversed(d.components)])
        assert self.assert_placed_best(moved)
        components, key = moved.components, LinkDiagram(d.crossings, moved.components).canonical_key()
        assert conway_polynomial(moved) == unmemoized_conway(moved) == conway_polynomial(d)
        # the recursion re-reads a copy: the caller's diagram keeps its reading and key
        assert moved.components is components and moved.canonical_key() == key


class TestSkeinShortcuts:
    """Split readings and descending readings get their value without a key, and the last switch is not built.

    Every value is checked against two routes outside the recursion: the
    reduced-Burau oracle and the plain skein of ``TestPlanarity``.
    """

    @staticmethod
    def verdicts(monkeypatch):
        """Record (split, bad crossings left) for every diagram the recursion places."""
        seen = []
        placed = links._placed

        def recording(d):
            out = placed(d)
            seen.append(out[1:])
            return out

        monkeypatch.setattr(links, "_placed", recording)
        return seen

    @staticmethod
    def check(word, strands):
        """nabla of the closure, checked against both routes; return _placed's verdict on the closure."""
        d = braid_closure(word, strands)
        value = conway_polynomial(d)
        assert conway_matches_burau(value.coefficients, word, strands), (word, strands)
        assert value == ConwayPoly(TestPlanarity.welded_conway(d)), (word, strands)
        _, split, left = links._placed(d)
        assert split == crossing_groups_split(d)
        return d, value, split, left

    @staticmethod
    def words(seed, count, letters, length):
        rng = random.Random(seed)
        for _ in range(count):
            yield [rng.choice((1, -1)) * rng.choice(letters) for _ in range(rng.randint(0, length))]

    def test_split_closures_expand_no_node(self, monkeypatch):
        # letters +-1 and +-3 on 4 strands, and +-1 and +-4 on 5, where the
        # unused middle strand closes into a crossing-free circle
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 0)
        for letters, strands in (((1, 3), 4), ((1, 4), 5)):
            for word in self.words(2301, 150, letters, 10):
                d, value, split, _ = self.check(word, strands)
                assert split and value == 0 and len(d.components) >= 2

    def test_two_torus_knots_side_by_side(self, monkeypatch):
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 0)
        word = [1] * 19 + [3] * 19
        value = conway_polynomial(braid_closure(word, 4))
        assert value == 0 and conway_matches_burau(value.coefficients, word, 4)

    def test_three_components(self, monkeypatch):
        # split exactly when fewer than two of the three pairs cross
        verdicts = self.verdicts(monkeypatch)
        pairs = {0: 0, 1: 0, 2: 0, 3: 0}
        for word in self.words(2302, 600, (1, 2, 3), 9):
            d = braid_closure(word, 4)
            if len(d.components) != 3:
                continue
            comp = {arc: ci for ci, cyc in enumerate(d.components) for arc in cyc}
            linked = sum(len(pair) == 2 for pair in {frozenset((comp[x.a], comp[x.over_in])) for x in d.crossings})
            _, _, split, _ = self.check(word, 4)
            assert split == (linked < 2)
            pairs[linked] += 1
        assert min(pairs.values()) >= 10
        assert (True, 0) in verdicts and any(not split and left for split, left in verdicts)

    def test_four_or_more_components(self, monkeypatch):
        # pure braids of squared letters: strands i and i + 1 cross exactly
        # when the letter i is used, so a closure is split when one is missing
        verdicts = self.verdicts(monkeypatch)
        rng = random.Random(2303)
        split_roots = linked_roots = 0
        for _ in range(300):
            strands = rng.randint(4, 6)
            word = []
            for _ in range(rng.randint(1, 6)):
                word += [rng.choice((1, -1)) * rng.randint(1, strands - 1)] * 2
            _, _, split, _ = self.check(word, strands)
            assert split == (len({abs(w) for w in word}) < strands - 1)
            split_roots += split
            linked_roots += not split
        assert split_roots >= 100 and linked_roots >= 30
        assert sum(split for split, _ in verdicts) > 300

    def test_descending_best_readings(self, monkeypatch):
        # the listed reading has a bad crossing, the placed one none: the
        # value comes without a node
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 0)
        knots = links_ = 0
        for word in self.words(2304, 1000, (1, 2, 3), 7):
            d = braid_closure(word, 4)
            if d.first_bad_crossing() is None or links._placed(d)[2]:
                continue
            _, value, _, _ = self.check(word, 4)
            assert value == (1 if len(d.components) == 1 else 0)
            knots += len(d.components) == 1
            links_ += len(d.components) > 1
        assert knots >= 20 and links_ >= 100

    def test_last_switch_is_not_built(self, monkeypatch):
        # a node with one bad crossing left takes its switched child's value,
        # 1 or 0, without building it: no switched child the recursion builds
        # is descending, and fewer are built than nodes are expanded
        words = list(self.words(2305, 300, (1, 2, 3), 10))
        components = {len(self.check(word, 4)[0].components) for word in words}
        assert components == {1, 2, 3, 4}
        switched, smoothed = [], []
        switch, smooth = LinkDiagram.switch_crossing, LinkDiagram.smooth_crossing

        def switching(d, i):
            child = switch(d, i)
            switched.append(child.first_bad_crossing())
            return child

        monkeypatch.setattr(LinkDiagram, "switch_crossing", switching)
        monkeypatch.setattr(LinkDiagram, "smooth_crossing", lambda d, i: smoothed.append(i) or smooth(d, i))
        for word in words:
            conway_polynomial(braid_closure(word, 4))
        assert None not in switched
        assert len(smoothed) > 2 * len(switched) > 200


class TestSlamDunkDiagrams:
    def test_knot_with_a_meridian(self):
        # the closure of [eps, eps] + beta+ is K, the closure of beta on k
        # strands, with a meridian of linking number eps: nabla = eps z nabla(K)
        rng = random.Random(2101)
        knots = 0
        while knots < 150:
            k = rng.randint(2, 4)
            beta = [rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(rng.randint(1, 9))]
            knot = braid_closure(beta, k)
            if len(knot.components) != 1:
                continue
            eps = rng.choice((1, -1))
            link = braid_closure([eps, eps] + [w + (w > 0) - (w < 0) for w in beta], k + 1)
            a2 = conway_polynomial(knot).coefficient(2)
            assert invariants_from_diagram(link) in {
                LinkSurgeryInvariants(a2, 0, eps * a2, eps),
                LinkSurgeryInvariants(0, a2, eps * a2, eps),
            }
            knots += 1


class TestSkeinBudget:
    def test_crossing_cap_is_fixed_at_40(self):
        assert links.SKEIN_CROSSING_LIMIT == 40
        assert conway_polynomial(torus2_diagram(39)) == torus2_conway_closed_form(39)
        with pytest.raises(DiagramError) as exc:
            conway_polynomial(torus2_diagram(41))
        assert str(exc.value) == "diagram too large for skein oracle: 41 crossings > limit 40"

    def test_budget_counts_expanded_nodes(self, monkeypatch):
        d = torus2_diagram(15)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 56)
        assert conway_polynomial(d) == torus2_conway_closed_form(15)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 55)
        with pytest.raises(DiagramError, match="more than 55 skein nodes"):
            conway_polynomial(d)

    def test_pretzel_3_3_expands_530_nodes(self, monkeypatch):
        d = pretzel_diagram(3, 3)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 530)
        assert conway_polynomial(d).coefficient(3) == pretzel_a3_closed_form(3, 3)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 529)
        with pytest.raises(DiagramError, match="more than 529 skein nodes"):
            conway_polynomial(d)

    def test_budget_is_per_call(self, monkeypatch):
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 56)
        for _ in range(3):
            assert conway_polynomial(torus2_diagram(15)) == torus2_conway_closed_form(15)

    def test_recursion_depth_bound_fits_the_interpreter(self):
        # a root-to-leaf skein path at n crossings is at most (n + 1)(n + 2)/2
        # calls deep; 100 frames are left for the callers
        cap = links.SKEIN_CROSSING_LIMIT
        assert (cap + 1) * (cap + 2) // 2 + 100 <= sys.getrecursionlimit()
