"""Diagram engine tests: skein oracle values, moves, generators, PD text."""

import random

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


def torus2_conway_closed_form(n: int) -> ConwayPoly:
    """Independent route: binomial coefficients of the (2, n) torus knot."""
    import math

    k = (n - 1) // 2
    return ConwayPoly({2 * j: math.comb(k + j, 2 * j) for j in range(k + 1)})


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
        assert conway_polynomial(d) == conway_polynomial(d, use_memo=False)

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
        with pytest.raises(DiagramError) as exc:
            LinkDiagram(records)
        assert str(exc.value) == f"crossing 0: arc {arc} leaves it and runs straight back in, which no planar diagram has"

    def test_self_loop_rejected_when_read(self):
        with pytest.raises(DiagramError) as exc:
            parse_pd("X 1,2,1,3 +\nX 2,5,7,4 +\nX 7,4,3,5 +\n")
        assert str(exc.value) == (
            "inconsistent diagram: crossing 0: arc 1 leaves it and runs straight back in, which no planar diagram has"
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

    def test_non_planar_codes(self):
        # random pairings of in- and out-arcs are mostly not planar; their
        # smoothings can leave a strand that loops straight back
        rng = random.Random(5)
        loops = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            ins, outs = rng.sample(range(1, 2 * n + 1), 2 * n), rng.sample(range(1, 2 * n + 1), 2 * n)
            records = []
            for j in range(n):
                a, oi, c, oo = ins[2 * j], ins[2 * j + 1], outs[2 * j], outs[2 * j + 1]
                records.append((a, oo, c, oi, 1) if rng.random() < 0.5 else (a, oi, c, oo, -1))
            try:
                d = LinkDiagram(records)
            except DiagramError:
                continue
            while d.crossings:
                self.assert_smoothings_weld(d)
                loops += any(x.a == x.c or x.over_in == x.over_out for x in d.crossings)
                d = d.smooth_crossing(rng.randrange(len(d.crossings)))
        assert loops > 50


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

    def test_pretzel_3_3_expands_964_nodes(self, monkeypatch):
        d = pretzel_diagram(3, 3)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 964)
        assert conway_polynomial(d).coefficient(3) == pretzel_a3_closed_form(3, 3)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 963)
        with pytest.raises(DiagramError, match="more than 963 skein nodes"):
            conway_polynomial(d)

    def test_budget_binds_the_plain_engine(self, monkeypatch):
        d = braid_closure([1, -2, 1, -2, 1, -2], 3)
        assert conway_polynomial(d, use_memo=False) == conway_polynomial(d)
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 3)
        with pytest.raises(DiagramError, match="skein nodes"):
            conway_polynomial(d, use_memo=False)

    def test_budget_is_per_call(self, monkeypatch):
        monkeypatch.setattr(links, "SKEIN_NODE_BUDGET", 56)
        for _ in range(3):
            assert conway_polynomial(torus2_diagram(15)) == torus2_conway_closed_form(15)

