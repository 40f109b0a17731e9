"""Relations, relation sets, and the composition table."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twf import allen
from twf.allen import (
    _COMPOSITION_ROWS,
    EMPTY,
    ENDPOINT_RANKS,
    RELATIONS,
    UNIVERSAL,
    Interval,
    Relation,
    RelationSet,
    compose,
    compose_masks,
    compose_sets,
    converse_mask,
    endpoint_relation,
    generate_composition_table,
    interval,
    inverse,
    inverse_set,
    relation_between,
)
from conftest import traced_peak

# Independent endpoint-level definitions of the seven base relations; the
# other six are their inverses, the base relation with the intervals
# swapped.  Used as the oracle for partition checks.
_INVERSES = {
    Relation.AFTER: Relation.BEFORE,
    Relation.MET_BY: Relation.MEETS,
    Relation.OVERLAPPED_BY: Relation.OVERLAPS,
    Relation.STARTED_BY: Relation.STARTS,
    Relation.CONTAINS: Relation.DURING,
    Relation.FINISHED_BY: Relation.FINISHES,
}
_DEFS = {
    Relation.BEFORE: lambda i, j: i.hi < j.lo,
    Relation.MEETS: lambda i, j: i.hi == j.lo,
    Relation.OVERLAPS: lambda i, j: i.lo < j.lo < i.hi < j.hi,
    Relation.STARTS: lambda i, j: i.lo == j.lo and i.hi < j.hi,
    Relation.DURING: lambda i, j: j.lo < i.lo and i.hi < j.hi,
    Relation.FINISHES: lambda i, j: j.lo < i.lo and i.hi == j.hi,
    Relation.EQUALS: lambda i, j: i.lo == j.lo and i.hi == j.hi,
}


def holding_relations(i: Interval, j: Interval) -> list[Relation]:
    out = []
    for rel in RELATIONS:
        if rel in _DEFS:
            if _DEFS[rel](i, j):
                out.append(rel)
        elif _DEFS[_INVERSES[rel]](j, i):
            out.append(rel)
    return out


rationals = st.fractions(min_value=-20, max_value=20)


@st.composite
def intervals(draw):
    lo = draw(rationals)
    width = draw(st.fractions(min_value=Fraction(1, 8), max_value=10))
    return Interval(lo, lo + width)


class TestRelations:
    def test_thirteen_relations(self):
        assert len(RELATIONS) == 13
        assert len({r.token for r in RELATIONS}) == 13

    def test_inverse_is_involution(self):
        for rel in RELATIONS:
            assert rel.inverse.inverse is rel

    def test_inverse_matches_the_stated_pairs(self):
        assert Relation.EQUALS.inverse is Relation.EQUALS
        for rel, base in _INVERSES.items():
            assert rel.inverse is base
            assert base.inverse is rel

    def test_inverse_examples(self):
        assert inverse(Relation.BEFORE) is Relation.AFTER
        assert inverse(Relation.EQUALS) is Relation.EQUALS
        assert inverse_set(RelationSet.parse("b m")) == RelationSet.parse("bi mi")

    def test_relation_between_examples(self):
        assert relation_between(interval(0, 2), interval(2, 5)) is Relation.MEETS
        assert relation_between(interval(1, 2), interval(0, 3)) is Relation.DURING
        assert relation_between(interval(0, 3), interval(0, 3)) is Relation.EQUALS

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            interval(1, 1)
        with pytest.raises(ValueError):
            interval(2, 1)

    @given(intervals(), intervals())
    @settings(max_examples=400)
    def test_partition(self, i, j):
        holding = holding_relations(i, j)
        assert len(holding) == 1
        assert relation_between(i, j) is holding[0]

    @given(intervals(), intervals())
    @settings(max_examples=200)
    def test_relation_inverse_swap(self, i, j):
        assert relation_between(j, i) is relation_between(i, j).inverse

    def test_endpoint_ranks_follow_the_definition(self):
        assert set(ENDPOINT_RANKS) == set(RELATIONS)
        for rel, ranks in ENDPOINT_RANKS.items():
            # dense: the ranks are 0, 1, ... with no gap
            assert set(ranks) == set(range(max(ranks) + 1))
            lo1, hi1, lo2, hi2 = ranks
            assert holding_relations(interval(lo1, hi1), interval(lo2, hi2)) == [rel]

    @given(
        st.integers(-20, 20), st.integers(1, 10), st.integers(-20, 20), st.integers(1, 10)
    )
    @settings(max_examples=400)
    def test_endpoint_relation_on_ints_agrees_with_fractions(self, lo1, width1, lo2, width2):
        ends = (lo1, lo1 + width1, lo2, lo2 + width2)
        i, j = interval(*ends[:2]), interval(*ends[2:])
        assert endpoint_relation(*ends) is relation_between(i, j)


class TestRelationSet:
    def test_mask_bounds(self):
        assert len(UNIVERSAL) == 13
        assert not EMPTY
        with pytest.raises(ValueError):
            RelationSet(1 << 13)

    def test_set_operations(self):
        bm = RelationSet.parse("b m")
        assert Relation.BEFORE in bm and Relation.MEETS in bm
        assert Relation.EQUALS not in bm
        assert (bm | RelationSet.parse("eq")) - bm == RelationSet.parse("eq")
        assert bm & RelationSet.parse("m eq") == RelationSet.parse("m")
        assert list(bm) == [Relation.BEFORE, Relation.MEETS]

    def test_singleton(self):
        assert RelationSet.parse("oi").single() is Relation.OVERLAPPED_BY
        with pytest.raises(ValueError):
            RelationSet.parse("b m").single()

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            RelationSet.parse("b xx")


class TestComposition:
    def test_f_after_m_is_m(self):
        assert compose(Relation.FINISHES, Relation.MEETS) == RelationSet.parse("m")

    def test_eq_is_identity(self):
        for rel in RELATIONS:
            assert compose(Relation.EQUALS, rel) == RelationSet.of(rel)
            assert compose(rel, Relation.EQUALS) == RelationSet.of(rel)

    def test_o_after_o(self):
        # independent brute force over integer coordinates
        grid = [interval(a, b) for a in range(9) for b in range(a + 1, 9)]
        seen = EMPTY
        for i, j, k in itertools.product(grid, repeat=3):
            if (
                relation_between(i, j) is Relation.OVERLAPS
                and relation_between(j, k) is Relation.OVERLAPS
            ):
                seen = seen | RelationSet.of(relation_between(i, k))
        assert seen == RelationSet.parse("b m o")
        assert compose(Relation.OVERLAPS, Relation.OVERLAPS) == seen

    def test_frozen_table_matches_generated(self):
        generated = generate_composition_table()
        for r in RELATIONS:
            for s in RELATIONS:
                assert generated[(r, s)] == compose(r, s), (r.token, s.token)

    def test_inverse_composition_law(self):
        for r in RELATIONS:
            for s in RELATIONS:
                assert inverse_set(compose(r, s)) == compose(s.inverse, r.inverse)

    def test_table_sound_and_minimal(self):
        # soundness: every concrete triple lands inside the table entry;
        # minimality: every table member is witnessed by some triple.
        grid = [interval(a, b) for a in range(9) for b in range(a + 1, 9)]
        rel = {
            (x, y): relation_between(gx, gy)
            for x, gx in enumerate(grid)
            for y, gy in enumerate(grid)
        }
        witnessed = {(r, s): EMPTY for r in RELATIONS for s in RELATIONS}
        for x in range(len(grid)):
            for y in range(len(grid)):
                r = rel[(x, y)]
                for z in range(len(grid)):
                    key = (r, rel[(y, z)])
                    witnessed[key] = witnessed[key] | RelationSet.of(rel[(x, z)])
        for key, seen in witnessed.items():
            assert seen == compose(*key), key

    @given(st.integers(0, 8191), st.integers(0, 8191))
    @settings(max_examples=400)
    @example(0, 8191)
    @example(RelationSet.parse("b m").bits, RelationSet.parse("o d").bits)
    def test_compose_sets_is_pairwise_union(self, bits1, bits2):
        rels1, rels2 = RelationSet(bits1), RelationSet(bits2)
        expected = EMPTY
        for r in rels1:
            for s in rels2:
                expected = expected | compose(r, s)
        assert compose_sets(rels1, rels2) == expected

    def test_converse_mask_every_mask(self):
        for bits in range(1 << 13):
            converse = converse_mask(bits)
            assert converse == RelationSet.of(*(r.inverse for r in RelationSet(bits))).bits
            assert converse_mask(converse) == bits


class TestCompositionRows:
    """The rows ``compose_masks`` and path consistency read, checked against
    the frozen table without going through ``compose``."""

    @staticmethod
    def frozen(r: Relation, s: Relation) -> int:
        text = _COMPOSITION_ROWS[r.token][s.token]
        return UNIVERSAL.bits if text == "*" else sum(Relation.from_token(t).bit for t in text.split())

    def test_every_left_mask_with_each_relation(self):
        for s in RELATIONS:
            # expected[mask]: the union of r∘s over the relations r of mask,
            # each mask built from the one without its lowest relation
            expected = [0]
            for mask in range(1, UNIVERSAL.bits + 1):
                lowest = mask & -mask
                r = RELATIONS[lowest.bit_length() - 1]
                expected.append(expected[mask ^ lowest] | self.frozen(r, s))
            for mask, bits in enumerate(expected):
                assert compose_masks(mask, s.bit) == bits, (mask, s.token)

    def test_an_empty_operand_composes_to_nothing(self):
        for mask in range(UNIVERSAL.bits + 1):
            assert compose_masks(mask, 0) == 0
            assert compose_masks(0, mask) == 0

    def test_all_rows_stay_small(self):
        # one row per 7-bit low half and per 6-bit high half of a left
        # operand; the rows trace about 0.23 MB with the int objects shared,
        # about 0.97 MB with an int object per entry
        allen._row.cache_clear()

        def fill():
            for half in range(128):
                allen.compose_rows(half)
                allen.compose_rows(half >> 1 << 7)

        peak = traced_peak(fill)
        assert allen._row.cache_info().currsize == 128 + 63  # the empty half is one row
        assert peak < 500_000, peak

    def test_importing_the_cli_builds_no_row(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(allen.__file__)))
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import twf.cli\n"
            "from twf import allen\n"
            "assert allen._row.cache_info().currsize == 0, allen._row.cache_info()\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
