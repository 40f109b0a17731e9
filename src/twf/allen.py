"""The thirteen basic interval relations, relation sets and composition.

Relations are defined once, by the order of the four endpoints
(:func:`endpoint_relation`, read as a table in :data:`ENDPOINT_RANKS`): two
proper intervals always stand in exactly one basic relation.  A
relation set is a 13-bit int mask, bit ``r`` standing for ``RELATIONS[r]``,
and each member holds its bit and its inverse as plain attributes, set at import.
:class:`RelationSet` is the public, range-checked type, while the solver
works on the bare ints through :func:`compose_masks` and :func:`converse_mask`.
The converse tables are built at import, and the composition tables of each
half of a left operand (:func:`compose_rows`) from the frozen table on first use.
:func:`generate_composition_table` re-derives the frozen table from scratch on
integer endpoints, and the test suite asserts the two agree bit for bit.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

RationalLike = Union[int, str, Fraction]


class Relation(enum.Enum):
    """One of the 13 basic relations between two proper intervals."""

    bit: int  # its bit in a relation mask
    inverse: "Relation"  # the relation that holds with the two intervals swapped

    BEFORE = "b"
    AFTER = "bi"
    MEETS = "m"
    MET_BY = "mi"
    OVERLAPS = "o"
    OVERLAPPED_BY = "oi"
    STARTS = "s"
    STARTED_BY = "si"
    DURING = "d"
    CONTAINS = "di"
    FINISHES = "f"
    FINISHED_BY = "fi"
    EQUALS = "eq"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "Relation":
        try:
            return _BY_TOKEN[token]
        except KeyError:
            raise ValueError(f"unknown relation token {token!r}") from None

    def __repr__(self) -> str:
        return f"Relation.{self.name}"


RELATIONS: tuple[Relation, ...] = tuple(Relation)
for _position, _rel in enumerate(RELATIONS):
    _rel.bit = 1 << _position
_BY_TOKEN = {r.value: r for r in RELATIONS}
_ALL_BITS = (1 << len(RELATIONS)) - 1

@dataclass(frozen=True)
class RelationSet:
    """A subset of the 13 basic relations stored as a fixed-width bit mask.

    The universal set stands for "no information"; the empty set marks an
    inconsistent constraint.
    """

    bits: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= _ALL_BITS:
            raise ValueError(f"relation mask out of range: {self.bits:#x}")

    @classmethod
    def of(cls, *relations: Relation) -> "RelationSet":
        bits = 0
        for r in relations:
            bits |= r.bit
        return cls(bits)

    @classmethod
    def parse(cls, text: str) -> "RelationSet":
        """Build a set from whitespace- or comma-separated relation tokens."""
        bits = 0
        for token in text.replace(",", " ").split():
            bits |= Relation.from_token(token).bit
        return cls(bits)

    def __contains__(self, r: Relation) -> bool:
        return bool(self.bits & r.bit)

    def __iter__(self) -> Iterator[Relation]:
        for r in RELATIONS:
            if self.bits & r.bit:
                yield r

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.bits | other.bits)

    def __and__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.bits & other.bits)

    def __sub__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.bits & ~other.bits)

    @property
    def is_singleton(self) -> bool:
        return self.bits.bit_count() == 1

    def single(self) -> Relation:
        if not self.is_singleton:
            raise ValueError(f"not a singleton relation set: {self.tokens()}")
        return RELATIONS[self.bits.bit_length() - 1]

    def inverse(self) -> "RelationSet":
        return RelationSet(converse_mask(self.bits))

    def tokens(self) -> str:
        return " ".join(r.token for r in self)

    def __repr__(self) -> str:
        return f"RelationSet.parse({self.tokens()!r})"


EMPTY = RelationSet(0)
UNIVERSAL = RelationSet(_ALL_BITS)


@dataclass(frozen=True)
class Interval:
    """A closed rational interval with strictly positive length."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            raise TypeError("interval endpoints must be Fraction")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def interval(lo: RationalLike, hi: RationalLike) -> Interval:
    """Convenience constructor coercing endpoints to exact rationals."""
    return Interval(Fraction(lo), Fraction(hi))


def endpoint_relation(lo1, hi1, lo2, hi2) -> Relation:
    """The basic relation between intervals [lo1, hi1] and [lo2, hi2], given
    their endpoints in any totally ordered type (lo1 < hi1, lo2 < hi2)."""
    if hi1 < lo2:
        return Relation.BEFORE
    if hi2 < lo1:
        return Relation.AFTER
    if hi1 == lo2:
        return Relation.MEETS
    if hi2 == lo1:
        return Relation.MET_BY
    if lo1 == lo2:
        if hi1 == hi2:
            return Relation.EQUALS
        return Relation.STARTS if hi1 < hi2 else Relation.STARTED_BY
    if lo1 < lo2:
        if hi1 == hi2:
            return Relation.FINISHED_BY
        return Relation.CONTAINS if hi1 > hi2 else Relation.OVERLAPS
    if hi1 == hi2:
        return Relation.FINISHES
    return Relation.DURING if hi1 < hi2 else Relation.OVERLAPPED_BY


def relation_between(i: Interval, j: Interval) -> Relation:
    """The unique basic relation holding between two proper intervals."""
    return endpoint_relation(i.lo, i.hi, j.lo, j.hi)


# The order of the endpoints (lo1, hi1, lo2, hi2) under each relation, as
# dense ranks: equal ranks are equal endpoints, and lower ranks come first.
# Four endpoints take at most four values, so the configurations on 0..3
# show every relation.
ENDPOINT_RANKS: dict[Relation, tuple[int, int, int, int]] = {
    endpoint_relation(*ends): tuple(sorted(set(ends)).index(v) for v in ends)
    for ends in itertools.product(range(4), repeat=4)
    if ends[0] < ends[1] and ends[2] < ends[3]
}

# The inverse relation holds with the two intervals swapped.
for _rel, _ranks in ENDPOINT_RANKS.items():
    _rel.inverse = endpoint_relation(*_ranks[2:], *_ranks[:2])


def inverse(r: Relation) -> Relation:
    return r.inverse


def inverse_set(rels: RelationSet) -> RelationSet:
    return rels.inverse()


def generate_composition_table() -> dict[tuple[Relation, Relation], RelationSet]:
    """Derive the 13x13 composition table by brute-force enumeration.

    Six endpoints take at most six distinct values, so the 15 integer
    intervals on 0..5 realize every order type of three intervals.  Every
    interval triple on that grid ORs the bit of its (i,k) relation into the
    entry of its (i,j) and (j,k) relations, indexed by bit position, which
    both populates each entry and witnesses each of its members.
    """
    grid = [(lo, hi) for lo in range(6) for hi in range(lo + 1, 6)]
    position = [[endpoint_relation(*x, *y).bit.bit_length() - 1 for y in grid] for x in grid]
    table = [[0] * len(RELATIONS) for _ in RELATIONS]
    for from_x in position:
        for y, xy in enumerate(from_x):
            row = table[xy]
            for yz, xz in zip(position[y], from_x):
                row[yz] |= 1 << xz
    cells = itertools.chain.from_iterable(table)
    return dict(zip(itertools.product(RELATIONS, repeat=2), map(RelationSet, cells)))


# Frozen composition table, derived once via generate_composition_table()
# and kept in sync by the test suite.  Rows are the left operand; "*" is
# the universal set.
_COMPOSITION_ROWS: dict[str, dict[str, str]] = {
    "b": {"b": "b", "bi": "*", "m": "b", "mi": "b m o s d", "o": "b", "oi": "b m o s d", "s": "b", "si": "b", "d": "b m o s d", "di": "b", "f": "b m o s d", "fi": "b", "eq": "b"},
    "bi": {"b": "*", "bi": "bi", "m": "bi mi oi d f", "mi": "bi", "o": "bi mi oi d f", "oi": "bi", "s": "bi mi oi d f", "si": "bi", "d": "bi mi oi d f", "di": "bi", "f": "bi", "fi": "bi", "eq": "bi"},
    "m": {"b": "b", "bi": "bi mi oi si di", "m": "b", "mi": "f fi eq", "o": "b", "oi": "o s d", "s": "m", "si": "m", "d": "o s d", "di": "b", "f": "o s d", "fi": "b", "eq": "m"},
    "mi": {"b": "b m o di fi", "bi": "bi", "m": "s si eq", "mi": "bi", "o": "oi d f", "oi": "bi", "s": "oi d f", "si": "bi", "d": "oi d f", "di": "bi", "f": "mi", "fi": "mi", "eq": "mi"},
    "o": {"b": "b", "bi": "bi mi oi si di", "m": "b", "mi": "oi si di", "o": "b m o", "oi": "o oi s si d di f fi eq", "s": "o", "si": "o di fi", "d": "o s d", "di": "b m o di fi", "f": "o s d", "fi": "b m o", "eq": "o"},
    "oi": {"b": "b m o di fi", "bi": "bi", "m": "o di fi", "mi": "bi", "o": "o oi s si d di f fi eq", "oi": "bi mi oi", "s": "oi d f", "si": "bi mi oi", "d": "oi d f", "di": "bi mi oi si di", "f": "oi", "fi": "oi si di", "eq": "oi"},
    "s": {"b": "b", "bi": "bi", "m": "b", "mi": "mi", "o": "b m o", "oi": "oi d f", "s": "s", "si": "s si eq", "d": "d", "di": "b m o di fi", "f": "d", "fi": "b m o", "eq": "s"},
    "si": {"b": "b m o di fi", "bi": "bi", "m": "o di fi", "mi": "mi", "o": "o di fi", "oi": "oi", "s": "s si eq", "si": "si", "d": "oi d f", "di": "di", "f": "oi", "fi": "di", "eq": "si"},
    "d": {"b": "b", "bi": "bi", "m": "b", "mi": "bi", "o": "b m o s d", "oi": "bi mi oi d f", "s": "d", "si": "bi mi oi d f", "d": "d", "di": "*", "f": "d", "fi": "b m o s d", "eq": "d"},
    "di": {"b": "b m o di fi", "bi": "bi mi oi si di", "m": "o di fi", "mi": "oi si di", "o": "o di fi", "oi": "oi si di", "s": "o di fi", "si": "di", "d": "o oi s si d di f fi eq", "di": "di", "f": "oi si di", "fi": "di", "eq": "di"},
    "f": {"b": "b", "bi": "bi", "m": "m", "mi": "bi", "o": "o s d", "oi": "bi mi oi", "s": "d", "si": "bi mi oi", "d": "d", "di": "bi mi oi si di", "f": "f", "fi": "f fi eq", "eq": "f"},
    "fi": {"b": "b", "bi": "bi mi oi si di", "m": "m", "mi": "oi si di", "o": "o", "oi": "oi si di", "s": "o", "si": "di", "d": "o s d", "di": "di", "f": "f fi eq", "fi": "fi", "eq": "fi"},
    "eq": {"b": "b", "bi": "bi", "m": "m", "mi": "mi", "o": "o", "oi": "oi", "s": "s", "si": "si", "d": "d", "di": "di", "f": "f", "fi": "fi", "eq": "eq"},
}


def _half_tables(images: list[int]) -> list[list[int]]:
    """Lookup tables for the union of ``images[r]`` over the relations r of
    a mask: one indexed by its low 7 bits, one by its high 6 bits."""
    tables = []
    for part in (images[:7], images[7:]):
        table = [0]
        for image in part:
            # masks that add this bit follow, in order, the masks without it
            table += [_MASKS[bits | image] for bits in table]
        tables.append(table)
    return tables


_MASKS = list(range(_ALL_BITS + 1))  # one int object per mask, shared by all tables
_CONVERSE_LOW, _CONVERSE_HIGH = _half_tables([r.inverse.bit for r in RELATIONS])
_COMPOSE_IMAGES = [  # per relation r by bit position, r composed with each relation
    [_ALL_BITS if row[s.token] == "*" else RelationSet.parse(row[s.token]).bits for s in RELATIONS]
    for row in (_COMPOSITION_ROWS[r.token] for r in RELATIONS)
]


@functools.cache
def _row(half: int) -> tuple[list[int], list[int]]:
    """The (low, high) half tables of the relations in ``half`` composed with a mask."""
    images = [0] * len(RELATIONS)
    for r in range(half.bit_length()):
        if half >> r & 1:
            images = [x | y for x, y in zip(images, _COMPOSE_IMAGES[r])]
    return tuple(_half_tables(images))


def compose_rows(mask: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """The tables composing a mask, as the left operand, with a right mask R:
    the union is ``ll[R & 127] | lh[R >> 7] | hl[R & 127] | hh[R >> 7]``."""
    return _row(mask & 127) + _row(mask >> 7 << 7)


def converse_mask(mask: int) -> int:
    """Converse of a relation mask (an int in 0..8191)."""
    return _CONVERSE_LOW[mask & 127] | _CONVERSE_HIGH[mask >> 7]


def compose_masks(mask1: int, mask2: int) -> int:
    """Union of the pairwise compositions of two relation masks."""
    ll, lh, hl, hh = compose_rows(mask1)
    return ll[mask2 & 127] | lh[mask2 >> 7] | hl[mask2 & 127] | hh[mask2 >> 7]


def compose(r: Relation, s: Relation) -> RelationSet:
    """Composition of two basic relations, from the frozen table."""
    return RelationSet(compose_masks(r.bit, s.bit))


def compose_sets(rels1: RelationSet, rels2: RelationSet) -> RelationSet:
    """Union of the pairwise compositions of two relation sets."""
    return RelationSet(compose_masks(rels1.bits, rels2.bits))
