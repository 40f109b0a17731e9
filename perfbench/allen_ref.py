"""Allen's 13 relations between rational intervals, from endpoint comparisons.

This is the benchmark's own reference classifier; it shares no code with
twf, so the checks built on it stay independent of the program measured.
"""

from __future__ import annotations

from fractions import Fraction

RELATIONS = ("b", "bi", "m", "mi", "o", "oi", "s", "si", "d", "di", "f", "fi", "eq")

# The relation of (y, x) for each relation of (x, y).
CONVERSE = {r: r[:-1] if r.endswith("i") else ("eq" if r == "eq" else r + "i") for r in RELATIONS}


def relation(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> str:
    """The one basic relation holding between intervals a and b (lo < hi)."""
    (s1, e1), (s2, e2) = a, b
    if e1 < s2:
        return "b"
    if e2 < s1:
        return "bi"
    if e1 == s2:
        return "m"
    if e2 == s1:
        return "mi"
    if s1 == s2:
        return "eq" if e1 == e2 else ("s" if e1 < e2 else "si")
    if e1 == e2:
        return "f" if s1 > s2 else "fi"
    if s1 < s2:
        return "o" if e1 < e2 else "di"
    return "d" if e1 < e2 else "oi"
