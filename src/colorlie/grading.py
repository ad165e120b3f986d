"""Z2 x Z2 grading: degrees, the bilinear pairing, and the Koszul sign.

A degree is a pair of bits (a1, a2).  Degrees add componentwise mod 2.
The pairing <a,b> = a1*b1 + a2*b2 mod 2 decides commutation behaviour:
koszul_sign(a, b) = (-1)^<a,b>, so the graded bracket of two homogeneous
elements is a commutator when the sign is +1 and an anticommutator when
it is -1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Degree:
    a1: int
    a2: int

    def __post_init__(self):
        if self.a1 not in (0, 1) or self.a2 not in (0, 1):
            raise ValueError(f"degree components must be bits, got ({self.a1},{self.a2})")

    def __add__(self, other: Degree) -> Degree:
        return DEGREES[2 * (self.a1 ^ other.a1) + (self.a2 ^ other.a2)]

    def dot(self, other: Degree) -> int:
        return (self.a1 * other.a1 + self.a2 * other.a2) % 2

    def __str__(self) -> str:
        return f"({self.a1},{self.a2})"


D00 = Degree(0, 0)
D01 = Degree(0, 1)
D10 = Degree(1, 0)
D11 = Degree(1, 1)

DEGREES = (D00, D01, D10, D11)


def koszul_sign(a: Degree, b: Degree) -> int:
    """(-1)**<a,b>: +1 for commuting sectors, -1 for anticommuting ones."""
    return -1 if a.dot(b) else 1
