"""Exact ordinal arithmetic in Cantor normal form, below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + w^e2*c2 + ... + w^ek*ck  with the
exponents themselves ordinals, strictly decreasing, and every coefficient a
positive integer.  The empty sum is 0.  Only the operations the rank rules
need are provided: comparison, successor, finite suprema (= max), and the
zero/limit/successor trichotomy.
"""

from __future__ import annotations

import re
from functools import total_ordering


class OrdinalError(ValueError):
    pass


class NotASuccessorError(OrdinalError):
    pass


@total_ordering
class Ordinal:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        terms = tuple((e, int(c)) for e, c in terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise OrdinalError("exponent must be an Ordinal")
            if c < 1:
                raise OrdinalError("coefficient must be >= 1")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if not e1 > e2:
                raise OrdinalError("exponents must be strictly decreasing")
        self.terms = terms

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise OrdinalError("not a finite ordinal")
        return self.terms[0][1]

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def succ(self) -> "Ordinal":
        if self.is_successor():
            *rest, (e, c) = self.terms
            return Ordinal((*rest, (e, c + 1)))
        return Ordinal((*self.terms, (ZERO, 1)))

    def pred(self) -> "Ordinal":
        if not self.is_successor():
            raise NotASuccessorError("not a successor")
        *rest, (e, c) = self.terms
        if c > 1:
            return Ordinal((*rest, (e, c - 1)))
        return Ordinal(tuple(rest))

    def __eq__(self, other):
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self.terms) < len(other.terms)

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        return format_ordinal(self)

    def __repr__(self):
        return f"Ordinal({format_ordinal(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def succ(a: Ordinal) -> Ordinal:
    return a.succ()


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite():
            base = f"w^{e.as_int()}"
        else:
            base = f"w^({format_ordinal(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


_TOKEN = re.compile(r"\s*(w|\d+|\^|\*|\+|\(|\))")


def parse_ordinal(text: str) -> Ordinal:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise OrdinalError(f"bad ordinal syntax at position {pos}: {text[pos:]!r}")
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))

    i = 0

    def peek():
        return tokens[i][0]

    def take(expected=None):
        nonlocal i
        tok, at = tokens[i]
        if tok is None or (expected is not None and tok != expected):
            want = expected or "token"
            raise OrdinalError(f"expected {want} at position {at} in ordinal {text!r}")
        i += 1
        return tok

    def parse_sum():
        terms = [parse_part()]
        while peek() == "+":
            take("+")
            terms.append(parse_part())
        if terms == [(ZERO, 0)]:
            return ZERO
        try:
            return Ordinal(terms)
        except OrdinalError as err:
            raise OrdinalError(f"not in Cantor normal form: {text!r} ({err})") from None

    def parse_part():
        tok = peek()
        if tok == "w":
            take("w")
            e = ONE
            if peek() == "^":
                take("^")
                if peek() == "(":
                    take("(")
                    e = parse_sum()
                    take(")")
                elif peek() == "w":
                    take("w")
                    e = OMEGA
                else:
                    e = Ordinal.from_int(int(take()))
            c = 1
            if peek() == "*":
                take("*")
                c = int(take())
            return e, c
        if tok is not None and tok.isdigit():
            return ZERO, int(take())
        raise OrdinalError(f"expected ordinal term at position {tokens[i][1]} in {text!r}")

    result = parse_sum()
    if peek() is not None:
        raise OrdinalError(f"trailing input at position {tokens[i][1]} in ordinal {text!r}")
    return result
