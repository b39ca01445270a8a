import pytest
from hypothesis import given, strategies as st

from scattree.ordinals import (
    NotASuccessorError,
    OMEGA,
    ONE,
    Ordinal,
    OrdinalError,
    ZERO,
    format_ordinal,
    parse_ordinal,
    succ,
)


def test_zero_one_omega_order():
    assert ZERO < ONE < OMEGA
    assert ZERO == ZERO and not ZERO < ZERO
    assert OMEGA > ONE and OMEGA != ONE
    assert ONE < OMEGA and not OMEGA < ONE


def test_from_int_round_trip():
    for n in range(20):
        a = Ordinal.from_int(n)
        assert a.as_int() == n
        assert a.is_finite()


def test_succ_and_pred():
    a = succ(OMEGA)
    assert format_ordinal(a) == "w+1"
    assert a.pred() == OMEGA
    assert succ(ZERO) == ONE
    with pytest.raises(NotASuccessorError):
        OMEGA.pred()
    with pytest.raises(NotASuccessorError):
        ZERO.pred()


def test_trichotomy():
    assert ZERO.is_zero() and not ZERO.is_limit() and not ZERO.is_successor()
    assert ONE.is_successor() and not ONE.is_limit()
    assert OMEGA.is_limit() and not OMEGA.is_successor()
    w2 = parse_ordinal("w*2")
    assert w2.is_limit()
    assert parse_ordinal("w*2+3").is_successor()


def test_sup_is_max():
    assert max([], default=ZERO) == ZERO
    assert max([ONE, OMEGA, Ordinal.from_int(5)], default=ZERO) == OMEGA
    assert max([Ordinal.from_int(3), Ordinal.from_int(7)], default=ZERO) == Ordinal.from_int(7)


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(Ordinal.from_int(5)) == "5"
    assert format_ordinal(OMEGA) == "w"
    assert format_ordinal(parse_ordinal("w*2+3")) == "w*2+3"
    assert format_ordinal(parse_ordinal("w^2+w*4+1")) == "w^2+w*4+1"


def test_parse_rejects_garbage():
    for bad in ("", "w+", "q", "w^", "1+w"):
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)


def test_invalid_construction():
    with pytest.raises(OrdinalError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(OrdinalError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # exponents must decrease


# small recursive strategy for CNF ordinals
def _ordinals(depth=2):
    if depth == 0:
        return st.integers(min_value=0, max_value=9).map(Ordinal.from_int)

    def build(parts):
        exps = sorted(set(parts[0]), reverse=True)
        return Ordinal(tuple((e, c) for e, c in zip(exps, parts[1])))

    return st.tuples(
        st.lists(_ordinals(depth - 1), min_size=0, max_size=3),
        st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
    ).map(build)


@given(_ordinals())
def test_format_parse_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a


@given(_ordinals())
def test_succ_increases_and_pred_inverts(a):
    s = succ(a)
    assert a < s
    assert s.pred() == a
    assert s.is_successor()


@given(_ordinals(), _ordinals())
def test_comparison_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1
    assert max([a, b], default=ZERO) == (a if a > b else b)
