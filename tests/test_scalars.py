import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ymalg.scalars import GaussianRational, format_linear, parse_scalar

small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)


def test_parse_examples():
    assert parse_scalar("3/2") == GaussianRational(Fraction(3, 2))
    assert parse_scalar("-1+2i") == GaussianRational(-1, 2)
    assert parse_scalar("0") == GaussianRational(0)
    assert parse_scalar("i") == GaussianRational(0, 1)
    assert parse_scalar("-i") == GaussianRational(0, -1)
    assert parse_scalar("1/2-3/4i") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar("2i") == GaussianRational(0, 2)
    assert parse_scalar(5) == GaussianRational(5)


@pytest.mark.parametrize("bad", ["", "x", "1+", "i2", "1//2", "--1", "1 2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_format_examples():
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(-1, 2)) == "-1+2i"
    assert str(GaussianRational(0)) == "0"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(3, 2), -1)) == "3/2-i"


@given(scalars)
def test_format_parse_round_trip(c):
    assert parse_scalar(str(c)) == c


def test_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a * b == GaussianRational(5, 5)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert (a / b) * b == a
    assert -a == GaussianRational(-1, -2)
    assert a * 2 == GaussianRational(2, 4)
    assert 2 * a == a * 2
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_normalization_invariants():
    rng = random.Random(11)
    for _ in range(200):
        a = GaussianRational(
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        )
        b = GaussianRational(
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        )
        for c in (a + b, a * b, a - b):
            # Fraction keeps lowest terms with positive denominator
            assert c.re.denominator > 0 and c.im.denominator > 0
            from math import gcd

            assert gcd(abs(c.re.numerator), c.re.denominator) == 1
            assert gcd(abs(c.im.numerator), c.im.denominator) == 1
        # structural equality and hashing agree
        assert (a == b) == (hash(a) == hash(b) and a.re == b.re and a.im == b.im)


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


def test_is_rational_integer():
    assert GaussianRational(3).is_rational_integer()
    assert not GaussianRational(Fraction(1, 2)).is_rational_integer()
    assert not GaussianRational(1, 1).is_rational_integer()


def test_zero_denominator_is_value_error():
    for text in ("1/0", "2+1/0i", "3/0i"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


def test_format_linear_branches():
    pairs = [
        ("a", parse_scalar("1")),
        ("b", parse_scalar("-1")),
        ("c", parse_scalar("-3/2")),
        ("d", parse_scalar("1-2i")),
        ("e", parse_scalar("2i")),
    ]
    assert format_linear(pairs) == "a - b - 3/2*c + (1-2i)*d + 2i*e"
    assert format_linear(pairs, "·") == "a - b - 3/2·c + (1-2i)·d + 2i·e"
    assert format_linear(pairs[1:2]) == "-b"
    assert format_linear([]) == "0"


def test_free_lie_and_target_reprs_share_the_formatter():
    from ymalg.free_lie import FreeLieElement
    from ymalg.targets import sl_algebra

    coeffs = [parse_scalar(c) for c in ("-1", "1+i", "-2/3")]
    x = [FreeLieElement.generator(3, j) for j in (1, 2, 3)]
    sl2 = sl_algebra(2)
    t = [sl2.basis_element(k) for k in ("e", "h", "f")]
    free = x[0] * coeffs[0] + x[1] * coeffs[1] + x[2] * coeffs[2]
    target = t[0] * coeffs[0] + t[1] * coeffs[1] + t[2] * coeffs[2]
    assert repr(free) == "-⟨1⟩ + (1+i)·⟨2⟩ - 2/3·⟨3⟩"
    assert repr(target) == "-e + (1+i)*h - 2/3*f"
