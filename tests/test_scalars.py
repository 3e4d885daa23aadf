import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from oracle_utils import pair_add, pair_div, pair_mul, pair_str, pair_sub
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


@pytest.mark.parametrize(
    # digits are ASCII only: "\u0663" is the Arabic-Indic three
    "bad", ["", "x", "1+", "i2", "1//2", "--1", "1 2", "\u0663", "1/\u0662", "\u0663i"]
)
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
    for bad in ("x", 1.5, None):
        with pytest.raises(TypeError):
            bad - a
        with pytest.raises(TypeError):
            a * bad


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
            # re and im come back in lowest terms with positive denominators
            assert c.re.denominator > 0 and c.im.denominator > 0
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


def test_booleans_are_not_scalars():
    # JSON true/false decode to bool, which is an int subclass
    for value in (True, False):
        with pytest.raises(ValueError, match=f"cannot parse scalar {value}"):
            parse_scalar(value)
    # the constructor takes no bool and no float part: GaussianRational(0.1)
    # would be 3602879701896397/36028797018963968
    for value in (True, False, 0.1, 1.0):
        with pytest.raises(TypeError, match=type(value).__name__):
            GaussianRational(value)
        with pytest.raises(TypeError, match=type(value).__name__):
            GaussianRational(0, value)
    # and a bool is no operand: it equals no scalar, adds to and multiplies none
    assert GaussianRational(1) != True  # noqa: E712
    for op in (lambda x: x + True, lambda x: x * True, lambda x: True * x):
        with pytest.raises(TypeError):
            op(GaussianRational(2))


def test_parse_scalar_returns_a_scalar_unchanged():
    for x in (GaussianRational(0), GaussianRational(Fraction(-3, 2), 5)):
        assert parse_scalar(x) is x


@pytest.mark.parametrize("value", [1.5, True, False])
def test_entry_points_refuse_floats_and_bools(value):
    # every outside coefficient enters through parse_scalar
    from ymalg.free_lie import FreeLieElement
    from ymalg.kac_moody import MatrixData
    from ymalg.morphisms import isotropic_orthogonal_witness
    from ymalg.targets import StructureConstantAlgebra, WittElement, witt_e

    entries = [
        lambda: FreeLieElement(2, {(1,): value}),
        lambda: WittElement({1: value}),
        lambda: StructureConstantAlgebra(("a", "b"), {(0, 1): {0: value}}),
        lambda: MatrixData.from_rows([[value]]),
        lambda: isotropic_orthogonal_witness((value, 0), (0, 0)),
        lambda: isotropic_orthogonal_witness((1, "i"), (0, value)),
        lambda: witt_e(1) * value,
    ]
    for build in entries:
        with pytest.raises(ValueError, match=f"^cannot parse scalar {value}$"):
            build()


def test_element_times_scalar_text():
    # ``*`` takes its scalar through parse_scalar, as ``element`` does
    from ymalg.targets import sl_algebra

    sl2 = sl_algebra(2)
    e = sl2.basis_element("e")
    assert e * "i" == sl2.element({"e": "i"})
    assert e * "1+i" == sl2.element({"e": "1+i"})
    assert "-3/2" * e == sl2.element({"e": "-3/2"})
    # an element is no scalar, even the zero one, which renders as "0"
    for build in (lambda: e * sl2.zero(), lambda: sl2.element({"e": sl2.zero()})):
        with pytest.raises(ValueError, match="^cannot parse scalar 0$"):
            build()


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


# -- the stored triple against the (Fraction, Fraction) pair oracle -----------------

wide_fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
wide_scalars = st.builds(GaussianRational, wide_fractions, wide_fractions)
rationals = st.one_of(st.integers(-50, 50), small_fractions)


def _pair(x):
    return (x.re, x.im)


def _check(got, want):
    """``got`` is normalized, has the oracle's value and renders like it."""
    a, b, d = got._a, got._b, got._d
    assert d > 0 and gcd(a, b, d) == 1
    if not (a or b):
        assert (a, b, d) == (0, 0, 1)
    assert _pair(got) == want
    assert str(got) == pair_str(want)
    assert parse_scalar(str(got)) == got


@given(st.one_of(scalars, wide_scalars), st.one_of(scalars, wide_scalars))
def test_operations_match_pair_oracle(x, y):
    px, py = _pair(x), _pair(y)
    _check(x, px)
    _check(x + y, pair_add(px, py))
    _check(x - y, pair_sub(px, py))
    _check(x * y, pair_mul(px, py))
    _check(-x, (-px[0], -px[1]))
    _check(x.conjugate(), (px[0], -px[1]))
    if y:
        _check(x / y, pair_div(px, py))
    assert (x == y) == (px == py)
    assert (x != y) == (px != py)


@given(scalars, rationals)
def test_mixed_operands_match_pair_oracle(x, r):
    px, pr = _pair(x), (Fraction(r), Fraction(0))
    _check(x + r, pair_add(px, pr))
    _check(r + x, pair_add(px, pr))
    _check(x - r, pair_sub(px, pr))
    _check(r - x, pair_sub(pr, px))
    _check(x * r, pair_mul(px, pr))
    _check(r * x, pair_mul(px, pr))
    if r:
        _check(x / r, pair_div(px, pr))
    if x:
        _check(r / x, pair_div(pr, px))
    assert (x == r) == (px == pr) == (r == x)


def test_hash_agrees_with_equal_numbers():
    for value in (0, 2, -7, 10**30, Fraction(3, 4), Fraction(-5, 2)):
        x = GaussianRational(value)
        assert x == value and hash(x) == hash(value)
        assert len({x, value}) == 1
    # a non-real value hashes by its normalized triple
    x = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    y = GaussianRational(Fraction(3, 2), Fraction(-9, 4)) / 3
    assert x == y and hash(x) == hash(y)
    assert x != x.re and x != x.conjugate()


def test_traced_operators_and_fraction_constructor():
    # the benchmark's tracer patches these names on the class, and its
    # scalar probe builds operands from Fraction parts
    for name in (
        "__mul__", "__rmul__", "__add__", "__radd__",
        "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
    ):
        assert name in GaussianRational.__dict__
    x = GaussianRational(Fraction(6, 4), Fraction(-1, 3))
    assert (x.re, x.im) == (Fraction(3, 2), Fraction(-1, 3))
    assert (x._a, x._b, x._d) == (9, -2, 6)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)


# -- text against the Fraction renderer and Fraction parsing --------------------------

huge_parts = st.one_of(
    st.just(0),
    st.integers(-(10**25), 10**25),
    st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**12)),
)


@given(huge_parts, huge_parts)
def test_rendering_matches_the_fraction_renderer(re, im):
    # pair_str renders from Fractions alone, so it shares no code with the
    # ints that __str__ and parse_scalar read
    text = str(GaussianRational(re, im))
    assert text == pair_str((Fraction(re), Fraction(im)))
    assert parse_scalar(text) == GaussianRational(re, im)


@pytest.mark.parametrize(
    "text, re, im",
    [
        ("0/5", "0/5", "0"),
        ("-0", "-0", "0"),
        ("3/1", "3/1", "0"),
        ("2/4", "2/4", "0"),
        ("-2/4i", "0", "-2/4"),
        ("007", "007", "0"),
        ("1/2 + 6/4 * i - 2/8i", "1/2", "5/4"),
    ],
)
def test_unreduced_texts_match_fraction_parsing(text, re, im):
    want = (Fraction(re), Fraction(im))
    got = parse_scalar(text)
    assert (got.re, got.im) == want
    assert str(got) == pair_str(want)


@pytest.mark.parametrize("text", ["1/0", "3/0i"])
def test_zero_denominator_message(text):
    with pytest.raises(ValueError, match=f"^zero denominator in scalar '{text}'$"):
        parse_scalar(text)
