"""Field arithmetic: rationals, cyclotomic extensions, literals."""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lumpwalk import scalars
from lumpwalk.errors import DomainError, InputFormatError, InvariantError
from lumpwalk.scalars import (
    MAX_CYCLOTOMIC_ORDER,
    Cyclo,
    CyclotomicField,
    _poly_div_exact,
    cyclotomic_field,
    cyclotomic_polynomial,
    common_field,
    format_ratio,
    format_scalar,
    integral_form,
    parse_scalar,
    RATIONALS,
)
from tests.reference import (
    cyclotomic_conjugate_by_rows,
    cyclotomic_product_by_long_table,
    power_sum_on_fraction_table,
)


def test_rational_basics():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert RATIONALS.conjugate(Fraction(-2, 7)) == Fraction(-2, 7)


@pytest.mark.parametrize("n,coeffs", [
    (1, [-1, 1]),
    (2, [1, 1]),
    (3, [1, 1, 1]),
    (4, [1, 0, 1]),
    (6, [1, -1, 1]),
    (8, [1, 0, 0, 0, 1]),
    (12, [1, 0, -1, 0, 1]),
])
def test_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


def test_zeta_powers_and_reduction():
    F = cyclotomic_field(4)
    i = F.zeta()
    assert i * i == F.from_rational(-1)
    assert i * i * i * i == F.one
    # Phi_n(zeta) = 0 and zeta^n = 1 for a few orders
    for n in (3, 5, 6, 8, 12):
        Fn = cyclotomic_field(n)
        z = Fn.zeta()
        power = Fn.one
        for _ in range(n):
            power = power * z
        assert power == Fn.one
        phi = cyclotomic_polynomial(n)
        value = Fn.zero
        zp = Fn.one
        for c in phi:
            value = value + Fraction(c) * zp
            zp = zp * z
        assert value.is_zero()


@pytest.mark.parametrize("n", [1, 2, 4, 6, 12])
def test_power_sum_matches_zeta_arithmetic(n):
    F = cyclotomic_field(n)
    for coeffs in ([Fraction(k - 2, k + 1) for k in range(n)], [Fraction(1)] * n, [0] * n):
        expected = F.zero
        for k, c in enumerate(coeffs):
            expected = expected + Fraction(c) * F.zeta(k)
        assert F.power_sum(coeffs) == expected
    # the n-th roots of unity sum to zero for n > 1
    assert F.power_sum([1] * n).is_zero() == (n > 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 24, 30, 64]), st.data())
def test_power_sum_of_int_buckets_stays_integral(n, data):
    """The power table is integral: `int` buckets give `int` coordinates, equal
    to the sum over a table with `Fraction` coordinates, and `Fraction`
    buckets give the same values."""
    F = cyclotomic_field(n)
    buckets = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    result = F.power_sum(buckets)
    assert all(type(c) is int for c in result.coeffs)
    assert list(result.coeffs) == power_sum_on_fraction_table(F, buckets)
    assert F.power_sum([Fraction(c) for c in buckets]) == result


def test_conjugation():
    F = cyclotomic_field(4)
    z = Fraction(1, 4) + Fraction(1, 4) * F.zeta()
    assert F.conjugate(z) == Fraction(1, 4) - Fraction(1, 4) * F.zeta()
    for n in (3, 4, 5, 8):
        Fn = cyclotomic_field(n)
        x = Fn.zeta() + Fraction(2, 3) * Fn.zeta(2) - Fraction(1, 5)
        assert Fn.conjugate(Fn.conjugate(x)) == x
        y = Fn.zeta(2) - Fraction(7)
        assert Fn.conjugate(x * y) == Fn.conjugate(x) * Fn.conjugate(y)


@pytest.mark.parametrize("n", range(1, MAX_CYCLOTOMIC_ORDER + 1))
@settings(max_examples=4, deadline=None, derandomize=True, phases=[Phase.generate])
@given(seed=st.integers(0, 2**32))
def test_product_and_conjugate_match_the_loops_they_replaced(n, seed):
    """Products and conjugates, reduced by `power_sum` over the n-row power
    table, equal the product over the table up to 2 phi(n) - 2 and the
    conjugate by rows of z^(n-k), in value and in their written form, on
    dense and sparse vectors of `int`s (as the power table gives) and
    `Fraction`s (as literals give)."""
    F = cyclotomic_field(n)
    rng = random.Random(seed)

    def vector(density):
        out = []
        for _ in range(F.phi):
            p = rng.randint(-9, 9) if rng.random() < density else 0
            out.append(p if rng.random() < 0.5 else Fraction(p, rng.randint(1, 6)))
        return out

    for density in (1, 0.2):
        a, b = vector(density), vector(density)
        x, y = Cyclo(F, a), Cyclo(F, b)
        product = cyclotomic_product_by_long_table(F, a, b)
        assert list((x * y).coeffs) == product
        assert format_scalar(x * y) == format_scalar(Cyclo(F, product))
        conjugate = cyclotomic_conjugate_by_rows(F, a)
        assert list(F.conjugate(x).coeffs) == conjugate
        assert format_scalar(F.conjugate(x)) == format_scalar(Cyclo(F, conjugate))
    assert len(F._power_table) == n


def test_embed_rational_roundtrip():
    z = cyclotomic_field(4).from_rational(Fraction(1, 4))
    assert z.is_rational() and z.rational_value() == Fraction(1, 4)
    F = cyclotomic_field(6)
    assert F.from_rational(Fraction(0)).is_zero()
    assert F.from_rational(Fraction(1)) == F.one


def test_mixed_order_rejected():
    """The order check lives in `CyclotomicField.coerce`: a product, a sum, a
    difference and a conjugate across orders raise its message, and an
    operand that is not a scalar leaves the operator to Python, which raises
    `TypeError`."""
    a = cyclotomic_field(4).zeta()
    b = cyclotomic_field(3).zeta()
    for op, orders in ((lambda: a + b, "4 and 3"), (lambda: a * b, "4 and 3"),
                       (lambda: b - a, "3 and 4"),
                       (lambda: cyclotomic_field(4).conjugate(b), "4 and 3")):
        with pytest.raises(DomainError) as info:
            op()
        assert str(info.value) == f"mixed cyclotomic orders {orders}"
    with pytest.raises(DomainError):
        common_field(cyclotomic_field(4), cyclotomic_field(3))
    assert common_field(RATIONALS, cyclotomic_field(5)).order == 5
    for op in (lambda: a * "x", lambda: "x" * a, lambda: a + "x", lambda: "x" - a):
        with pytest.raises(TypeError):
            op()
    assert a * 2 == 2 * a == a + a and a * Fraction(1, 2) + a * Fraction(1, 2) == a


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(small_rationals, small_rationals, small_rationals)
@settings(max_examples=60, deadline=None)
def test_cyclo_field_axioms(a, b, c):
    F = cyclotomic_field(6)
    z = F.zeta()
    x = F.from_rational(a) + a * z
    y = F.from_rational(b) + c * z
    w = F.from_rational(c) - b * z
    assert x + y == y + x
    assert (x + y) + w == x + (y + w)
    assert x * y == y * x
    assert (x * y) * w == x * (y * w)
    assert x * (y + w) == x * y + x * w


def test_literals():
    assert parse_scalar("3/4", RATIONALS) == Fraction(3, 4)
    assert parse_scalar("-2", RATIONALS) == Fraction(-2)
    F = cyclotomic_field(4)
    z = parse_scalar("1/4 + 1/4*z^1", F)
    assert z == Fraction(1, 4) + Fraction(1, 4) * F.zeta()
    assert parse_scalar("z", F) == F.zeta()
    assert parse_scalar("1 - z^2", F) == F.one - F.zeta(2)
    with pytest.raises(InputFormatError):
        parse_scalar("z^1", RATIONALS)
    with pytest.raises(InputFormatError):
        parse_scalar("1//2", RATIONALS)


def test_format_roundtrip():
    F = cyclotomic_field(4)
    for x in (F.zero, F.one, -F.zeta(), Fraction(3, 2) * F.zeta() - Fraction(1, 7)):
        assert parse_scalar(format_scalar(x), F) == x
    assert format_scalar(Fraction(-5, 3)) == "-5/3"


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
def test_format_ratio_writes_the_fraction(numerator, denominator):
    """A ratio of integers is written as its `Fraction` is: lowest terms,
    the sign on the numerator, a bare integer when the denominator divides."""
    assert format_ratio(numerator, denominator) == str(Fraction(numerator, denominator))
    k = abs(numerator) % 97 + 1
    assert format_ratio(k * numerator, k * denominator) == format_scalar(Fraction(numerator, denominator))


def test_integral_form_scales_by_the_lcm_of_denominators():
    assert integral_form([Fraction(1, 4), Fraction(-1, 6), 0, Fraction(2)]) == (12, [3, -2, 0, 24])
    assert integral_form([Fraction(0)] * 3) == (1, [0, 0, 0])
    assert integral_form([2, -3]) == (1, [2, -3])
    assert integral_form(c for c in (Fraction(1, 2), Fraction(-5, 3))) == (6, [3, -10])
    assert integral_form([]) == (1, [])


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@given(st.lists(st.one_of(st.integers(-50, 50), st.just(0),
                          st.fractions(min_value=-20, max_value=20, max_denominator=30)),
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_integral_form_is_the_least_integral_multiple(values):
    """`integral_form` against `Fraction` arithmetic on `int`, negative, zero
    and mixed vectors: each value is its numerator over D, and D is the
    least positive integer that makes every value integral, the lcm of the
    denominators, checked without `lcm`: D v is integral and no D / p is,
    for a prime p dividing D (all denominators are at most 30)."""
    scale, numerators = integral_form(values)
    assert scale > 0 and len(numerators) == len(values)
    assert all(type(n) is int for n in numerators)
    assert all(Fraction(n, scale) == v for n, v in zip(numerators, values))
    for p in SMALL_PRIMES:
        if scale % p == 0:
            assert any((Fraction(scale // p) * v).denominator != 1 for v in values)
    remainder = scale  # every prime factor of D is one of SMALL_PRIMES
    for p in SMALL_PRIMES:
        while remainder % p == 0:
            remainder //= p
    assert remainder == 1


def test_order_cap():
    with pytest.raises(DomainError):
        cyclotomic_field(65)
    with pytest.raises(DomainError):
        cyclotomic_field(0)
    assert cyclotomic_field(64).phi == 32


def test_inexact_polynomial_division_is_an_invariant_error():
    with pytest.raises(InvariantError, match="non-exact cyclotomic division"):
        _poly_div_exact([1], [2])
    # (x^2 + 1) / (x + 1) leaves the remainder 2
    with pytest.raises(InvariantError, match="non-zero remainder"):
        _poly_div_exact([1, 0, 1], [1, 1])


def test_wrong_degree_minimal_polynomial_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(scalars, "cyclotomic_polynomial", lambda n: [1, 1])
    with pytest.raises(InvariantError, match="wrong degree"):
        CyclotomicField(5)
