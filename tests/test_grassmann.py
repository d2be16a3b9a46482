from fractions import Fraction

import pytest

from vnoether import GrassmannAlgebra


def test_generators_anticommute():
    alg = GrassmannAlgebra(3)
    a, b = alg.generator(0), alg.generator(1)
    assert a * b == -(b * a)
    assert (a * a).is_zero()


def test_scalar_arithmetic():
    alg = GrassmannAlgebra(2)
    x = alg.scalar(Fraction(1, 2)) + alg.generator(0) * 3
    y = x - alg.generator(0) * 3
    assert y == alg.scalar(Fraction(1, 2))
    assert (x * 0).is_zero()


def test_parity():
    alg = GrassmannAlgebra(3)
    assert alg.scalar(2).parity == 0
    assert alg.generator(1).parity == 1
    assert (alg.generator(0) * alg.generator(1)).parity == 0
    mixed = alg.scalar(1) + alg.generator(0)
    assert mixed.parity is None


def test_range_check():
    alg = GrassmannAlgebra(2)
    with pytest.raises(ValueError):
        alg.generator(2)


def test_integral_coefficients_are_ints():
    alg = GrassmannAlgebra(2)
    e0, e1 = alg.generator(0), alg.generator(1)
    x = alg.scalar(Fraction(4, 2)) + e0 * Fraction(3, 2) * 2
    y = (x * Fraction(1, 2)) * (e1 * Fraction(4, 3) * 3)  # 4 e1 + 6 e0 e1
    for elem in (e0, x, y, x - e0 * Fraction(6, 2)):
        assert all(type(c) is int for c in elem.terms.values()), elem
    assert type((e0 * Fraction(1, 2)).terms[(0,)]) is Fraction


def test_int_and_integral_fraction_build_equal_elements():
    alg = GrassmannAlgebra(2)
    a, b = alg.scalar(2), alg.scalar(Fraction(2))
    assert a == b and hash(a) == hash(b)
    ga, gb = alg.generator(1) * 2, alg.generator(1) * Fraction(2)
    assert ga == gb and hash(ga) == hash(gb)
    assert a.terms == {(): 2} and type(b.terms[()]) is int
