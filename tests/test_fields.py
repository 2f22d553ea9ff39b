import pytest
import sympy

from qrtorsion.fields import (PSI_12, QQ, GF, FieldError, SignClass,
                              field_from_string, field_to_string, is_prime)


def test_rational_arithmetic():
    a = QQ.parse("3/4")
    b = QQ.parse("-2/3")
    assert QQ.format(QQ.mul(a, b)) == "-1/2"
    assert QQ.format(QQ.add(a, b)) == "1/12"
    assert QQ.is_zero(QQ.add(a, QQ.neg(a)))
    assert QQ.mul(a, QQ.inv(a)) == QQ.one()


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.mul(F.from_int(3), F.from_int(5)) == F.from_int(1)
    assert F.inv(F.from_int(5)) == F.from_int(3)
    with pytest.raises(FieldError):
        F.inv(F.zero())


def test_pow_uses_builtin_exponentiation():
    big = 10 ** 18
    assert QQ.pow(QQ.one(), big) == 1
    assert QQ.pow(QQ.from_int(-1), big + 1) == -1
    assert QQ.pow(QQ.parse("2/3"), -2) == QQ.parse("9/4")
    assert QQ.pow(QQ.zero(), 0) == 1
    F = GF(7)
    assert F.pow(3, big) == pow(3, big, 7)
    assert F.pow(3, -big) == F.inv(pow(3, big, 7))
    assert F.pow(-4, 2) == 2                  # raw residues are reduced
    for field in (QQ, F):
        with pytest.raises(FieldError):
            field.pow(field.zero(), -big)
    with pytest.raises(FieldError):
        F.pow(14, -1)


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        GF(2)


def test_nonprime_rejected():
    with pytest.raises(FieldError):
        GF(9)


def test_is_prime_matches_sympy_below_10_5():
    assert [n for n in range(10 ** 5) if is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", [
    3215031751,             # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,    # strong pseudoprime to the bases 2, 3, ..., 31
], ids=str)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)
    with pytest.raises(FieldError):
        GF(n)


def test_large_primes_are_fields_up_to_psi_12():
    p = 2 ** 61 - 1
    assert is_prime(p) and GF(p).inv(GF(p).from_int(2)) == (p + 1) // 2
    # the largest prime below psi_12
    assert is_prime(PSI_12 - 20) and sympy.isprime(PSI_12 - 20)
    # psi_12 passes all twelve bases although it is composite, so it and
    # everything above it is refused, the prime 2^89 - 1 included
    assert not sympy.isprime(PSI_12)
    for n in (PSI_12, 2 ** 89 - 1):
        with pytest.raises(FieldError):
            is_prime(n)
        with pytest.raises(FieldError):
            field_from_string(f"Fp:{n}")


def test_field_string_roundtrip():
    for s in ("Q", "Fp:3", "Fp:101"):
        assert field_to_string(field_from_string(s)) == s
    with pytest.raises(FieldError):
        field_from_string("Fp:4")
    with pytest.raises(FieldError):
        field_from_string("R")


def test_sign_class_identifies_negation():
    F = GF(5)
    assert SignClass(F, F.from_int(2)) == SignClass(F, F.from_int(3))
    assert SignClass(QQ, QQ.parse("-7")) == SignClass(QQ, QQ.parse("7"))
    assert SignClass(QQ, QQ.parse("7")) != SignClass(QQ, QQ.parse("5"))


def test_sign_class_group_ops():
    x = SignClass(QQ, QQ.parse("2/3"))
    assert x * x.inv() == SignClass(QQ, QQ.one())
    assert x.pow(3) == SignClass(QQ, QQ.parse("8/27"))
    assert x.pow(0) == SignClass(QQ, QQ.one())


def test_sign_class_canonical_representative():
    F = GF(11)
    # residues come back from the half-range 0..(p-1)/2
    assert SignClass(F, F.from_int(8)).canonical() == 3
    assert SignClass(QQ, QQ.parse("-3/2")).canonical() == QQ.parse("3/2")
