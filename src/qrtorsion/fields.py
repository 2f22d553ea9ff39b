"""Exact coefficient fields: the rationals and prime fields F_p with p an odd prime.

Scalars are plain Python objects (``Fraction`` over Q, canonical residues in
[0, p) over F_p); a :class:`Field` instance supplies the arithmetic.  No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(Exception):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Abstract exact field.  Elements are raw values; operations live here."""

    char: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def pow(self, a, n: int):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError


class RationalField(Field):
    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def pow(self, a, n):
        if n < 0 and a == 0:
            raise FieldError("division by zero")
        return Fraction(a) ** n

    def parse(self, s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in {s!r}") from None

    def format(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """F_p for an odd prime p; residues stored canonically in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            raise FieldError("characteristic two is not supported")
        self.p = p
        self.char = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def pow(self, a, n):
        a %= self.p
        if n < 0 and a == 0:
            raise FieldError("division by zero")
        return pow(a, n, self.p)

    def parse(self, s):
        return int(s) % self.p

    def format(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_string(s: str) -> Field:
    """Parse a field spec of the form ``Q`` or ``Fp:<p>`` (also ``F5``)."""
    s = s.strip()
    if s in ("Q", "QQ", "0"):
        return QQ
    if s.startswith("Fp:"):
        return GF(int(s[3:]))
    if s.startswith("F"):
        return GF(int(s[1:]))
    raise FieldError(f"unrecognized field spec {s!r}")


def field_to_string(F: Field) -> str:
    return "Q" if F.char == 0 else f"Fp:{F.char}"


class SignClass:
    """A nonzero field element taken modulo multiplication by -1."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        if field.is_zero(value):
            raise FieldError("SignClass value must be nonzero")
        self.field = field
        self.value = value

    def canonical(self):
        """Positive representative over Q; representative in [1, (p-1)/2] over F_p."""
        F = self.field
        v = self.value
        if F.char == 0:
            return v if v > 0 else -v
        v %= F.char
        return v if v <= (F.char - 1) // 2 else F.char - v

    def __eq__(self, other):
        if not isinstance(other, SignClass) or other.field != self.field:
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.field, self.canonical()))

    def __mul__(self, other):
        if isinstance(other, SignClass):
            if other.field != self.field:
                raise FieldError("field mismatch")
            return SignClass(self.field, self.field.mul(self.value, other.value))
        return SignClass(self.field, self.field.mul(self.value, other))

    def inv(self):
        return SignClass(self.field, self.field.inv(self.value))

    def pow(self, n: int):
        return SignClass(self.field, self.field.pow(self.value, n))

    def __repr__(self):
        return f"SignClass(±{self.field.format(self.canonical())})"
