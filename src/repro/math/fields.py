"""The finite fields ``F_q`` and ``F_{q^2} = F_q[i] / (i^2 + 1)``.

The quadratic extension is only constructed for primes ``q = 3 (mod 4)``,
where ``-1`` is a non-residue so ``x^2 + 1`` is irreducible.  ``F_{q^2}``
is the home of the target group ``GT`` of the modified Tate pairing
(:mod:`repro.groups.pairing`) and of the ``y``-coordinates produced by the
distortion map.

Elements are small immutable value objects; arithmetic returns new
elements.  For hot loops the pairing and multiexp kernels work on raw
``(a, b)`` integer pairs instead, through the module-level functions
:func:`fq2_mul`, :func:`fq2_square`, :func:`fq2_pow` and
:func:`fq2_inverse`; the element classes compute with the same functions,
so both faces share one arithmetic.  Every public API trades in the
classes.

Stored coordinates are always canonical :class:`int` in ``[0, q)``.
Internally the arithmetic uses the **trusted constructors**
:meth:`Fq._from_reduced` / :meth:`Fq2._from_reduced`, which skip the
``__post_init__`` re-reduction (and, for ``Fq2``, the ``q % 4``
re-validation) the public constructors perform -- results of a modular
reduction are already canonical, and re-reducing them on every
construction is measurable in hot loops.  Only code that guarantees
``0 <= value < q`` may call them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GroupError, ParameterError
from repro.math.modular import inv_mod, sqrt_mod

_RawFq2 = tuple  # (a, b) representing a + b*i, i^2 = -1


def fq2_mul(u: _RawFq2, v: _RawFq2, q: int) -> _RawFq2:
    """Karatsuba product with **lazy reduction**: the three cross
    products stay unreduced and each output coordinate is reduced
    exactly once."""
    a, b = u
    c, d = v
    ac = a * c
    bd = b * d
    cross = (a + b) * (c + d) - ac - bd
    return ((ac - bd) % q, cross % q)


def fq2_square(u: _RawFq2, q: int) -> _RawFq2:
    """``(a + bi)^2 = (a - b)(a + b) + 2ab i``: two products, not three."""
    a, b = u
    return ((a - b) * (a + b) % q, 2 * a * b % q)


def fq2_inverse(u: _RawFq2, q: int) -> _RawFq2:
    """Inverse in ``F_{q^2}``; :class:`~repro.errors.ParameterError` on 0.

    Unitary (norm-1) elements -- all of the order-``p`` pairing subgroup
    -- invert by conjugation with no modular inversion; anything else
    costs one :func:`~repro.math.modular.inv_mod` of the norm.
    """
    a, b = u
    norm = a * a + b * b
    if norm % q == 0:
        raise ParameterError("0 is not invertible in F_{q^2}")
    if norm % q == 1:
        return (a % q, (-b) % q)
    norm_inv = inv_mod(norm, q)
    return (a * norm_inv % q, (-b) * norm_inv % q)


def fq2_pow(u: _RawFq2, exponent: int, q: int) -> _RawFq2:
    """Square-and-multiply power; a negative exponent inverts first."""
    if exponent < 0:
        return fq2_pow(fq2_inverse(u, q), -exponent, q)
    result: _RawFq2 = (1, 0)
    base = u
    while exponent:
        if exponent & 1:
            result = fq2_mul(result, base, q)
        base = fq2_square(base, q)
        exponent >>= 1
    return result


@dataclass(frozen=True, slots=True)
class Fq:
    """An element of the prime field ``F_q``."""

    value: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.q)

    @classmethod
    def _from_reduced(cls, value: int, q: int) -> "Fq":
        """Trusted constructor: ``value`` must already lie in ``[0, q)``.

        Skips ``__post_init__``'s re-reduction; the arithmetic uses it
        for every result (already reduced by construction).
        """
        element = object.__new__(cls)
        object.__setattr__(element, "value", value)
        object.__setattr__(element, "q", q)
        return element

    def _check(self, other: "Fq") -> None:
        if self.q != other.q:
            raise GroupError("mixing elements of different fields")

    def __add__(self, other: "Fq") -> "Fq":
        self._check(other)
        return Fq._from_reduced((self.value + other.value) % self.q, self.q)

    def __sub__(self, other: "Fq") -> "Fq":
        self._check(other)
        return Fq._from_reduced((self.value - other.value) % self.q, self.q)

    def __mul__(self, other: "Fq") -> "Fq":
        self._check(other)
        return Fq._from_reduced(self.value * other.value % self.q, self.q)

    def __neg__(self) -> "Fq":
        return Fq._from_reduced((-self.value) % self.q, self.q)

    def __pow__(self, exponent: int) -> "Fq":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return Fq._from_reduced(pow(self.value, exponent, self.q), self.q)

    def inverse(self) -> "Fq":
        return Fq._from_reduced(inv_mod(self.value, self.q), self.q)

    def __truediv__(self, other: "Fq") -> "Fq":
        self._check(other)
        return self * other.inverse()

    def sqrt(self) -> "Fq":
        return Fq._from_reduced(sqrt_mod(self.value, self.q), self.q)

    def is_zero(self) -> bool:
        return self.value == 0

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class Fq2:
    """An element ``a + b*i`` of ``F_{q^2}`` with ``i^2 = -1``."""

    a: int
    b: int
    q: int

    def __post_init__(self) -> None:
        if self.q % 4 != 3:
            raise ParameterError("F_{q^2} = F_q[i] requires q = 3 (mod 4)")
        object.__setattr__(self, "a", self.a % self.q)
        object.__setattr__(self, "b", self.b % self.q)

    @classmethod
    def _from_reduced(cls, a: int, b: int, q: int) -> "Fq2":
        """Trusted constructor: ``a``/``b`` must already lie in ``[0, q)``
        and ``q = 3 (mod 4)`` must already hold (so no re-validation).
        """
        element = object.__new__(cls)
        object.__setattr__(element, "a", a)
        object.__setattr__(element, "b", b)
        object.__setattr__(element, "q", q)
        return element

    @classmethod
    def zero(cls, q: int) -> "Fq2":
        return cls(0, 0, q)

    @classmethod
    def one(cls, q: int) -> "Fq2":
        return cls(1, 0, q)

    @classmethod
    def from_base(cls, value: int, q: int) -> "Fq2":
        """Embed an ``F_q`` value into ``F_{q^2}``."""
        return cls(value, 0, q)

    def _check(self, other: "Fq2") -> None:
        if self.q != other.q:
            raise GroupError("mixing elements of different fields")

    def __add__(self, other: "Fq2") -> "Fq2":
        self._check(other)
        q = self.q
        return Fq2._from_reduced(
            (self.a + other.a) % q, (self.b + other.b) % q, q
        )

    def __sub__(self, other: "Fq2") -> "Fq2":
        self._check(other)
        q = self.q
        return Fq2._from_reduced(
            (self.a - other.a) % q, (self.b - other.b) % q, q
        )

    def __neg__(self) -> "Fq2":
        q = self.q
        return Fq2._from_reduced((-self.a) % q, (-self.b) % q, q)

    def __mul__(self, other: "Fq2") -> "Fq2":
        self._check(other)
        q = self.q
        a, b = fq2_mul((self.a, self.b), (other.a, other.b), q)
        return Fq2._from_reduced(a, b, q)

    def square(self) -> "Fq2":
        q = self.q
        a, b = fq2_square((self.a, self.b), q)
        return Fq2._from_reduced(a, b, q)

    def conjugate(self) -> "Fq2":
        q = self.q
        return Fq2._from_reduced(self.a, (-self.b) % q, q)

    def norm(self) -> int:
        """The field norm ``a^2 + b^2`` in ``F_q``."""
        return (self.a * self.a + self.b * self.b) % self.q

    def inverse(self) -> "Fq2":
        if self.a == 0 and self.b == 0:
            raise GroupError("0 is not invertible in F_{q^2}")
        q = self.q
        a, b = fq2_inverse((self.a, self.b), q)
        return Fq2._from_reduced(a, b, q)

    def __truediv__(self, other: "Fq2") -> "Fq2":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Fq2":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        q = self.q
        a, b = fq2_pow((self.a, self.b), exponent, q)
        return Fq2._from_reduced(a, b, q)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def to_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return f"Fq2({self.a} + {self.b}i mod {self.q})"
