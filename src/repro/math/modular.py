"""Modular arithmetic primitives over prime moduli.

These are the low-level building blocks for the finite fields in
:mod:`repro.math.fields` and the elliptic-curve arithmetic in
:mod:`repro.groups.curve`.  All functions operate on plain Python
integers and assume (without re-checking) that the modulus is an odd
prime unless stated otherwise.  Results are always canonical :class:`int`
in ``[0, p)``.
"""

from __future__ import annotations

from repro.errors import ParameterError


def inv_mod(a: int, p: int) -> int:
    """Return the inverse of ``a`` modulo ``p``.

    Raises :class:`~repro.errors.ParameterError` if ``a`` is not invertible.
    """
    a %= p
    if a == 0:
        raise ParameterError(f"0 is not invertible modulo {p}")
    return pow(a, -1, p)


def batch_inv(
    values: list[int] | tuple[int, ...], p: int, skip_zero: bool = False
) -> list[int]:
    """Invert every element of ``values`` modulo ``p`` with a single
    modular inversion (Montgomery's trick).

    ``n`` inversions cost ``3(n - 1)`` multiplications plus one
    :func:`inv_mod` -- the kernel behind the batched Jacobian-to-affine
    normalisation and the pairing-precomputation schedule in
    :mod:`repro.groups.fastops` / :mod:`repro.groups.pairing`.

    Raises :class:`~repro.errors.ParameterError` if any value is
    ``0 (mod p)`` (reporting the offending index), leaving no partial
    output.  With ``skip_zero`` zero entries are instead skipped and
    backfilled as ``0`` -- the mixed-vector contract callers such as
    :func:`~repro.groups.curve.batch_to_affine` need when identity
    elements ride along with finite ones.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    reduced_values = [0] * n
    acc = 1
    for i, value in enumerate(values):
        reduced = value % p
        if reduced == 0:
            if not skip_zero:
                raise ParameterError(f"0 is not invertible modulo {p} (index {i})")
        else:
            acc = acc * reduced % p
            reduced_values[i] = reduced
        # Zero entries keep the running product unchanged, so their
        # prefix slot simply repeats the previous accumulator.
        prefix[i] = acc
    inverses = [0] * n
    acc = inv_mod(acc, p)
    for i in range(n - 1, 0, -1):
        if reduced_values[i] == 0:
            continue
        inverses[i] = acc * prefix[i - 1] % p
        acc = acc * reduced_values[i] % p
    if reduced_values[0] != 0:
        inverses[0] = acc
    return inverses


def pow_mod(base: int, exponent: int, p: int) -> int:
    """``base ** exponent mod p`` as a canonical :class:`int`."""
    return pow(base, exponent, p)


def legendre_symbol(a: int, p: int) -> int:
    """Return the Legendre symbol ``(a/p)`` in ``{-1, 0, 1}`` for odd prime ``p``."""
    a %= p
    if a == 0:
        return 0
    value = pow_mod(a, (p - 1) // 2, p)
    return -1 if value == p - 1 else 1


def is_quadratic_residue(a: int, p: int) -> bool:
    """Return True iff ``a`` is a nonzero square modulo the odd prime ``p``."""
    return legendre_symbol(a, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """Return a square root of ``a`` modulo the odd prime ``p``.

    Uses the fast ``p % 4 == 3`` exponentiation path when available and
    Tonelli-Shanks otherwise.  Raises
    :class:`~repro.errors.ParameterError` if ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        raise ParameterError(f"{a} is not a quadratic residue modulo {p}")
    if p % 4 == 3:
        return pow_mod(a, (p + 1) // 4, p)
    return _tonelli_shanks(a, p)


def sqrt_3mod4(a: int, p: int) -> int | None:
    """Square root of ``a`` modulo a prime ``p = 3 (mod 4)``, or ``None``
    if ``a`` is a non-residue.

    One exponentiation, ``a^((p+1)/4)``, checked by squaring -- instead
    of a Legendre symbol followed by :func:`sqrt_mod`'s own check and
    root.  For residues the root is the one :func:`sqrt_mod` returns.
    """
    a %= p
    root = pow_mod(a, (p + 1) // 4, p)
    return root if root * root % p == a else None


def _tonelli_shanks(a: int, p: int) -> int:
    """Tonelli-Shanks square root for ``p % 4 == 1`` (``a`` known residue)."""
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow_mod(z, q, p)
    t = pow_mod(a, q, p)
    r = pow_mod(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i, t2i = 0, t
        while t2i != 1:
            t2i = t2i * t2i % p
            i += 1
        b = pow_mod(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x = r1 (mod m1)``, ``x = r2 (mod m2)`` for coprime moduli.

    Returns the unique solution in ``[0, m1*m2)``.
    """
    g = _gcd(m1, m2)
    if g != 1:
        raise ParameterError(f"moduli {m1}, {m2} are not coprime")
    n = m1 * m2
    x = (r1 * m2 * inv_mod(m2, m1) + r2 * m1 * inv_mod(m1, m2)) % n
    return x


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
