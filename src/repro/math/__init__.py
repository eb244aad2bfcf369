"""Number-theoretic and algebraic substrate.

Modules:

* :mod:`repro.math.modular` -- modular inverse, square roots, CRT.
* :mod:`repro.math.primes` -- Miller-Rabin primality and prime generation.
* :mod:`repro.math.fields` -- the fields ``F_q`` and ``F_{q^2}``.
* :mod:`repro.math.linalg` -- dense linear algebra over ``Z_p``.
* :mod:`repro.math.entropy` -- min-entropy, statistical distance, LHL.
"""

from repro.math.modular import (
    crt_pair,
    inv_mod,
    is_quadratic_residue,
    legendre_symbol,
    pow_mod,
    sqrt_mod,
)
from repro.math.primes import is_prime, next_prime, random_prime

__all__ = [
    "crt_pair",
    "inv_mod",
    "is_prime",
    "is_quadratic_residue",
    "legendre_symbol",
    "next_prime",
    "pow_mod",
    "random_prime",
    "sqrt_mod",
]
