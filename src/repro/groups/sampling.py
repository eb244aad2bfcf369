"""Sampling group elements *directly*, with unknown discrete logarithm.

Paper section 5.2 ("Reusing ciphertexts and hiding discrete logs of
random coins") requires the random coins ``b_ij`` and the ``a_i`` to be
sampled as random group elements **without** going through a random
exponent -- otherwise their discrete logs would sit in secret memory and
be exposed to leakage.  "This is feasible in the groups used in our
scheme":

* in ``G`` we pick a random ``x`` until ``x^3 + x`` is a square, lift to
  a curve point, and clear the cofactor ``h`` -- nobody learns a discrete
  log;
* in ``GT`` we pick a random ``F_{q^2}^*`` element and raise it to
  ``(q^2 - 1)/p``.

Both are retried on the (probability ``~1/p``) identity outcome.
"""

from __future__ import annotations

import random

from repro.groups import curve
from repro.groups.curve import Point
from repro.groups.pairing_params import PairingParams
from repro.math.fields import Fq2
from repro.math.modular import sqrt_3mod4


def random_subgroup_point(params: PairingParams, rng: random.Random) -> Point:
    """Return a uniformly random point of the order-``p`` subgroup, excluding
    the identity, with discrete log unknown even to the caller."""
    q = params.q
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        if rhs == 0:
            continue
        y = sqrt_3mod4(rhs, q)  # q = 3 (mod 4) for every PairingParams
        if y is None:
            continue
        if rng.getrandbits(1):
            y = (-y) % q
        candidate = curve.scalar_mul(Point(x, y, False), params.h, q)
        if not candidate.is_infinity():
            return candidate


def random_gt_value(params: PairingParams, rng: random.Random) -> Fq2:
    """Return a uniformly random non-identity element of the order-``p``
    subgroup of ``F_{q^2}^*`` with unknown discrete log."""
    q = params.q
    exponent = params.gt_exponent()
    while True:
        candidate = Fq2(rng.randrange(q), rng.randrange(q), params.q)
        if candidate.is_zero():
            continue
        value = candidate ** exponent
        if not value.is_one():
            return value
