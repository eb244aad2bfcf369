"""The modified Tate pairing on ``y^2 = x^3 + x / F_q`` via Miller's algorithm.

For a supersingular curve with embedding degree 2 the pairing of two
points of the order-``p`` subgroup of ``E(F_q)`` is::

    e(P, Q) = f_{p,P}(phi(Q)) ^ ((q^2 - 1) / p)

where ``phi(x, y) = (-x, i*y)`` is the distortion map into
``E(F_{q^2})`` (``i^2 = -1``) and ``f_{p,P}`` is the Miller function with
divisor ``p(P) - p(O)``.  Properties (verified by the test-suite):

* bilinear: ``e(P^a, Q^b) = e(P, Q)^{a b}`` (multiplicative notation);
* symmetric: ``e(P, Q) = e(Q, P)`` (type-1 pairing);
* non-degenerate: ``e(g, g)`` generates the order-``p`` subgroup of
  ``F_{q^2}^*``.

Implementation notes: we use *denominator elimination* -- any factor
lying in ``F_q`` is annihilated by the final exponentiation
``(q - 1) * h`` (as ``(q^2-1)/p = (q-1)(q+1)/p = (q-1) h``, and
``x^{q-1} = 1`` for ``x`` in ``F_q^*``) -- and the Frobenius
``z -> z^q`` is plain conjugation in ``F_{q^2}``, so the final
exponentiation is ``(conj(z) / z)^h``.

The production Miller loop (:func:`miller_loop`) is **inversion-free**:
the running point ``T`` is tracked in Jacobian coordinates and each line
function is evaluated *scaled by its F_q denominator* (``2YZ^3`` for the
tangent, ``Z^3 (x_P Z^2 - X)`` for the chord), which the final
exponentiation eliminates along with the vertical lines.  The affine
loop with one :func:`~repro.math.modular.inv_mod` per step is kept as
:func:`miller_loop_affine` -- the reference the projective path is
property-tested against.

For the common "one fixed ``P`` against many ``Q``" pattern (the DLR
decryption protocols pair one ciphertext component ``A`` against every
share element) :class:`PairingPrecomp` runs the Miller doubling schedule
once -- point arithmetic in Jacobian form, normalised to affine with a
single batched inversion (:func:`~repro.math.modular.batch_inv`) --
caches the affine line coefficients ``(lambda, ty - lambda*tx)`` per
step, and then evaluates against each ``Q`` with two integer
multiplications per step instead of a full curve walk.
"""

from __future__ import annotations

from repro.groups.curve import (
    Point,
    _jacobian_add_affine,
    _jacobian_double,
    batch_to_affine,
)
from repro.groups.pairing_params import PairingParams
from repro.math.fields import Fq2, fq2_inverse, fq2_mul, fq2_pow, fq2_square
from repro.math.modular import batch_inv, inv_mod

_RawFq2 = tuple[int, int]

# The raw F_{q^2} kernels (lazy-reduction Karatsuba product, square,
# ladder pow, unitary-shortcut inverse) live in :mod:`repro.math.fields`;
# the Miller loops below bind them to locals for the hot loop.


def miller_loop_affine(p_point: Point, q_point: Point, params: PairingParams) -> _RawFq2:
    """The affine Miller loop: one modular inversion per doubling/add step.

    Reference implementation -- :func:`miller_loop` must agree with it up
    to an ``F_q`` scalar (i.e. exactly, after final exponentiation).
    """
    order = params.p
    if p_point.is_infinity() or q_point.is_infinity():
        return (1, 0)
    mul, square = fq2_mul, fq2_square
    q = params.q
    # phi(Q) = (-x_Q, i * y_Q): affine x in F_q, purely imaginary y.
    phi_x = -q_point.x % q
    phi_y = q_point.y % q
    neg_phi_y = (-phi_y) % q

    f: _RawFq2 = (1, 0)
    tx, ty = p_point.x % q, p_point.y % q
    px, py = tx, ty
    t_infinity = False

    bits = bin(order)[3:]  # skip the leading 1: T already equals P
    for bit in bits:
        if not t_infinity:
            # Doubling step: tangent line at T evaluated at phi(Q).
            slope = (3 * tx * tx + 1) * inv_mod(2 * ty, q) % q
            line = ((slope * (phi_x - tx) + ty) % q, neg_phi_y)
            f = mul(square(f, q), line, q)
            # T <- 2T
            x3 = (slope * slope - 2 * tx) % q
            ty = (slope * (tx - x3) - ty) % q
            tx = x3
        else:
            f = square(f, q)
        if bit == "1" and not t_infinity:
            if tx == px and (ty + py) % q == 0:
                # T = -P: the chord is vertical, lies in F_q, eliminated.
                t_infinity = True
            else:
                slope = (py - ty) * inv_mod(px - tx, q) % q
                line = ((slope * (phi_x - tx) + ty) % q, neg_phi_y)
                f = mul(f, line, q)
                x3 = (slope * slope - tx - px) % q
                ty = (slope * (tx - x3) - ty) % q
                tx = x3
    return f


def miller_loop(p_point: Point, q_point: Point, params: PairingParams) -> _RawFq2:
    """Evaluate the Miller function ``f_{p, P}`` at ``phi(Q)``,
    inversion-free.

    ``T`` is tracked in Jacobian coordinates ``(X, Y, Z)`` with
    ``tx = X/Z^2``, ``ty = Y/Z^3``; each line function is multiplied
    through by its ``F_q`` denominator (tangent: ``2YZ^3``, chord:
    ``Z^3 (x_P Z^2 - X)``), so the result differs from
    :func:`miller_loop_affine` only by an ``F_q`` factor -- annihilated
    by :func:`final_exponentiation` exactly like the vertical lines.
    Returns a raw ``F_{q^2}`` pair, *before* final exponentiation.
    """
    order = params.p
    if p_point.is_infinity() or q_point.is_infinity():
        return (1, 0)
    mul, square = fq2_mul, fq2_square
    q = params.q
    phi_x = -q_point.x % q
    phi_y = q_point.y % q
    neg_phi_y = (-phi_y) % q

    f: _RawFq2 = (1, 0)
    px, py = p_point.x % q, p_point.y % q
    tx_, ty_, tz_ = px, py, 1  # T = P, Jacobian with Z = 1
    t_infinity = False

    bits = bin(order)[3:]
    for bit in bits:
        f = square(f, q)
        if not t_infinity:
            # Tangent line at T, scaled by 2YZ^3 in F_q:
            #   real = (3X^2 + Z^4)(phi_x Z^2 - X) + 2Y^2
            #   imag = -phi_y * 2YZ^3
            zz = tz_ * tz_ % q
            m = (3 * tx_ * tx_ + zz * zz) % q  # a = 1 for y^2 = x^3 + x
            scale = 2 * ty_ * tz_ * zz % q
            line = (
                (m * (phi_x * zz - tx_) + 2 * ty_ * ty_) % q,
                neg_phi_y * scale % q,
            )
            f = mul(f, line, q)
            tx_, ty_, tz_ = _jacobian_double((tx_, ty_, tz_), q)
        if bit == "1" and not t_infinity:
            zz = tz_ * tz_ % q
            zzz = zz * tz_ % q
            h = (px * zz - tx_) % q
            if h == 0 and (ty_ + py * zzz) % q == 0:
                # T = -P: the chord is vertical, lies in F_q, eliminated.
                t_infinity = True
            else:
                # Chord through T and P, scaled by Z^3 (px Z^2 - X):
                #   real = (py Z^3 - Y)(phi_x Z^2 - X) + Y (px Z^2 - X)
                #   imag = -phi_y * Z^3 (px Z^2 - X)
                r = (py * zzz - ty_) % q
                line = (
                    (r * (phi_x * zz - tx_) + ty_ * h) % q,
                    neg_phi_y * zzz * h % q,
                )
                f = mul(f, line, q)
                tx_, ty_, tz_ = _jacobian_add_affine((tx_, ty_, tz_), px, py, q)
    return f


class PairingPrecomp:
    """The fixed-argument Miller schedule of one point ``P``.

    Runs the doubling/addition schedule of ``f_{p, P}`` once, caching
    per-step affine line coefficients ``(lambda, ty - lambda * tx)``;
    :meth:`pair_with` then evaluates ``e(P, Q)`` for any ``Q`` without
    touching the curve again.  Construction performs the whole schedule
    with **two** modular inversions total: the step points are computed
    in Jacobian form and normalised with one
    :func:`~repro.math.modular.batch_inv`, and all slope denominators
    are inverted with a second.

    The cached schedule is ``O(log p)`` integer pairs; it pays for
    itself from the second ``Q`` onwards (see docs/performance.md).
    """

    __slots__ = ("params", "steps", "_trivial")

    def __init__(self, p_point: Point, params: PairingParams) -> None:
        self.params = params
        self._trivial = p_point.is_infinity()
        #: Per loop iteration: (dbl_coeffs | None, add_coeffs | None);
        #: ``None`` means the step only squares ``f`` (T at infinity) /
        #: has no addition.  Coeffs are (lambda, ty - lambda * tx).
        self.steps: list[tuple[tuple[int, int] | None, tuple[int, int] | None]] = []
        if self._trivial:
            return
        q = params.q
        px, py = p_point.x % q, p_point.y % q

        # Pass 1: walk the schedule in Jacobian form, recording the point
        # *before* each doubling / addition plus the step layout.
        jac = (px, py, 1)
        layout: list[tuple[bool, bool]] = []  # (has_double, has_add)
        dbl_points = []
        add_points = []
        t_infinity = False
        bits = bin(params.p)[3:]
        for bit in bits:
            has_double = not t_infinity
            if has_double:
                dbl_points.append(jac)
                jac = _jacobian_double(jac, q)
            has_add = False
            if bit == "1" and not t_infinity:
                zz = jac[2] * jac[2] % q
                if (px * zz - jac[0]) % q == 0 and (jac[1] + py * zz * jac[2]) % q == 0:
                    t_infinity = True  # T = -P: vertical chord, eliminated
                else:
                    has_add = True
                    add_points.append(jac)
                    jac = _jacobian_add_affine(jac, px, py, q)
            layout.append((has_double, has_add))

        # Pass 2: one batched normalisation for every step point ...
        affine = batch_to_affine(dbl_points + add_points, q)
        dbl_affine = affine[: len(dbl_points)]
        add_affine = affine[len(dbl_points):]
        # ... and one batched inversion for every slope denominator.
        denominators = [2 * pt.y % q for pt in dbl_affine] + [
            (px - pt.x) % q for pt in add_affine
        ]
        inverses = batch_inv(denominators, q)
        dbl_inv = inverses[: len(dbl_affine)]
        add_inv = inverses[len(dbl_affine):]

        dbl_iter = iter(zip(dbl_affine, dbl_inv))
        add_iter = iter(zip(add_affine, add_inv))
        for has_double, has_add in layout:
            dbl_coeffs = None
            if has_double:
                pt, d_inv = next(dbl_iter)
                slope = (3 * pt.x * pt.x + 1) * d_inv % q
                dbl_coeffs = (slope, (pt.y - slope * pt.x) % q)
            add_coeffs = None
            if has_add:
                pt, d_inv = next(add_iter)
                slope = (py - pt.y) * d_inv % q
                add_coeffs = (slope, (pt.y - slope * pt.x) % q)
            self.steps.append((dbl_coeffs, add_coeffs))

    def miller_eval(self, q_point: Point) -> _RawFq2:
        """``f_{p, P}(phi(Q))`` from the cached schedule (pre final exp)."""
        if self._trivial or q_point.is_infinity():
            return (1, 0)
        mul, square = fq2_mul, fq2_square
        q = self.params.q
        phi_x = -q_point.x % q
        neg_phi_y = -q_point.y % q
        f: _RawFq2 = (1, 0)
        for dbl_coeffs, add_coeffs in self.steps:
            f = square(f, q)
            if dbl_coeffs is not None:
                slope, offset = dbl_coeffs
                f = mul(f, ((slope * phi_x + offset) % q, neg_phi_y), q)
            if add_coeffs is not None:
                slope, offset = add_coeffs
                f = mul(f, ((slope * phi_x + offset) % q, neg_phi_y), q)
        return f

    def pair_with(self, q_point: Point) -> Fq2:
        """The full pairing ``e(P, Q)`` via the cached schedule."""
        raw = final_exponentiation(self.miller_eval(q_point), self.params)
        return Fq2._from_reduced(raw[0], raw[1], self.params.q)

    def pair_with_many(self, q_points: "list[Point]") -> list[Fq2]:
        """:meth:`pair_with` over a whole vector, off one cached schedule."""
        return [self.pair_with(q_point) for q_point in q_points]


def final_exponentiation(value: _RawFq2, params: PairingParams) -> _RawFq2:
    """Raise to ``(q^2 - 1)/p = (q - 1) * h`` using Frobenius = conjugation."""
    q = params.q
    a, b = value[0] % q, value[1] % q
    conjugate: _RawFq2 = (a, (-b) % q)
    powered_q_minus_1 = fq2_mul(conjugate, fq2_inverse((a, b), q), q)
    return fq2_pow(powered_q_minus_1, params.h, q)


def tate_pairing(p_point: Point, q_point: Point, params: PairingParams) -> Fq2:
    """The full modified Tate pairing ``e(P, Q)`` as an ``F_{q^2}`` element."""
    raw = final_exponentiation(miller_loop(p_point, q_point, params), params)
    return Fq2._from_reduced(raw[0], raw[1], params.q)
