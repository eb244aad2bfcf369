"""The public bilinear-group interface: ``(p, g, e)`` plus ``G`` / ``GT``
element types.

This is the abstraction the schemes are written against.  Notation
follows the paper: both ``G`` and ``GT`` are written *multiplicatively*
(``g ** a`` is scalar multiplication on the curve, ``u * v`` is point
addition), so scheme code reads exactly like the construction in the
paper (``g2 ** alpha * prod(a_i ** s_i)`` ...).

Every group keeps an :class:`OperationCounter` so benchmarks can report
"number of exponentiations / pairings per operation" -- the quantities
footnote 3 of the paper compares across schemes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence, TypeVar

from repro.errors import GroupError
from repro.groups import curve, fastops
from repro.groups.curve import Point
from repro.groups.pairing import PairingPrecomp, tate_pairing
from repro.groups.pairing_params import PairingParams
from repro.groups.sampling import random_gt_value, random_subgroup_point
from repro.math.backend import active_backend
from repro.math.fields import Fq2
from repro.parallel import parallel_map
from repro.utils.bits import BitString
from repro.utils.serialization import int_width


#: Relative cost of each counted operation, in units of one group
#: multiplication.  Calibrated from the wall-clock kernel timings in
#: ``benchmarks/bench_speed.py`` (see ``results/BENCH_speed.json``,
#: ``cost_weights``); multiexp weights are *per folded term*, which is
#: why they sit well below a standalone exponentiation.
DEFAULT_COST_WEIGHTS: dict[str, int] = {
    "g_mul": 1,
    "g_exp": 30,
    "g_multiexp": 14,
    "gt_mul": 1,
    "gt_exp": 27,
    "gt_multiexp": 4,
    "pairings": 73,
    "pairings_precomp": 25,
    "g_samples": 0,
    "gt_samples": 0,
}

#: Weights for the gmpy2 backend.  GMP shrinks every bignum product, but
#: not uniformly: the per-operation *Python* overhead (attribute lookups,
#: tuple churn) is untouched, so cheap ops (one group mul) shrink less
#: than ops dominated by long multiply chains (exponentiations,
#: pairings), compressing the ratios.  Provisional until the CI gmpy2
#: leg's ``bench_speed.py`` calibration replaces them (the pure-Python
#: column stays :data:`DEFAULT_COST_WEIGHTS`).
GMPY2_COST_WEIGHTS: dict[str, int] = {
    "g_mul": 1,
    "g_exp": 24,
    "g_multiexp": 11,
    "gt_mul": 1,
    "gt_exp": 21,
    "gt_multiexp": 4,
    "pairings": 58,
    "pairings_precomp": 20,
    "g_samples": 0,
    "gt_samples": 0,
}

#: ``total_cost()`` weight tables keyed by the counter's backend tag;
#: unknown tags (e.g. test shim backends) fall back to the default.
COST_WEIGHTS_BY_BACKEND: dict[str, dict[str, int]] = {
    "python": DEFAULT_COST_WEIGHTS,
    "gmpy2": GMPY2_COST_WEIGHTS,
}


@dataclass
class OperationCounter:
    """Counts of expensive group operations since the last reset.

    ``g_multiexp`` / ``gt_multiexp`` count *folded terms*: one
    ``multiexp`` over ``ell`` bases bumps the counter by ``ell`` (and
    does not touch ``g_exp`` / ``gt_exp``), so the counter stays
    proportional to problem size while recording that the terms were
    evaluated on the shared-squaring kernel.  ``pairings_precomp``
    counts pairings evaluated against a cached Miller schedule
    (:meth:`BilinearGroup.pairing_precomp`), which cost roughly a third
    of a full pairing.

    ``backend`` tags the counts with the field backend that was active
    when the counter was created; it is *not* a counter (``reset`` keeps
    it, ``as_dict`` excludes it) and selects the default
    :meth:`total_cost` weight table via
    :data:`COST_WEIGHTS_BY_BACKEND`.
    """

    g_mul: int = 0
    g_exp: int = 0
    g_multiexp: int = 0
    gt_mul: int = 0
    gt_exp: int = 0
    gt_multiexp: int = 0
    pairings: int = 0
    pairings_precomp: int = 0
    g_samples: int = 0
    gt_samples: int = 0
    backend: str = field(default_factory=lambda: active_backend().name)

    def reset(self) -> None:
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain ``{name: count}`` dict (stable field
        order, backend tag excluded), the shape telemetry snapshots and
        span attributes use."""
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def nonzero(self) -> dict[str, int]:
        """Only the counters that moved -- what a span records as its
        ``ops`` attribute (empty dict = the step did no group work)."""
        return {name: count for name, count in self.as_dict().items() if count}

    def snapshot(self) -> "OperationCounter":
        return OperationCounter(backend=self.backend, **self.as_dict())

    def diff(self, earlier: "OperationCounter") -> "OperationCounter":
        """Return the operations performed since ``earlier`` was snapshot."""
        return OperationCounter(
            backend=self.backend,
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _COUNTER_FIELDS
            },
        )

    @property
    def exponentiations(self) -> int:
        return self.g_exp + self.gt_exp

    def total_cost(self, weights: dict[str, int] | None = None) -> int:
        """A single-number cost in group-multiplication units.

        ``weights`` defaults to the table calibrated for this counter's
        backend tag (:data:`COST_WEIGHTS_BY_BACKEND`, falling back to
        :data:`DEFAULT_COST_WEIGHTS`); pass a partial dict to override
        individual weights, e.g. a fresh calibration from
        ``benchmarks/bench_speed.py``.
        """
        effective = COST_WEIGHTS_BY_BACKEND.get(self.backend, DEFAULT_COST_WEIGHTS)
        if weights is not None:
            effective = {**effective, **weights}
        return sum(
            effective.get(name, 0) * getattr(self, name)
            for name in _COUNTER_FIELDS
        )


_COUNTER_FIELDS: tuple[str, ...] = tuple(
    name for name in OperationCounter.__dataclass_fields__ if name != "backend"
)


_ElementT = TypeVar("_ElementT")


def _collect_terms(
    bases: "Sequence[_ElementT]",
    exponents: Sequence[int],
    is_identity: "Callable[[_ElementT], bool]",
) -> tuple["BilinearGroup | None", list[tuple["_ElementT", int]]]:
    """Shared multiexp front-end: validate, reduce exponents mod ``p``,
    and drop trivial terms (zero exponent or identity base) -- neither
    the fast kernels nor the naive ladder ever see them, matching the
    ``**`` fast-path contract that identity walks are not counted."""
    if len(bases) != len(exponents):
        raise GroupError("multiexp: bases and exponents differ in length")
    group: BilinearGroup | None = None
    terms: list[tuple[_ElementT, int]] = []
    for base, exponent in zip(bases, exponents):
        base_group = base.group  # type: ignore[attr-defined]
        if group is None:
            group = base_group
        elif base_group.params is not group.params:
            raise GroupError("mixing elements of different groups")
        reduced = exponent % group.params.p
        if reduced == 0 or is_identity(base):
            continue
        terms.append((base, reduced))
    return group, terms


class G1Element:
    """An element of the order-``p`` curve subgroup ``G`` (multiplicative)."""

    __slots__ = ("group", "point")

    def __init__(self, group: "BilinearGroup", point: Point) -> None:
        self.group = group
        self.point = point

    def _check(self, other: "G1Element") -> None:
        if self.group.params is not other.group.params:
            raise GroupError("mixing elements of different groups")

    def __mul__(self, other: "G1Element") -> "G1Element":
        self._check(other)
        self.group.counter.g_mul += 1
        return G1Element(self.group, curve.add(self.point, other.point, self.group.params.q))

    def __truediv__(self, other: "G1Element") -> "G1Element":
        return self * other.inverse()

    def inverse(self) -> "G1Element":
        return G1Element(self.group, self.point.negate(self.group.params.q))

    def __pow__(self, exponent: int) -> "G1Element":
        params = self.group.params
        reduced = exponent % params.p
        # Trivial exponents need no ladder and are not counted: the
        # benchmarks measure real work, not identity walks.
        if reduced == 0:
            return self.group.g_identity()
        if reduced == 1:
            return self
        self.group.counter.g_exp += 1
        return G1Element(self.group, curve.scalar_mul(self.point, reduced, params.q))

    def is_identity(self) -> bool:
        return self.point.is_infinity()

    @classmethod
    def multiexp(
        cls, bases: "Sequence[G1Element]", exponents: Sequence[int]
    ) -> "G1Element":
        """``prod_i bases[i] ** exponents[i]`` on the shared-squaring kernel.

        Counts ``len(bases)`` (after dropping trivial terms) on
        ``g_multiexp`` instead of individual ``g_exp``; inside
        :func:`repro.groups.fastops.reference_mode` it degrades to the
        per-term ladder with the classic counter profile.  The result is
        bit-identical either way.
        """
        group, terms = _collect_terms(
            bases, exponents, lambda b: b.point.is_infinity()
        )
        if group is None:
            raise GroupError("multiexp needs at least one base")
        if not terms:
            return group.g_identity()
        if not fastops.enabled() or len(terms) == 1:
            result = terms[0][0] ** terms[0][1]
            for base, exponent in terms[1:]:
                result = result * (base ** exponent)
            return result
        group.counter.g_multiexp += len(terms)
        point = fastops.multiexp_points(
            [base.point for base, _ in terms],
            [exponent for _, exponent in terms],
            group.params.q,
        )
        return G1Element(group, point)

    @classmethod
    def multiexp_batch(
        cls, instances: "Sequence[tuple[Sequence[G1Element], Sequence[int]]]"
    ) -> "list[G1Element]":
        """Evaluate a vector of :meth:`multiexp` instances, amortised.

        Values **and counter totals** are identical to mapping
        :meth:`multiexp` over the instances -- each fast instance still
        bumps ``g_multiexp`` by its own term count, and degenerate /
        reference-mode instances still degrade to the per-term ladder --
        but all Straus-sized instances share one window decision and one
        batched inversion (:func:`repro.groups.fastops.batch_multiexp_points`),
        and with the process pool enabled the kernel fans out across
        workers (:mod:`repro.parallel`).
        """
        results: list[G1Element | None] = [None] * len(instances)
        fast: list[tuple[int, BilinearGroup, list[tuple[G1Element, int]]]] = []
        for idx, (bases, exponents) in enumerate(instances):
            group, terms = _collect_terms(
                bases, exponents, lambda b: b.point.is_infinity()
            )
            if group is None:
                raise GroupError("multiexp needs at least one base")
            if not terms:
                results[idx] = group.g_identity()
            elif not fastops.enabled() or len(terms) == 1:
                results[idx] = cls.multiexp(bases, exponents)
            else:
                group.counter.g_multiexp += len(terms)
                fast.append((idx, group, terms))
        # Instances may span distinct group instantiations; the raw
        # kernel is per-modulus, so partition before dispatching.
        by_q: dict[int, list[tuple[int, "BilinearGroup", list]]] = {}
        for entry in fast:
            by_q.setdefault(entry[1].params.q, []).append(entry)
        for q, entries in by_q.items():
            kernel_instances = [
                (
                    [base.point for base, _ in terms],
                    [exponent for _, exponent in terms],
                )
                for _, _, terms in entries
            ]
            points = parallel_map(
                partial(fastops.batch_multiexp_points_chunk, q), kernel_instances
            )
            for (idx, group, _), point in zip(entries, points):
                results[idx] = G1Element(group, point)
        return results  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, G1Element):
            return NotImplemented
        return self.point == other.point

    def __hash__(self) -> int:
        return hash(("G1", self.point))

    def to_bits(self) -> BitString:
        """Compressed encoding: infinity flag, x, parity of y."""
        q = self.group.params.q
        width = int_width(q)
        if self.point.is_infinity():
            return BitString(0, width + 2)
        flagged_x = (1 << width) | (self.point.x % q)
        return BitString((flagged_x << 1) | (self.point.y % 2), width + 2)

    def __repr__(self) -> str:
        if self.point.is_infinity():
            return "G1(identity)"
        return f"G1(x={self.point.x}, y={self.point.y})"


class GTElement:
    """An element of the order-``p`` subgroup of ``F_{q^2}^*``."""

    __slots__ = ("group", "value")

    def __init__(self, group: "BilinearGroup", value: Fq2) -> None:
        self.group = group
        self.value = value

    def _check(self, other: "GTElement") -> None:
        if self.group.params is not other.group.params:
            raise GroupError("mixing elements of different groups")

    def __mul__(self, other: "GTElement") -> "GTElement":
        self._check(other)
        self.group.counter.gt_mul += 1
        return GTElement(self.group, self.value * other.value)

    def __truediv__(self, other: "GTElement") -> "GTElement":
        self._check(other)
        self.group.counter.gt_mul += 1
        return GTElement(self.group, self.value * other.value.inverse())

    def inverse(self) -> "GTElement":
        return GTElement(self.group, self.value.inverse())

    def __pow__(self, exponent: int) -> "GTElement":
        reduced = exponent % self.group.params.p
        if reduced == 0:
            return self.group.gt_identity()
        if reduced == 1:
            return self
        self.group.counter.gt_exp += 1
        return GTElement(self.group, self.value ** reduced)

    def is_identity(self) -> bool:
        return self.value.is_one()

    @classmethod
    def multiexp(
        cls, bases: "Sequence[GTElement]", exponents: Sequence[int]
    ) -> "GTElement":
        """``prod_i bases[i] ** exponents[i]`` in ``GT`` on the
        shared-squaring kernel; see :meth:`G1Element.multiexp` for the
        counting contract (here ``gt_multiexp`` / ``gt_exp``)."""
        group, terms = _collect_terms(bases, exponents, lambda b: b.value.is_one())
        if group is None:
            raise GroupError("multiexp needs at least one base")
        if not terms:
            return group.gt_identity()
        if not fastops.enabled() or len(terms) == 1:
            result = terms[0][0] ** terms[0][1]
            for base, exponent in terms[1:]:
                result = result * (base ** exponent)
            return result
        group.counter.gt_multiexp += len(terms)
        q = group.params.q
        a, b = fastops.multiexp_fq2(
            [(base.value.a, base.value.b) for base, _ in terms],
            [exponent for _, exponent in terms],
            q,
        )
        # The kernel returns canonical reduced ints -- skip re-reduction.
        return GTElement(group, Fq2._from_reduced(a, b, q))

    @classmethod
    def multiexp_batch(
        cls, instances: "Sequence[tuple[Sequence[GTElement], Sequence[int]]]"
    ) -> "list[GTElement]":
        """Evaluate a vector of ``GT`` :meth:`multiexp` instances; see
        :meth:`G1Element.multiexp_batch` for the value/counter contract
        (here ``gt_multiexp``, kernel
        :func:`repro.groups.fastops.batch_multiexp_fq2`)."""
        results: list[GTElement | None] = [None] * len(instances)
        fast: list[tuple[int, BilinearGroup, list[tuple[GTElement, int]]]] = []
        for idx, (bases, exponents) in enumerate(instances):
            group, terms = _collect_terms(bases, exponents, lambda b: b.value.is_one())
            if group is None:
                raise GroupError("multiexp needs at least one base")
            if not terms:
                results[idx] = group.gt_identity()
            elif not fastops.enabled() or len(terms) == 1:
                results[idx] = cls.multiexp(bases, exponents)
            else:
                group.counter.gt_multiexp += len(terms)
                fast.append((idx, group, terms))
        by_q: dict[int, list[tuple[int, "BilinearGroup", list]]] = {}
        for entry in fast:
            by_q.setdefault(entry[1].params.q, []).append(entry)
        for q, entries in by_q.items():
            kernel_instances = [
                (
                    [(base.value.a, base.value.b) for base, _ in terms],
                    [exponent for _, exponent in terms],
                )
                for _, _, terms in entries
            ]
            values = parallel_map(
                partial(fastops.batch_multiexp_fq2_chunk, q), kernel_instances
            )
            for (idx, group, _), (a, b) in zip(entries, values):
                results[idx] = GTElement(group, Fq2._from_reduced(a, b, q))
        return results  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GTElement):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("GT", self.value.a, self.value.b))

    def to_bits(self) -> BitString:
        width = int_width(self.group.params.q)
        return BitString((self.value.a << width) | self.value.b, 2 * width)

    def __repr__(self) -> str:
        return f"GT({self.value.a} + {self.value.b}i)"


class G1Precomp:
    """Fixed-argument pairing handle: ``e(P, .)`` with ``P``'s Miller
    schedule cached.

    Obtained from :meth:`BilinearGroup.pairing_precomp`.  Each
    :meth:`pair` evaluates the cached line coefficients against the new
    right argument -- roughly a third of a full pairing -- and counts on
    ``pairings_precomp`` instead of ``pairings``.  Inside
    :func:`repro.groups.fastops.reference_mode` it degrades to full
    pairings (same values, classic counter profile).  The schedule is
    built lazily on the first fast evaluation, so constructing a handle
    that is never used (or used only in reference mode) costs nothing.
    """

    __slots__ = ("element", "_schedule")

    def __init__(self, element: G1Element) -> None:
        self.element = element
        self._schedule: PairingPrecomp | None = None

    @property
    def group(self) -> "BilinearGroup":
        return self.element.group

    def pair(self, right: G1Element) -> GTElement:
        """``e(P, right)`` via the cached schedule."""
        group = self.element.group
        if right.group.params is not group.params:
            raise GroupError("pairing elements from a different group")
        if not fastops.enabled():
            return group.pair(self.element, right)
        if self._schedule is None:
            self._schedule = PairingPrecomp(self.element.point, group.params)
        group.counter.pairings_precomp += 1
        return GTElement(group, self._schedule.pair_with(right.point))

    def pair_many(self, rights: "Sequence[G1Element]") -> "list[GTElement]":
        """``e(P, right_i)`` for a whole vector off one cached schedule.

        Values and counter totals equal mapping :meth:`pair` (each
        element still counts one ``pairings_precomp``; reference mode
        still degrades every element to a full pairing), but the
        schedule is built at most once and the evaluations go through
        :meth:`~repro.groups.pairing.PairingPrecomp.evaluate_many` --
        fanning out across the :mod:`repro.parallel` pool when enabled.
        """
        group = self.element.group
        for right in rights:
            if right.group.params is not group.params:
                raise GroupError("pairing elements from a different group")
        if not fastops.enabled():
            return [group.pair(self.element, right) for right in rights]
        if not rights:
            return []
        if self._schedule is None:
            self._schedule = PairingPrecomp(self.element.point, group.params)
        group.counter.pairings_precomp += len(rights)
        values = self._schedule.pair_with_many([right.point for right in rights])
        return [GTElement(group, value) for value in values]


class BilinearGroup:
    """A concrete instantiation of ``(p, g, e)`` from ``G(1^n)``.

    Attributes:
        params: the :class:`~repro.groups.pairing_params.PairingParams`.
        g: a fixed generator of ``G`` (public; derived deterministically
           from the parameters so all parties agree on it).
        counter: global :class:`OperationCounter` for this group instance.
    """

    def __init__(self, params: PairingParams) -> None:
        self.params = params
        self.counter = OperationCounter()
        generator_rng = random.Random(f"generator/{params.p}/{params.q}")
        self.g = G1Element(self, random_subgroup_point(params, generator_rng))
        self._gt_generator: GTElement | None = None

    # -- basic accessors ------------------------------------------------

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def q(self) -> int:
        return self.params.q

    def g_identity(self) -> G1Element:
        return G1Element(self, curve.INFINITY)

    def gt_identity(self) -> GTElement:
        return GTElement(self, Fq2.one(self.params.q))

    def gt_generator(self) -> GTElement:
        """``e(g, g)``, cached (it is part of the public parameters)."""
        if self._gt_generator is None:
            self._gt_generator = self.pair(self.g, self.g)
        return self._gt_generator

    # -- the pairing -----------------------------------------------------

    def pair(self, left: G1Element, right: G1Element) -> GTElement:
        """The admissible bilinear map ``e : G x G -> GT``."""
        if left.group.params is not self.params or right.group.params is not self.params:
            raise GroupError("pairing elements from a different group")
        self.counter.pairings += 1
        return GTElement(self, tate_pairing(left.point, right.point, self.params))

    def pairing_precomp(self, left: G1Element) -> G1Precomp:
        """A fixed-argument handle for ``e(left, .)`` -- run the Miller
        schedule for ``left`` once, evaluate against many right
        arguments cheaply.  Pays for itself from the second pairing
        sharing the same left argument (see docs/performance.md)."""
        if left.group.params is not self.params:
            raise GroupError("pairing elements from a different group")
        return G1Precomp(left)

    def multiexp(
        self,
        bases: Sequence[G1Element] | Sequence[GTElement],
        exponents: Sequence[int],
    ) -> G1Element | GTElement:
        """Dispatch ``prod bases[i] ** exponents[i]`` to the right
        element kernel by inspecting the first base."""
        if not bases:
            raise GroupError("multiexp needs at least one base")
        if isinstance(bases[0], G1Element):
            return G1Element.multiexp(bases, exponents)  # type: ignore[arg-type]
        return GTElement.multiexp(bases, exponents)  # type: ignore[arg-type]

    # -- sampling ----------------------------------------------------------

    def random_scalar(self, rng: random.Random) -> int:
        """A uniform exponent in ``Z_p``."""
        return rng.randrange(self.params.p)

    def random_g(self, rng: random.Random) -> G1Element:
        """A uniform non-identity ``G`` element with *unknown* discrete log
        (the section 5.2 requirement for the ``a_i`` and the coins)."""
        self.counter.g_samples += 1
        return G1Element(self, random_subgroup_point(self.params, rng))

    def random_gt(self, rng: random.Random) -> GTElement:
        """A uniform non-identity ``GT`` element with unknown discrete log."""
        self.counter.gt_samples += 1
        return GTElement(self, random_gt_value(self.params, rng))

    def random_message(self, rng: random.Random) -> GTElement:
        """A uniform plaintext for the DLR message space ``GT``."""
        return self.random_gt(rng)

    # -- encodings ---------------------------------------------------------

    def g_element_bits(self) -> int:
        """Bit size of the compressed encoding of a ``G`` element."""
        return int_width(self.params.q) + 2

    def gt_element_bits(self) -> int:
        """Bit size of the encoding of a ``GT`` element."""
        return 2 * int_width(self.params.q)

    def scalar_bits(self) -> int:
        """Bit size of a ``Z_p`` exponent (the paper's ``log p``)."""
        return int_width(self.params.p)

    def __repr__(self) -> str:
        return f"BilinearGroup({self.params!r})"
