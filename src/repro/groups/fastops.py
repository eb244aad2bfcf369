"""Fast group-arithmetic kernels: simultaneous multi-exponentiation.

Every scheme operation bottoms out in products of powers --
``prod_i x_i ** e_i`` over ``G`` or ``GT`` -- which the naive per-term
square-and-multiply ladder evaluates with ``~1.5 log p`` group
operations *per term*.  The kernels here share the squarings across all
terms:

* **Straus (interleaved window)** -- per-base tables of ``d * P_i``
  (``d < 2^w``), one shared chain of ``w`` squarings per digit position.
  The right choice for the ``ell <= ~50`` term counts the DLR combine
  steps produce.  ``G`` tables are built in Jacobian form and normalised
  to affine with a *single* batched inversion
  (:func:`~repro.groups.curve.batch_to_affine`), so the main loop can
  use cheap mixed additions.
* **Pippenger (bucket method)** -- no per-base tables; per digit
  position the bases are dropped into ``2^w - 1`` buckets and folded
  with a running suffix sum.  Asymptotically better; selected
  automatically above :data:`PIPPENGER_THRESHOLD` terms.

Both operate on raw representations (Jacobian integer triples for the
curve, integer pairs for ``F_{q^2}``) -- no element-object allocation in
the hot loop.  The element-level entry points live on
:class:`~repro.groups.bilinear.BilinearGroup` /
:meth:`~repro.groups.bilinear.G1Element.multiexp`, which also maintain
the ``g_multiexp`` / ``gt_multiexp`` operation counters.

:func:`reference_mode` disables every fast path process-wide (kernels
fall back to the naive per-term element ladders, fixed-argument pairing
precomputation falls back to full pairings).  The benchmarks use it to
measure honest before/after wall-clock on identical inputs, and the
property tests use it to pin fast == naive.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import GroupError
from repro.groups.curve import (
    INFINITY,
    Point,
    _jacobian_add,
    _jacobian_add_affine,
    _jacobian_double,
    _jacobian_to_affine,
    batch_to_affine,
)
from repro.groups.windows import bucket_window, straus_window
from repro.math.fields import fq2_mul, fq2_square

_RawFq2 = tuple[int, int]

#: Term count above which the bucket method beats the interleaved
#: window (tables grow linearly with terms, buckets do not).
PIPPENGER_THRESHOLD = 64

_enabled = True


def enabled() -> bool:
    """Are the fast kernels active (i.e. not in :func:`reference_mode`)?"""
    return _enabled


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run everything on the naive reference paths inside the block.

    Affects every fast kernel process-wide: ``multiexp`` degrades to the
    per-term element ladder (counted as individual exponentiations,
    exactly like the pre-kernel code), and
    :meth:`~repro.groups.bilinear.G1Precomp.pair` degrades to full
    pairings.  Results are bit-identical either way -- that is what the
    golden-transcript and property tests pin.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


# Window widths come from the shared cost models in
# :mod:`repro.groups.windows` (formerly duplicated inline here and in
# precompute.FixedBaseExp).

# ---------------------------------------------------------------------------
# G (curve) kernels


def multiexp_points(
    points: list[Point], exponents: list[int], q: int
) -> Point:
    """``prod_i exponents[i] * points[i]`` on the curve (additive view).

    Callers must pre-reduce exponents to ``[1, order)`` and drop
    zero/infinity terms; this chooses Straus or Pippenger by term count.
    """
    if len(points) != len(exponents):
        raise GroupError("multiexp: bases and exponents differ in length")
    if not points:
        return INFINITY
    if len(points) == 1:
        return _scalar_mul_point(points[0], exponents[0], q)
    if len(points) >= PIPPENGER_THRESHOLD:
        return _pippenger_points(points, exponents, q)
    return _straus_points(points, exponents, q)


def _scalar_mul_point(point: Point, exponent: int, q: int) -> Point:
    jac = (1, 1, 0)
    ax, ay = point.x % q, point.y % q
    for bit in bin(exponent)[2:]:
        jac = _jacobian_double(jac, q)
        if bit == "1":
            jac = _jacobian_add_affine(jac, ax, ay, q)
    return _jacobian_to_affine(jac, q)


def _straus_points(points: list[Point], exponents: list[int], q: int) -> Point:
    bits = max(e.bit_length() for e in exponents)
    w = straus_window(len(points), bits)
    # Per-base tables of d*P for d in [1, 2^w), built in Jacobian form
    # and normalised to affine in ONE batched inversion.
    affine = batch_to_affine(_straus_tables_points(points, w, q), q)
    row_len = (1 << w) - 1
    tables = [affine[i * row_len : (i + 1) * row_len] for i in range(len(points))]
    return _straus_main_loop(tables, exponents, w, -(-bits // w), q)


def _pippenger_points(points: list[Point], exponents: list[int], q: int) -> Point:
    bits = max(e.bit_length() for e in exponents)
    w = bucket_window(len(points), bits)
    mask = (1 << w) - 1
    digits = -(-bits // w)
    affine = [(p.x % q, p.y % q) for p in points]

    acc = (1, 1, 0)
    for position in range(digits - 1, -1, -1):
        if acc[2] != 0:
            for _ in range(w):
                acc = _jacobian_double(acc, q)
        shift = position * w
        buckets: list[tuple[int, int, int] | None] = [None] * (1 << w)
        for (ax, ay), exponent in zip(affine, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                current = buckets[digit]
                buckets[digit] = (
                    (ax, ay, 1)
                    if current is None
                    else _jacobian_add_affine(current, ax, ay, q)
                )
        # sum_d d * bucket[d] via the running suffix sum.
        running = (1, 1, 0)
        window_sum = (1, 1, 0)
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket is not None:
                running = _jacobian_add(running, bucket, q)
            if running[2] != 0:
                window_sum = _jacobian_add(window_sum, running, q)
        acc = _jacobian_add(acc, window_sum, q)
    return _jacobian_to_affine(acc, q)


def _straus_tables_points(points: list[Point], w: int, q: int) -> list[list]:
    """The per-base Straus table entries of one instance, in Jacobian
    form (normalisation is the caller's single batched inversion)."""
    jac_entries = []
    for point in points:
        ax, ay = point.x % q, point.y % q
        entry = (ax, ay, 1)
        jac_entries.append(entry)
        for _ in range(2, 1 << w):
            entry = _jacobian_add_affine(entry, ax, ay, q)
            jac_entries.append(entry)
    return jac_entries


def _straus_main_loop(
    tables: list[list[Point]], exponents: list[int], w: int, digits: int, q: int
) -> Point:
    """The shared-squaring digit loop over already-normalised tables."""
    mask = (1 << w) - 1
    acc = (1, 1, 0)
    for position in range(digits - 1, -1, -1):
        if acc[2] != 0:
            for _ in range(w):
                acc = _jacobian_double(acc, q)
        shift = position * w
        for table, exponent in zip(tables, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                entry = table[digit - 1]
                if not entry.is_infinity():
                    acc = _jacobian_add_affine(acc, entry.x, entry.y, q)
    return _jacobian_to_affine(acc, q)


def batch_multiexp_points(
    instances: "list[tuple[list[Point], list[int]]]", q: int
) -> list[Point]:
    """Evaluate a vector of independent multiexp instances, amortised.

    Same per-instance contract as :func:`multiexp_points` (pre-reduced
    exponents, trivial terms dropped), but all Straus-sized instances
    share **one** window/cost-model decision and **one** Montgomery-trick
    batched inversion across every table entry, instead of one of each
    per instance.  Pippenger-sized instances (no tables, no inversion)
    and degenerate ones dispatch individually.  Results are bit-identical
    to mapping :func:`multiexp_points` over the instances.
    """
    results: list[Point | None] = [None] * len(instances)
    straus_idx: list[int] = []
    for idx, (points, exponents) in enumerate(instances):
        if len(points) != len(exponents):
            raise GroupError("multiexp: bases and exponents differ in length")
        if not points:
            results[idx] = INFINITY
        elif len(points) == 1:
            results[idx] = _scalar_mul_point(points[0], exponents[0], q)
        elif len(points) >= PIPPENGER_THRESHOLD:
            results[idx] = _pippenger_points(points, exponents, q)
        else:
            straus_idx.append(idx)
    if not straus_idx:
        return results  # type: ignore[return-value]

    # One shared decision: widest exponent / largest term count over the
    # whole vector (leading zero digits cost nothing -- the accumulator
    # stays at infinity through them).
    bits = max(
        e.bit_length() for idx in straus_idx for e in instances[idx][1]
    )
    w = straus_window(max(len(instances[idx][0]) for idx in straus_idx), bits)
    row_len = (1 << w) - 1

    jac_entries: list = []
    spans: list[tuple[int, int, int]] = []
    for idx in straus_idx:
        start = len(jac_entries)
        jac_entries.extend(_straus_tables_points(instances[idx][0], w, q))
        spans.append((idx, start, len(instances[idx][0])))
    affine = batch_to_affine(jac_entries, q)

    digits = -(-bits // w)
    for idx, start, count in spans:
        tables = [
            affine[start + i * row_len : start + (i + 1) * row_len]
            for i in range(count)
        ]
        results[idx] = _straus_main_loop(tables, instances[idx][1], w, digits, q)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# GT (F_{q^2} subgroup) kernels


def multiexp_fq2(values: list[_RawFq2], exponents: list[int], q: int) -> _RawFq2:
    """``prod_i values[i] ** exponents[i]`` in ``F_{q^2}``.

    Same contract as :func:`multiexp_points`: exponents pre-reduced to
    ``[1, order)``, identity terms dropped by the caller.
    """
    if len(values) != len(exponents):
        raise GroupError("multiexp: bases and exponents differ in length")
    if not values:
        return (1, 0)
    if len(values) >= PIPPENGER_THRESHOLD:
        return _pippenger_fq2(values, exponents, q)
    return _straus_fq2(values, exponents, q)


def _straus_fq2(values: list[_RawFq2], exponents: list[int], q: int) -> _RawFq2:
    bits = max(e.bit_length() for e in exponents)
    w = straus_window(len(values), bits)
    return _straus_fq2_shared(values, exponents, w, -(-bits // w), q)


def _straus_fq2_shared(
    values: list[_RawFq2], exponents: list[int], w: int, digits: int, q: int
) -> _RawFq2:
    """Straus over ``F_{q^2}`` with a caller-chosen window and digit
    count (the shared decision of :func:`batch_multiexp_fq2`)."""
    mul, square = fq2_mul, fq2_square
    mask = (1 << w) - 1
    tables = []
    for value in values:
        row = [value]
        for _ in range(2, 1 << w):
            row.append(mul(row[-1], value, q))
        tables.append(row)

    acc: _RawFq2 = (1, 0)
    for position in range(digits - 1, -1, -1):
        if acc != (1, 0):
            for _ in range(w):
                acc = square(acc, q)
        shift = position * w
        for row, exponent in zip(tables, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                acc = mul(acc, row[digit - 1], q)
    return acc


def batch_multiexp_fq2(
    instances: "list[tuple[list[_RawFq2], list[int]]]", q: int
) -> list[_RawFq2]:
    """Evaluate a vector of ``F_{q^2}`` multiexp instances, amortised.

    The ``F_{q^2}`` Straus path has no batched inversion to share, so
    the amortisation here is the window/cost-model decision: one
    :func:`straus_window` call sized by the widest exponent and largest
    term count serves every Straus-sized instance.  Pippenger-sized and empty instances dispatch
    individually.  Results equal mapping :func:`multiexp_fq2`.
    """
    results: list[_RawFq2 | None] = [None] * len(instances)
    straus_idx: list[int] = []
    for idx, (values, exponents) in enumerate(instances):
        if len(values) != len(exponents):
            raise GroupError("multiexp: bases and exponents differ in length")
        if not values:
            results[idx] = (1, 0)
        elif len(values) >= PIPPENGER_THRESHOLD:
            results[idx] = _pippenger_fq2(values, exponents, q)
        else:
            straus_idx.append(idx)
    if not straus_idx:
        return results  # type: ignore[return-value]

    bits = max(
        e.bit_length() for idx in straus_idx for e in instances[idx][1]
    )
    w = straus_window(max(len(instances[idx][0]) for idx in straus_idx), bits)
    digits = -(-bits // w)
    for idx in straus_idx:
        values, exponents = instances[idx]
        results[idx] = _straus_fq2_shared(values, exponents, w, digits, q)
    return results  # type: ignore[return-value]


def _pippenger_fq2(values: list[_RawFq2], exponents: list[int], q: int) -> _RawFq2:
    bits = max(e.bit_length() for e in exponents)
    w = bucket_window(len(values), bits)
    mul, square = fq2_mul, fq2_square
    mask = (1 << w) - 1
    digits = -(-bits // w)

    acc: _RawFq2 = (1, 0)
    for position in range(digits - 1, -1, -1):
        if acc != (1, 0):
            for _ in range(w):
                acc = square(acc, q)
        shift = position * w
        buckets: list[_RawFq2 | None] = [None] * (1 << w)
        for value, exponent in zip(values, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                current = buckets[digit]
                buckets[digit] = value if current is None else mul(current, value, q)
        running: _RawFq2 = (1, 0)
        window_sum: _RawFq2 = (1, 0)
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket is not None:
                running = mul(running, bucket, q)
            if running != (1, 0):
                window_sum = mul(window_sum, running, q)
        acc = mul(acc, window_sum, q)
    return acc
