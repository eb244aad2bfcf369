"""Shared window-selection cost models.

Three exponentiation kernels pick a window width ``w`` from the same
family of cost trade-offs (table size vs. main-loop work):

* Straus interleaved-window multiexp (:func:`straus_window`),
* Pippenger bucket multiexp (:func:`bucket_window`),
* fixed-base windowed exponentiation (:func:`fixed_base_window`,
  used by :class:`~repro.groups.precompute.FixedBaseExp`).

Historically the first two formulas lived inline in
:mod:`repro.groups.fastops` and :class:`FixedBaseExp` hard-coded its
width; this module is the single home for all of them.  Costs are in
units of one group addition/multiplication, and a squaring/doubling
costs the same as an addition.
"""

from __future__ import annotations

#: Inclusive search bound for Straus windows: tables are per-base, so
#: widths beyond 7 never amortise at the term counts the schemes produce.
MAX_STRAUS_WINDOW = 7

#: Inclusive search bound for Pippenger windows (buckets are shared
#: across bases, so wider windows stay viable longer).
MAX_BUCKET_WINDOW = 11

#: Inclusive search bound for fixed-base windows (matches the
#: ``FixedBaseExp`` validation range).
MAX_FIXED_BASE_WINDOW = 16


def straus_window(terms: int, bits: int) -> int:
    """Straus window width minimising the group-operation count.

    Cost model: table build is ``terms * (2^w - 2)`` adds, the main loop
    does ``bits`` doublings plus ``terms * (bits / w) * (1 - 2^-w)``
    adds (a digit is zero with probability ``2^-w``).  Short exponents
    push toward small windows -- the table must amortise within one
    pass.
    """
    best_w, best_cost = 1, None
    for w in range(1, MAX_STRAUS_WINDOW + 1):
        cost = terms * ((1 << w) - 2) + bits + terms * (bits / w) * (1 - 2.0 ** -w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def bucket_window(terms: int, bits: int) -> int:
    """Pippenger window width: per digit position the buckets cost
    ``terms`` adds plus ``~2^{w+1}`` for the suffix-sum fold, across
    ``bits / w`` positions."""
    best_w, best_cost = 1, None
    for w in range(1, MAX_BUCKET_WINDOW + 1):
        cost = bits + (bits / w) * (terms + (1 << (w + 1)))
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def fixed_base_window(bits: int, expected_uses: int = 256) -> int:
    """Fixed-base window width for a table amortised over
    ``expected_uses`` exponentiations.

    Cost model: the one-time table build is ``ceil(bits/w) * (2^w - 1)``
    multiplications (every row entry is one multiply), and each
    exponentiation then costs at most ``ceil(bits/w)`` multiplications.
    Minimises ``build + expected_uses * per_exp``.
    """
    best_w, best_cost = 1, None
    for w in range(1, MAX_FIXED_BASE_WINDOW + 1):
        digits = -(-bits // w)
        cost = digits * ((1 << w) - 1) + expected_uses * digits
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w
