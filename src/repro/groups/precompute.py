"""Fixed-base exponentiation with precomputed tables.

DLR encryption raises two *fixed* bases -- ``g`` and ``z = e(g1, g2)``
-- to random exponents.  A deployment that encrypts often amortizes a
one-time table of ``base^(j * 2^{w i})`` values, replacing the
double-and-add ladder (~1.5 log p group operations) with
``ceil(log p / w)`` multiplications.

This is the classic fixed-base windowing method; the ablation benchmark
(``benchmarks/bench_ablation.py``) quantifies the speedup.  Works for
both ``G`` and ``GT`` elements since it only uses the multiplicative
element API.
"""

from __future__ import annotations

from typing import TypeVar

from repro.errors import ParameterError
from repro.groups.bilinear import G1Element, GTElement
from repro.groups.windows import fixed_base_window

Element = TypeVar("Element", G1Element, GTElement)


class FixedBaseExp:
    """Precomputed windowed exponentiation for one fixed base.

    ``window`` trades table size (``ceil(bits/w) * 2^w`` elements) for
    multiplications per exponentiation (``ceil(bits/w)``); pass
    ``window=None`` to pick the width from the shared cost
    model (:func:`repro.groups.windows.fixed_base_window`).
    """

    def __init__(self, base: Element, order: int, window: int | None = 4) -> None:
        if window is None:
            window = fixed_base_window((order - 1).bit_length())
        if window < 1 or window > 16:
            raise ParameterError("window must be in [1, 16]")
        self.order = order
        self.window = window
        self.digits = -(-(order - 1).bit_length() // window)
        self._identity = base ** 0
        # table[i][j] = base^(j * 2^{w i}).  The top row only stores the
        # digits an exponent < order can actually produce there --
        # (order - 1) >> (w * (digits - 1)) -- instead of a full 2^w row.
        self.table: list[list[Element]] = []
        full = (1 << window) - 1
        block = base
        for i in range(self.digits):
            limit = min(full, (order - 1) >> (window * i))
            row = [self._identity]
            for j in range(1, limit + 1):
                row.append(row[j - 1] * block)
            self.table.append(row)
            if i < self.digits - 1:
                block = row[full] * block  # base^(2^{w(i+1)})

    def pow(self, exponent: int) -> Element:
        """Return ``base ** exponent`` using the table."""
        exponent %= self.order
        result = self._identity
        mask = (1 << self.window) - 1
        for i in range(self.digits):
            digit = (exponent >> (self.window * i)) & mask
            if digit:
                result = result * self.table[i][digit]
        return result

    def table_elements(self) -> int:
        """Number of precomputed elements (storage cost)."""
        return sum(len(row) for row in self.table)


class PrecomputedEncryptor:
    """DLR encryption with fixed-base tables for ``g`` and ``z``.

    Drop-in faster replacement for :meth:`repro.core.dlr.DLR.encrypt`
    when many encryptions target one public key.
    """

    def __init__(self, public_key, window: int | None = 4) -> None:
        group = public_key.group
        self.group = group
        self.public_key = public_key
        self._g_table = FixedBaseExp(group.g, group.p, window)
        self._z_table = FixedBaseExp(public_key.z, group.p, window)

    def encrypt(self, message, rng):
        from repro.core.keys import Ciphertext

        t = self.group.random_scalar(rng)
        return Ciphertext(
            a=self._g_table.pow(t), b=message * self._z_table.pow(t)
        )
