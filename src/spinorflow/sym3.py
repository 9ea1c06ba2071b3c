"""Symmetric two-tensors in the (u, l, n) frame, by their six components.

``Sym3`` holds floats and imports no numpy: validating and classifying a
pair reads its components as Python floats.  Its array forms import
``frames``, and numpy with it, where they are first used; ``frames``
re-exports ``Sym3`` and keeps the index arrays that the stacks read.

``Sym3`` is a named tuple, which gives it immutability, equality, a hash
and its ``Sym3(uu=...)`` repr with no import of ``dataclasses``.
"""

from __future__ import annotations

from collections import namedtuple


class Sym3(namedtuple("Sym3", "uu ul un ll ln nn", defaults=(0.0,) * 6)):
    """Symmetric two-tensor in the (u, l, n) frame; upper-triangle storage."""

    __slots__ = ()

    def as_matrix(self):
        from .frames import _SYM_INDEX

        return self.as_array()[_SYM_INDEX]

    @classmethod
    def from_matrix(cls, m) -> "Sym3":
        """The upper triangle of the 3x3 matrix ``m``."""
        import numpy as np

        from .frames import _SYM_FLAT

        return cls(*np.asarray(m, dtype=float).ravel()[_SYM_FLAT])

    def as_array(self):
        """Components in the fixed order (uu, ul, un, ll, ln, nn)."""
        import numpy as np

        return np.array([self.uu, self.ul, self.un, self.ll, self.ln, self.nn])

    def as_tuple(self) -> tuple[float, ...]:
        """Components in the order of ``as_array``, as Python floats."""
        return (float(self.uu), float(self.ul), float(self.un), float(self.ll),
                float(self.ln), float(self.nn))

    @classmethod
    def from_array(cls, a) -> "Sym3":
        return cls(*(float(x) for x in a))

    def max_abs(self) -> float:
        return float(max(abs(self.uu), abs(self.ul), abs(self.un), abs(self.ll),
                         abs(self.ln), abs(self.nn)))
