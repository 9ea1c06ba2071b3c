"""Time gauge of the flow: the lapse family beta_t and its integral B_t."""

from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain


@dataclass(frozen=True, eq=False)
class LapseProfile:
    """Strictly positive lapse, either constant or tabulated on a time grid.

    Tabulated profiles interpolate linearly between nodes; the integral B_t
    is then the exact (trapezoid) integral of the interpolant.  The first
    ``b_integral`` or ``solve_b`` call builds the cumulative table, B at
    every node, anchored at t = 0 (``_cumulative_trapezoid``); from it B_t
    takes one binary search and a partial trapezoid, and its inverse one
    binary search and a closed-form root.  Times outside the table raise
    OutOfDomain.
    """

    kind: str  # "constant" | "tabulated"
    value: float = 1.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float = 1.0) -> "LapseProfile":
        if not 0 < value < math.inf:
            raise ValueError("lapse must be strictly positive and finite")
        return cls(kind="constant", value=float(value))

    @classmethod
    def tabulated(cls, times, values) -> "LapseProfile":
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or len(t) < 2:
            raise ValueError("need matching 1D times/values with at least two nodes")
        # finite first: np.diff of two equal infinities warns (inf - inf)
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        if not np.all((v > 0) & (v < math.inf)):
            raise ValueError("lapse values must be strictly positive and finite")
        if not (t[0] <= 0.0 <= t[-1]):
            raise ValueError("tabulated domain must contain t = 0")
        return cls(kind="tabulated", times=t, values=v)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LapseProfile":
        """Parse the `{"kind": ...}` wire format, given as is or as the
        ``"beta"`` field of a pair.  Every malformed input raises ValueError."""
        if isinstance(data, dict) and "beta" in data:
            data = data["beta"]
        if not isinstance(data, dict):
            raise ValueError("lapse JSON must be an object")
        kind = data.get("kind")
        fields = {"constant": ("value",), "tabulated": ("times", "values")}.get(kind)
        if fields is None:
            raise ValueError(f"unknown lapse kind: {kind!r}")
        missing = [k for k in fields if k not in data]
        if missing:
            raise ValueError(f"{kind} lapse is missing {', '.join(missing)}")
        try:
            args = [_json_numbers(data[k]) for k in fields]
        except (TypeError, OverflowError):
            raise ValueError(f"{kind} lapse {', '.join(fields)} must be finite numbers") from None
        if kind == "constant":
            if isinstance(args[0], np.ndarray):
                raise ValueError("constant lapse value must be a number")
            return cls.constant(args[0])
        return cls.tabulated(*args)

    def domain(self) -> tuple[float, float]:
        if self.kind == "constant":
            return (-math.inf, math.inf)
        return (float(self.times[0]), float(self.times[-1]))

    def _check(self, t: np.ndarray) -> None:
        lo, hi = self.domain()
        off = ~((lo <= t) & (t <= hi))
        if off.any():
            t = t.flat[int(off.argmax())]
            raise OutOfDomain(f"t = {t} outside tabulated domain [{lo}, {hi}]")

    def beta(self, t: float) -> float:
        return float(self._betas(np.asarray(t, dtype=float)))

    def _betas(self, t: np.ndarray) -> np.ndarray:
        """The lapse at each of the times ``t``; the first off a table raises."""
        if self.kind == "constant":
            return np.full(t.shape, self.value)
        self._check(t)
        return np.interp(t, self.times, self.values)

    @functools.cached_property
    def _cumulative(self) -> np.ndarray:
        """B at every node of a tabulated profile, built on first use."""
        return _cumulative_trapezoid(self.times, self.values)

    def b_integral(self, t):
        """Signed integral of the lapse from 0 to t, or the array of them at
        an array of times (any leading axes; the first time off a table, in
        C order, raises).  A tabulated profile reads the node at or next to
        t, on the side of t = 0, from the cumulative table and adds the
        trapezoid from that node to t; inside the segment holding t = 0 it
        integrates from 0 itself, so small |t| keeps full relative accuracy.
        Each time of an array gets the operations of a time of its own."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            b = self.value * t
        else:
            self._check(t)
            table, times, values = self._cumulative, self.times, self.values
            i = times.searchsorted(t, "right") - 1
            j = np.minimum(i, len(times) - 2)  # the segment, where t is no node
            ta, tb, va, vb = times[j], times[j + 1], values[j], values[j + 1]
            slope = (vb - va) / (tb - ta)
            beta_t = slope * (t - ta) + va
            b = np.where(t > 0.0, table[j] + (t - ta) * (va + beta_t) / 2.0,
                         table[j + 1] - (tb - t) * (beta_t + vb) / 2.0)
            b = np.where((ta < 0.0) & (0.0 < tb),
                         t * (slope * (0.0 - ta) + va + beta_t) / 2.0, b)
            b = np.where(times[i] == t, table[i], b)
        return float(b) if b.ndim == 0 else b

    def solve_b(self, target: float) -> float | None:
        """The time t with B_t = target.

        A tabulated profile finds the segment holding the target in the
        cumulative table.  B is quadratic on it: from a start point p with
        lapse beta_p and B_p, B_t = B_p + beta_p s + m s^2 / 2 with
        s = t - p and m the segment's slope, so s is the cancellation-free
        root 2 r / (beta_p + sqrt(beta_p^2 + 2 m r)) of r = target - B_p,
        which is r / beta_p on a flat segment.  p is the segment's end
        nearer t = 0, or 0 itself in the segment that holds it.

        Returns None when the target is unreachable within the profile's
        domain (unknown boundary for tabulated profiles, genuinely
        unreachable never happens for constant ones).
        """
        if self.kind == "constant":
            return target / self.value
        table = self._cumulative
        if not table.item(0) <= target <= table.item(-1):
            return None
        i = int(table.searchsorted(target, "right")) - 1
        if table.item(i) == target:
            return self.times.item(i)
        ta, tb = self.times.item(i), self.times.item(i + 1)
        va, vb = self.values.item(i), self.values.item(i + 1)
        slope = (vb - va) / (tb - ta)
        if ta < 0.0 < tb:
            start, beta, rest = 0.0, slope * (0.0 - ta) + va, target
        elif target > 0.0:
            start, beta, rest = ta, va, target - table.item(i)
        else:
            start, beta, rest = tb, vb, target - table.item(i + 1)
        root = math.sqrt(max(0.0, beta * beta + 2.0 * slope * rest))
        return min(max(start + 2.0 * rest / (beta + root), ta), tb)


def _json_numbers(v):
    """A JSON number as a float, or an array of them as a float array, as a
    JSON decoder gives them.  Anything else raises TypeError: a bool, a
    string, null, an object or a nested array; an integer past the float
    range raises OverflowError.  ``array("d")`` refuses all of these but the
    bools, which it reads as 0.0 and 1.0, so only the entries equal to those
    are looked at again."""
    if isinstance(v, list):
        a = np.frombuffer(array.array("d", v))
        for i in np.flatnonzero((a == 0.0) | (a == 1.0)).tolist():
            if type(v[i]) is bool:
                raise TypeError
        return a
    if type(v) is float or type(v) is int:
        return float(v)
    raise TypeError


def _prefix_sums(parts: np.ndarray) -> np.ndarray:
    """Running sums of ``parts``, each correctly rounded up to a term of
    order n eps^2: np.cumsum, corrected by the cumulated rounding error of
    its additions, each recovered exactly by Knuth's TwoSum."""
    sums = np.cumsum(parts)
    prev = np.concatenate(([0.0], sums[:-1]))
    added = sums - prev
    return sums + np.cumsum((prev - (sums - added)) + (parts - added))


def _cumulative_trapezoid(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """C[i] = integral from 0 to times[i] of the piecewise-linear lapse: the
    trapezoid sums of its segments, accumulated outward from t = 0 in both
    directions.  When 0 is no node, the segment holding it is split there at
    the interpolated lapse."""
    z = int(np.searchsorted(times, 0.0))
    split = times[z] != 0.0
    if split:
        values = np.insert(values, z, np.interp(0.0, times, values))
        times = np.insert(times, z, 0.0)
    parts = np.diff(times) * (values[1:] + values[:-1]) / 2.0
    table = np.concatenate((-_prefix_sums(parts[:z][::-1])[::-1], [0.0],
                            _prefix_sums(parts[z:])))
    return np.delete(table, z) if split else table
