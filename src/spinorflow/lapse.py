"""Time gauge of the flow: the lapse family beta_t and its integral B_t."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain

# Steps whose stage lapses one np.interp call evaluates: bounds the memory a
# tabulated march holds and the work spent past a step that truncates it.
_STAGE_BLOCK = 256


@dataclass(frozen=True, eq=False)
class LapseProfile:
    """Strictly positive lapse, either constant or tabulated on a time grid.

    Tabulated profiles interpolate linearly between nodes; the integral B_t
    is then the exact (trapezoid) integral of the interpolant.  Times outside
    the table raise OutOfDomain.  Profiles compare and hash by value, the
    tables included.
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
        if not (np.all(np.diff(t) > 0) and np.all(np.isfinite(t))):
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
            args = [np.asarray(data[k], dtype=float) for k in fields]
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{kind} lapse {', '.join(fields)} must be finite numbers") from None
        if kind == "constant":
            if args[0].ndim:
                raise ValueError("constant lapse value must be a number")
            return cls.constant(float(args[0]))
        return cls.tabulated(*args)

    def _key(self) -> tuple:
        if self.kind == "constant":
            return (self.kind, self.value)
        return (self.kind, tuple(self.times.tolist()), tuple(self.values.tolist()))

    def __eq__(self, other):
        if not isinstance(other, LapseProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def domain(self) -> tuple[float, float]:
        if self.kind == "constant":
            return (-math.inf, math.inf)
        return (float(self.times[0]), float(self.times[-1]))

    def beta(self, t: float) -> float:
        if self.kind == "constant":
            return self.value
        lo, hi = self.domain()
        if not lo <= t <= hi:
            raise OutOfDomain(f"t = {t} outside tabulated domain [{lo}, {hi}]")
        return float(np.interp(t, self.times, self.values))

    def stages(self, t0: float, dt: float, n_steps: int):
        """Lapse triples (beta(t), beta(t + dt/2), beta(t + dt)) at
        t = t0 + k dt for k = 0 .. n_steps - 1: the stage lapses of the RK4
        kernel, as Python floats.

        A tabulated profile evaluates them lazily, ``_STAGE_BLOCK`` steps at
        a time: the stage times of a block are built with the same float
        expressions as ``beta`` would be called with, checked against the
        table once and interpolated by one ``np.interp`` call, which gives
        every element exactly what the scalar call gives.  A march leaving
        the table gets the steps before the one that leaves it, and
        OutOfDomain, naming the first stage time outside the table, only
        when it asks for that step."""
        if self.kind == "constant":
            return itertools.repeat((self.value,) * 3, n_steps)
        return self._tabulated_stages(t0, dt, n_steps)

    def _tabulated_stages(self, t0, dt, n_steps):
        lo, hi = self.domain()
        half = 0.5 * dt
        for start in range(0, n_steps, _STAGE_BLOCK):
            ts = []
            for step in range(start, min(start + _STAGE_BLOCK, n_steps)):
                t = t0 + step * dt if step else t0
                ts += (t, t + half, t + dt)
            bad = next((i for i, t in enumerate(ts) if not lo <= t <= hi), None)
            vals = np.interp(ts[:bad], self.times, self.values).tolist()
            yield from zip(vals[0::3], vals[1::3], vals[2::3])
            if bad is not None:
                raise OutOfDomain(
                    f"t = {ts[bad]} outside tabulated domain [{lo}, {hi}]")

    def b_integral(self, t: float) -> float:
        """Signed integral of the lapse from 0 to t."""
        if self.kind == "constant":
            return self.value * t
        lo, hi = self.domain()
        if not lo <= t <= hi:
            raise OutOfDomain(f"t = {t} outside tabulated domain [{lo}, {hi}]")
        a, b, sign = (0.0, t, 1.0) if t >= 0 else (t, 0.0, -1.0)
        inside = (self.times > a) & (self.times < b)
        knots = np.concatenate(([a], self.times[inside], [b]))
        vals = np.interp(knots, self.times, self.values)
        return sign * float(np.trapezoid(vals, knots))

    def solve_b(self, target: float) -> float | None:
        """Invert the monotone map t -> B_t by bisection.

        Returns None when the target is unreachable within the profile's
        domain (unknown boundary for tabulated profiles, genuinely
        unreachable never happens for constant ones).
        """
        if self.kind == "constant":
            return target / self.value
        lo, hi = self.domain()
        b_lo, b_hi = self.b_integral(lo), self.b_integral(hi)
        if not b_lo <= target <= b_hi:
            return None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.b_integral(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
        return 0.5 * (lo + hi)
