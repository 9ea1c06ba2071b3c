"""Time gauge of the flow: the lapse family beta_t and its integral B_t.

A tabulated lapse is read once.  Its times and values become float arrays
by one ``_float_image`` each: the CLI's decoder makes those images while it
checks the document, and ``LapseProfile.from_json_dict`` keeps them, with
no second conversion or copy; a library's ``LapseProfile.tabulated`` keeps
read-only copies of its arrays.  The table of B at every node is built on
first use, in one call of the kernel's ``cumulative`` (``backend._kern``,
the C kernel or ``_kernel_py``); ``validate`` never builds it.

numpy is imported where an array is first made or read: a constant lapse
is parsed and held as a Python float, so ``validate`` and ``classify`` of
a pair with a constant lapse, or none, load no numpy here.
"""

from __future__ import annotations

import functools
import math
import struct

from .errors import OutOfDomain


class LapseProfile:
    """Strictly positive lapse, either constant or tabulated on a time grid.

    Tabulated profiles hold read-only copies of their times and values, and
    interpolate linearly between nodes; the integral B_t is then the exact
    (trapezoid) integral of the interpolant.  The first ``b_integral`` or
    ``solve_b`` call builds the cumulative table, B at every node, anchored
    at t = 0 (``_cumulative_trapezoid``, one pass of the kernel's
    ``cumulative``); from it B_t takes one binary search and a partial
    trapezoid, and its inverse one binary search and a closed-form root.
    Times outside the table raise OutOfDomain.

    A profile is immutable: assigning or deleting a field raises
    AttributeError.  Two profiles are equal only when they are one object.
    """

    def __init__(self, kind: str, value: float = 1.0, times: np.ndarray | None = None,
                 values: np.ndarray | None = None):
        # the fields, and later the cached table of B, live in __dict__
        self.__dict__.update(kind=kind, value=value, times=times, values=values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"LapseProfile(kind={self.kind!r}, value={self.value!r}, "
                f"times={self.times!r}, values={self.values!r})")

    @classmethod
    def constant(cls, value: float = 1.0) -> "LapseProfile":
        if not 0 < value < math.inf:
            raise ValueError("lapse must be strictly positive and finite")
        return cls(kind="constant", value=float(value))

    @classmethod
    def tabulated(cls, times, values) -> "LapseProfile":
        import numpy as np

        # read-only copies: a caller's later writes cannot reach the profile
        t, v = (np.array(x, dtype=float) for x in (times, values))
        t.flags.writeable = v.flags.writeable = False
        return cls._checked(t, v)

    @classmethod
    def _checked(cls, t: np.ndarray, v: np.ndarray) -> "LapseProfile":
        """The tabulated profile of the float arrays ``t`` and ``v``, which it
        keeps as they are: the caller hands over read-only arrays that nothing
        else writes.  Every check of ``tabulated`` runs here."""
        import numpy as np

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
    def from_json_dict(cls, data: dict, images: dict | None = None) -> "LapseProfile":
        """Parse the `{"kind": ...}` wire format, given as is or as the
        ``"beta"`` field of a pair.  Every malformed input raises ValueError.

        ``images`` maps the ``id`` of a number list of the document to the
        read-only float array ``_float_image`` made of it (``cli._load_input``
        fills it while it checks the document): such a list is not converted
        again, and a table keeps its images as they are."""
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
            args = [_json_numbers(data[k], images) for k in fields]
        except (TypeError, OverflowError, struct.error):
            raise ValueError(f"{kind} lapse {', '.join(fields)} must be finite numbers") from None
        if kind == "constant":
            if isinstance(data["value"], list):
                raise ValueError("constant lapse value must be a number")
            return cls.constant(args[0])
        import numpy as np

        # fresh read-only arrays: no copy (a number fails the checks)
        return cls._checked(*map(np.asarray, args))

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
        import numpy as np

        return float(self._betas(np.asarray(t, dtype=float)))

    def _betas(self, t: np.ndarray) -> np.ndarray:
        """The lapse at each of the times ``t``; the first off a table raises."""
        import numpy as np

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
        import numpy as np

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


def _float_image(items: list) -> np.ndarray:
    """The float64 image of the list ``items``, read-only: what
    ``struct.pack("d")`` makes of each entry.  It is the one conversion of a
    decoded number list, in ``cli._orjson_reads_alike`` or here.  A list of
    other entries raises struct.error before numpy is imported."""
    data = struct.pack(f"{len(items)}d", *items)
    import numpy as np

    return np.frombuffer(data)


def _json_numbers(v, images: dict | None = None):
    """A JSON number as a float, or an array of them as a float array, as a
    JSON decoder gives them.  Either shape takes what ``struct.pack("d")``
    takes, a bool excepted: a float or an int within the float range, and
    any other number with ``__float__`` or ``__index__`` (``Decimal``,
    ``Fraction``, ``numpy.float64``).  Anything else raises struct.error,
    and a bool TypeError.  A number is converted alone, with no numpy.  One
    ``struct.pack`` converts an array, unless ``images`` holds its image
    already, and reads a bool as 0.0 or 1.0, so only the entries equal to
    those are looked at again."""
    if not isinstance(v, list):
        (x,) = struct.unpack("d", struct.pack("d", v))
        if type(v) is bool:
            raise TypeError
        return x
    import numpy as np

    # an id in images is that of a list the document holds, so of v itself
    a = images.get(id(v)) if images else None
    if a is None:
        a = _float_image(v)
    for i in np.flatnonzero((a == 0.0) | (a == 1.0)).tolist():
        if type(v[i]) is bool:
            raise TypeError
    return a


def _cumulative_trapezoid(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """C[i] = integral from 0 to times[i] of the piecewise-linear lapse,
    read-only: the kernel's ``cumulative`` (``backend._kern``, read at each
    call), which accumulates the trapezoid sums of the segments outward from
    t = 0 in both directions, with the segment holding 0 split there at the
    interpolated lapse."""
    import numpy as np

    from . import backend

    return np.frombuffer(backend._kern.cumulative(times, values,
                                                 np.interp(0.0, times, values)))
