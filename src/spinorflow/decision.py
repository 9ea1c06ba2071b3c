"""The decision of a pair's closed form, in Python floats: its branch, the
constants the pair fixes, and its lifespan.

The branch follows the invariant lambda = sqrt(Theta_ul^2 + Theta_un^2),
read off the row of the admissible-family table that the pair matches
(``pairs._QD_ROWS``): the quasi-diagonal branch (lambda = 0) evolves by
s_t = 1 - Theta_uu * B_t, and lambda != 0 by
y_t = lambda * B_t + arctan(Theta_uu / lambda).  The lifespan reads only
scalars: the branch, lambda, y0, Theta_uu and the lapse integral's inverse.

This module loads no numpy, so ``lifespan`` of a pair with a constant lapse,
or none, runs without it.  ``exact`` builds its stacks on a ``Decision``
(``FlowSolution``) and re-exports ``Lifespan``, ``branch`` and ``lifespan``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .lapse import LapseProfile
from .pairs import _QD_ROWS, CauchyPair, DEFAULT_TOL, invariants, require_valid

# Branch names used for dispatch.
QD = "quasi-diagonal"         # lambda = 0
NONQD = "non-quasi-diagonal"  # lambda != 0


class Lifespan(namedtuple("Lifespan", "t_minus t_plus immortal note", defaults=(None,))):
    """Maximal interval (t_minus, t_plus).

    An end is -inf or +inf only for a constant lapse that never reaches a
    singularity on that side.  With a tabulated lapse, an end the table does
    not reach is None (unknown boundary: the lapse is exhausted first), on
    every branch."""

    __slots__ = ()

    def inside(self, profile: LapseProfile, far: float) -> tuple[float, float]:
        """The lifespan cut to the domain of ``profile``, an unbounded or
        unknown (None) end first taken at -far or +far."""
        lo = -far if self.t_minus is None or math.isinf(self.t_minus) else self.t_minus
        hi = far if self.t_plus is None or math.isinf(self.t_plus) else self.t_plus
        dlo, dhi = profile.domain()
        return max(lo, dlo), min(hi, dhi)


def branch(pair: CauchyPair, tol: float = DEFAULT_TOL) -> str:
    """QD on the lambda = 0 rows of the admissible-family table, NONQD on
    the others; InvalidPair where ``pair`` is not admissible within tol."""
    return QD if require_valid(pair, tol).row in _QD_ROWS else NONQD


class Decision(namedtuple("Decision", "pair branch flat lam y0 c_ll c_nn c_ln",
                          defaults=(False,) + (None,) * 5)):
    """The closed form of one pair, decided: its branch and every scalar
    constant the pair fixes; ``of`` decides it.  QD: ``flat`` where Theta_uu
    is zero within tol.  NONQD: ``lam``, ``y0``, ``c_ll``, ``c_nn`` and
    ``c_ln`` are the integration constants of the shape solution."""

    __slots__ = ()

    @classmethod
    def of(cls, pair: CauchyPair, tol: float = DEFAULT_TOL):
        """The decision of ``pair``.  Raises InvalidPair where ``pair`` is
        not admissible within tol (``branch``)."""
        th = pair.theta
        if branch(pair, tol) == QD:
            return cls(pair, QD, abs(th.uu) <= tol * max(1.0, th.max_abs()))
        lam = invariants(pair).lam
        denom = lam * math.hypot(lam, th.uu)
        return cls(
            pair, NONQD, lam=lam, y0=math.atan2(th.uu, lam),
            c_ll=(th.ll * lam**2 + th.ul**2 * th.uu) / denom,
            c_nn=(th.nn * lam**2 + th.un**2 * th.uu) / denom,
            c_ln=(th.ln * lam**2 + th.ul * th.un * th.uu) / denom)

    def lifespan(self, profile: LapseProfile) -> Lifespan:
        if self.branch == NONQD:
            t_plus = profile.solve_b((math.pi / 2 - self.y0) / self.lam)
            t_minus = profile.solve_b((-math.pi / 2 - self.y0) / self.lam)
            # y_t reaches +-pi/2 in finite B, so only a table can leave an end None
            return Lifespan(t_minus, t_plus, immortal=False)
        if self.flat:
            if profile.kind == "constant":
                return Lifespan(-math.inf, math.inf, immortal=True)
            lo, hi = profile.domain()
            return Lifespan(None, None, immortal=False,
                            note=f"no singularity inside the tabulated domain [{lo}, {hi}]")
        uu = self.pair.theta.uu
        t0 = profile.solve_b(1.0 / uu)
        note = ("boundary taken on the side matching sign(Theta_uu); the backward "
                "lapse integral is the relevant one for Theta_uu < 0")
        # the other side never becomes singular: it is unbounded for a
        # constant lapse and unknown past the end of a table
        lo, hi = (-math.inf, math.inf) if profile.kind == "constant" else (None, None)
        if uu > 0:
            return Lifespan(lo, t0, immortal=False, note=note)
        return Lifespan(t0, hi, immortal=False, note=note)


def lifespan(pair: CauchyPair, profile: LapseProfile, tol: float = DEFAULT_TOL) -> Lifespan:
    """Maximal interval of definition around t = 0."""
    return Decision.of(pair, tol).lifespan(profile)
