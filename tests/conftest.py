"""Shared fixtures: one representative pair per admissible-family table row,
and the faults the stack tests inject into a stacked closed form."""

import dataclasses

import numpy as np
import pytest

from spinorflow import CauchyPair, LapseProfile
from spinorflow.pairs import _ALGEBRAIC

ROW_PAIRS = {
    "R3": CauchyPair.from_components(uu=1.0),
    "E11": CauchyPair.from_components(ll=1.0, nn=-1.0),
    "tau2R-lambda": CauchyPair.from_components(ul=0.6, un=0.8),
    "tau2R-qd": CauchyPair.from_components(uu=1.0, ll=1.0),
    "tau2R-ul": CauchyPair.from_components(uu=-2.0, ul=1.0, ll=2.0),
    "tau2R-un": CauchyPair.from_components(uu=-2.0, un=1.0, nn=2.0),
    "tau2R-general": CauchyPair.from_components(
        uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0),
    "tau3mu": CauchyPair.from_components(uu=5.0 / 3.0, ll=2.0, nn=1.0),
}

CONSTRAINED_PAIRS = {
    "R3": ROW_PAIRS["R3"],
    "tau2R-qd": ROW_PAIRS["tau2R-qd"],
    "tau3mu": ROW_PAIRS["tau3mu"],
    "minkowski": CauchyPair.from_components(),
}


@pytest.fixture
def unit_lapse():
    return LapseProfile.constant(1.0)


@pytest.fixture(params=sorted(ROW_PAIRS), ids=sorted(ROW_PAIRS))
def row_pair(request):
    return ROW_PAIRS[request.param]


@pytest.fixture(params=sorted(CONSTRAINED_PAIRS), ids=sorted(CONSTRAINED_PAIRS))
def constrained_pair(request):
    return CONSTRAINED_PAIRS[request.param]


def pair_json(pair):
    """The ``{"theta": {"uu": ..., ...}}`` wire format of ``pair``."""
    return {"theta": dataclasses.asdict(pair.theta)}


def algebraic_residuals(theta):
    """The four algebraic relations every admissible shape tensor satisfies
    (``pairs._ALGEBRAIC``), evaluated at the Sym3 ``theta``."""
    return [f(theta) for _, f in _ALGEBRAIC]


def fail_at(stacked, bts, bt, exc):
    """The (values, raised) of a stacked closed form at ``bts`` with ``exc``
    raised at the first sample whose B_t is ``bt``, as a fault met on
    entering that sample: unless a sample before it raised."""
    values, raised = stacked
    hits = np.flatnonzero(np.ravel(bts) == bt)
    if len(hits) and hits[0] <= len(values):
        return values[:hits[0]], exc
    return values, raised


def scale_at(stacked, bts, bt, factor):
    """The (values, raised) of a stacked closed form at ``bts`` with the
    values of each sample whose B_t is ``bt`` multiplied by ``factor``."""
    values, raised = stacked
    values = values.copy()
    values[np.ravel(bts)[:len(values)] == bt] *= factor
    return values, raised
