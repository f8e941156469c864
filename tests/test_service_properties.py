"""Property tests for the service's request boundary.

``MapRequest.from_payload`` is where untrusted JSON enters the service.
Payloads here are built from the bundled example kernels, with their
source text mutated, and from random field values, well-formed or not.
Three properties must hold for every payload:

* validation either returns a request or raises ``RequestError``;
* the frontend memo is invisible: a request parsed with a warm memo has
  the store key and ``describe()`` of one parsed with a cold memo;
* mutating a request's DFG never changes the key of the next identical
  request.

The hypothesis seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import os

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.arch.isa import Opcode
from repro.frontend import EXAMPLE_KERNELS
from repro.graphs.dfg import DFG
from repro.service import jobs
from repro.service.jobs import MapRequest, RequestError
from repro.service.store import content_key

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

_SETTINGS = dict(max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: bytes a mutation may splice into a kernel source: its own alphabet
#: plus a few it never uses
_SPLICE = st.sampled_from(list("abcxyz0123456789+-*/%&|^<>=!~;:,.()[]{}"
                               " \n\t#@$\"'\\") + ["for", "while", "int",
                                                   "return", "\x00", "é"])


@st.composite
def kernel_sources(draw):
    """An example kernel, unchanged or with a few edits spliced in."""
    source = draw(st.sampled_from(sorted(EXAMPLE_KERNELS.values())))
    edits = draw(st.integers(min_value=-2, max_value=3))  # <= 0: none
    for _ in range(edits):
        at = draw(st.integers(min_value=0, max_value=len(source)))
        cut = draw(st.integers(min_value=0, max_value=4))
        source = source[:at] + draw(_SPLICE) + source[at + cut:]
    return source


#: a JSON value of any shape, including integers too large for a float
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.integers(min_value=2 ** 1024, max_value=2 ** 1100),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=8), st.lists(st.integers(), max_size=3),
                  st.dictionaries(st.text(max_size=4), st.integers(),
                                  max_size=2))

#: optional fields and values a client might plausibly send
_FIELDS = {
    "cgra": st.sampled_from(["2x2", "3x3", "4x4", "4by4"]),
    "arch": st.sampled_from(["memory_column_mesh", "not_a_preset"]),
    "approach": st.sampled_from(["monomorphism", "heuristic", "satmapit",
                                 "portfolio", "quantum"]),
    "opt_level": st.sampled_from(["O0", "O1", "O2", "O9", 0, 2]),
    "opt_passes": st.lists(st.sampled_from(["cse", "dce", "nope"]),
                           max_size=3),
    "seed": st.integers(min_value=0, max_value=2 ** 31),
    "budget_seconds": st.floats(min_value=0.5, max_value=600),
    "priority": st.integers(min_value=-5, max_value=5),
    "strategy": st.sampled_from(["ascend", "refine", "sideways"]),
}


@st.composite
def payloads(draw, junk=True):
    """A kernel payload; with ``junk``, one field holds any JSON value."""
    payload = {"kernel": draw(kernel_sources())}
    for name in draw(st.lists(st.sampled_from(sorted(_FIELDS)),
                              unique=True, max_size=4)):
        payload[name] = draw(_FIELDS[name])
    if junk:
        payload[draw(st.sampled_from(sorted(_FIELDS)))] = draw(_JUNK)
    return payload


def _parse(payload):
    """The request, or None when the payload is rejected."""
    try:
        return MapRequest.from_payload(payload)
    except RequestError:
        return None


def _clear_memo():
    with jobs._frontend_memo_lock:
        jobs._frontend_memo.clear()


@seed(SEED_BASE)
@settings(**_SETTINGS)
@given(payload=payloads())
def test_validation_returns_a_request_or_raises_request_error(payload):
    _clear_memo()
    cold = _parse(payload)  # anything but RequestError fails the test
    warm = _parse(payload)
    assert (cold is None) == (warm is None)


@seed(SEED_BASE + 1)
@settings(**_SETTINGS)
@given(payload=payloads(junk=False))
def test_memo_does_not_change_key_or_description(payload):
    _clear_memo()
    cold = _parse(payload)
    if cold is None:
        return
    warm = _parse(payload)
    assert content_key(warm.store_record()) == \
        content_key(cold.store_record())
    assert warm.describe() == cold.describe()
    assert warm.dfg is not cold.dfg


def _mutate(dfg: DFG, how: int) -> None:
    if how == 0:
        dfg.add_node(opcode=Opcode.ADD)
    elif how == 1:
        dfg.name = "renamed"
    else:
        ids = dfg.node_ids()
        dfg.add_edge(ids[0], ids[-1])


@seed(SEED_BASE + 2)
@settings(**_SETTINGS)
@given(payload=payloads(junk=False),
       how=st.integers(min_value=0, max_value=2))
def test_mutating_a_returned_dfg_never_changes_the_next_key(payload, how):
    first = _parse(payload)
    if first is None:
        return
    key = content_key(first.store_record())
    description = first.describe()
    _mutate(first.dfg, how)
    again = MapRequest.from_payload(payload)
    assert content_key(again.store_record()) == key
    assert again.describe() == description
