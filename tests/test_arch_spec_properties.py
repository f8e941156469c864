"""Property tests for the arch-spec document boundary.

An arch spec arrives as a JSON file (``--arch spec.json``), inline in a
compile-service payload, or as a dict from a script. Documents here are
near-valid specs with any key missing or replaced by an arbitrary JSON
value, arbitrary JSON values, and arbitrary text. For every document
:meth:`ArchSpec.from_dict` / :meth:`ArchSpec.from_json` either

* accepts it, and the spec round-trips through ``to_json`` /
  ``from_json`` to an equal spec; or
* raises ``ValueError`` -- never another exception.

Well-formed documents are always accepted, so the property is not met
by rejecting everything.

The hypothesis seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import json
import os

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.arch.isa import Opcode
from repro.arch.spec import ArchSpec

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

_SETTINGS = dict(max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

_OPCODES = sorted(op.value for op in Opcode)
_TOPOLOGIES = ["mesh", "torus", "diagonal"]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)

_OP_LIST = st.lists(st.sampled_from(_OPCODES), max_size=5)


def _ops(valid):
    base = st.just("all") | _OP_LIST
    return base if valid else base | _JSON | st.lists(
        st.sampled_from(_OPCODES) | st.text(max_size=4), max_size=3)


def _size(valid):
    base = st.integers(1, 6)
    return base if valid else (base | base.map(str) | _JSON)


@st.composite
def documents(draw, valid=False):
    """A spec document; ``valid`` draws only well-formed values."""
    rows, cols = draw(_size(valid)), draw(_size(valid))
    if valid and rows * cols < 2:
        cols += 1
    fields = {
        "name": st.text(max_size=6) if valid else st.text(max_size=6) | _JSON,
        "topology": (st.sampled_from(_TOPOLOGIES) if valid
                     else st.sampled_from(_TOPOLOGIES) | _JSON),
        "register_file_size": (st.integers(0, 64) if valid
                               else st.integers(-2, 64) | _JSON),
        "default_operations": _ops(valid),
    }
    doc = {"rows": rows, "cols": cols}
    for key, strategy in fields.items():
        if draw(st.booleans()):
            doc[key] = draw(strategy)
    if draw(st.booleans()):
        if valid:
            pes = rows * cols
            keys = st.integers(0, pes - 1).map(str)
        else:
            keys = st.integers(-1, 40).map(str) | st.text(max_size=3)
        overrides = st.dictionaries(keys, _ops(valid), max_size=4)
        doc["pe_operations"] = draw(overrides if valid else overrides | _JSON)
    if not valid:
        for key in ("rows", "cols"):
            if draw(st.integers(0, 9)) == 0:
                del doc[key]
    return doc


def _accepted_or_value_error(parse, document):
    try:
        spec = parse(document)
    except ValueError:
        return None
    again = ArchSpec.from_json(spec.to_json())
    assert again == spec
    assert hash(again) == hash(spec)
    return spec


@seed(SEED_BASE)
@settings(**_SETTINGS)
@given(document=documents() | _JSON)
def test_every_document_round_trips_or_raises_value_error(document):
    _accepted_or_value_error(ArchSpec.from_dict, document)
    _accepted_or_value_error(ArchSpec.from_json, json.dumps(document))


@seed(SEED_BASE + 1)
@settings(**_SETTINGS)
@given(text=st.text(max_size=40))
def test_every_text_round_trips_or_raises_value_error(text):
    _accepted_or_value_error(ArchSpec.from_json, text)


@seed(SEED_BASE + 2)
@settings(**_SETTINGS)
@given(document=documents(valid=True))
def test_well_formed_documents_are_accepted(document):
    spec = _accepted_or_value_error(ArchSpec.from_json, json.dumps(document))
    assert spec is not None
    assert (spec.rows, spec.cols) == (document["rows"], document["cols"])
    assert spec.to_dict()["rows"] == document["rows"]
