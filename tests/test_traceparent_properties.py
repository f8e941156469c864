"""Property tests for the ``traceparent`` header boundary.

A submission's ``traceparent`` header comes from any HTTP client, so
:func:`repro.obs.trace.parse_traceparent` must answer every string with
either ``None`` (the service then mints a fresh context) or a valid
``(trace_id, parent_span_id)`` pair, never an exception:

* any ``str`` header gives ``None`` or a pair of a 32-lowercase-hex
  non-zero trace id and an int in ``[0, 2**64)``;
* ``format_traceparent(t, s)`` parses back to ``(t, s)`` for every valid
  ``t`` and every ``s`` in ``[0, 2**64)``, 0 included (the client sends
  parent 0 when no span is open);
* surrounding whitespace and letter case do not change the answer.

Headers are drawn as arbitrary text and as near-valid headers: valid
ones, and valid ones with one field (wrong length, upper-case or non-hex
characters), the version, the separator or the trace id (all zero)
spoiled.

The hypothesis seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import os
import re

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.obs.trace import format_traceparent, parse_traceparent

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

_SETTINGS = dict(max_examples=400, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

TRACE_ID = re.compile(r"[0-9a-f]{32}")
HEX = "0123456789abcdef"
SPAN_IDS = st.integers(min_value=0, max_value=2**64 - 1)
TRACE_IDS = st.text(HEX, min_size=32, max_size=32).filter(
    lambda t: t != "0" * 32)
WHITESPACE = st.text(" \t\r\n\x0b\x0c\u00a0\u2003", max_size=3)


@st.composite
def _field(draw, length):
    """A header field: usually ``length`` hex digits, sometimes not."""
    size = draw(st.sampled_from([length, length, length - 1, length + 1, 0]))
    alphabet = draw(st.sampled_from([HEX, HEX + "ABCDEF", HEX + "g-_ "]))
    return draw(st.text(alphabet, min_size=size, max_size=size))


@st.composite
def near_valid(draw):
    """A valid header, or one with one field or the separator spoiled."""
    fields = ["00", draw(TRACE_IDS), draw(st.text(HEX, min_size=16,
                                                  max_size=16)),
              draw(st.text(HEX, min_size=2, max_size=2))]
    separator = "-"
    spoil = draw(st.sampled_from(
        [None, None, "version", 1, 2, 3, "separator", "zero"]))
    if spoil == "version":
        fields[0] = draw(st.sampled_from(["01", "ff", "0", "000", ""]))
    elif spoil == "separator":
        separator = draw(st.sampled_from(["_", "--", "", " "]))
    elif spoil == "zero":
        fields[1] = "0" * 32
    elif spoil is not None:
        fields[spoil] = draw(_field(len(fields[spoil])))
    return separator.join(fields)


HEADERS = st.one_of(st.text(), near_valid())


def _assert_well_formed(answer):
    if answer is None:
        return
    trace_id, span_id = answer
    assert isinstance(trace_id, str) and TRACE_ID.fullmatch(trace_id)
    assert trace_id != "0" * 32
    assert type(span_id) is int and 0 <= span_id < 2**64


@seed(SEED_BASE)
@settings(**_SETTINGS)
@given(header=HEADERS)
def test_any_header_parses_or_is_rejected(header):
    _assert_well_formed(parse_traceparent(header))


@seed(SEED_BASE + 1)
@settings(**_SETTINGS)
@given(trace_id=TRACE_IDS, span_id=st.one_of(
    SPAN_IDS, st.sampled_from([0, 1, 2**64 - 1])))
def test_formatted_headers_round_trip(trace_id, span_id):
    assert parse_traceparent(format_traceparent(trace_id, span_id)) == \
        (trace_id, span_id)


@seed(SEED_BASE + 2)
@settings(**_SETTINGS)
@given(span_id=SPAN_IDS)
def test_the_all_zero_trace_id_is_rejected(span_id):
    assert parse_traceparent(format_traceparent("0" * 32, span_id)) is None


@seed(SEED_BASE + 3)
@settings(**_SETTINGS)
@given(header=HEADERS, before=WHITESPACE, after=WHITESPACE)
def test_surrounding_whitespace_is_ignored(header, before, after):
    assert parse_traceparent(before + header + after) == \
        parse_traceparent(header)


@seed(SEED_BASE + 4)
@settings(**_SETTINGS)
@given(header=st.one_of(near_valid(), st.text(
           st.characters(max_codepoint=127))),
       data=st.data())
def test_letter_case_is_ignored(header, data):
    flips = data.draw(st.lists(st.booleans(), min_size=len(header),
                               max_size=len(header)))
    recased = "".join(c.upper() if flip else c.lower()
                      for c, flip in zip(header, flips))
    assert parse_traceparent(recased) == parse_traceparent(header.lower())
    _assert_well_formed(parse_traceparent(recased))
