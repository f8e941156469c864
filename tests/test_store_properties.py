"""Property tests for the store-shard and drain-journal boundaries.

A shard file and the drain journal are read back after crashes, by
hand edits, or from another program's files. Lines here are arbitrary
bytes of known kinds: records and headers, torn prefixes of records,
JSON that is not an object, invalid UTF-8, keyless records, repeated
keys, blank lines, with or without a final newline. For every file:

* the loader indexes each record line (the last one per key wins),
  counts each header, counts each other non-blank line as skipped, and
  raises nothing;
* ``compact()`` keeps the live lines byte-identically and reloads to the
  same index with nothing skipped;
* a ``put`` after any content, a torn tail included, survives a reload;
* recovering a journal resubmits each entry, or skips it with one
  ``journal_skip`` record, and raises nothing.

The hypothesis seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.service import jobs
from repro.service.jobs import MappingService
from repro.service.store import ResultStore

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

_SETTINGS = dict(max_examples=150, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: every generated record lives in shard "00"
_KEYS = ["00" + c * 22 for c in "abc"]
_VALUES = st.one_of(st.integers(), st.text(max_size=6), st.none(),
                    st.lists(st.integers(), max_size=2))


def _dump(obj, ascii_only):
    return json.dumps(obj, sort_keys=True,
                      ensure_ascii=ascii_only).encode("utf-8")


@st.composite
def record_line(draw):
    key = draw(st.sampled_from(_KEYS))
    record = {"key": key, "value": draw(_VALUES)}
    return draw(st.booleans()), key, record


@st.composite
def store_line(draw):
    """``(bytes, kind, key, record)``, kind in record/header/skip/blank."""
    kind = draw(st.sampled_from(
        ["record", "record", "header", "torn", "non_object", "not_utf8",
         "keyless", "blank"]))
    if kind == "record":
        ascii_only, key, record = draw(record_line())
        return _dump(record, ascii_only), "record", key, record
    if kind == "header":
        return _dump({"header": {"writer": draw(st.text(max_size=4))}},
                     True), "header", None, None
    if kind == "torn":
        ascii_only, _, record = draw(record_line())
        text = _dump(record, ascii_only)
        cut = draw(st.integers(min_value=1, max_value=len(text) - 1))
        return text[:cut], "skip", None, None
    if kind == "non_object":
        value = draw(st.one_of(_VALUES, st.booleans(), st.floats()))
        return _dump(value, True), "skip", None, None
    if kind == "not_utf8":
        tail = draw(st.binary(max_size=12)).replace(b"\n", b"")
        return b"\xff" + tail, "skip", None, None
    if kind == "keyless":
        record = draw(st.one_of(
            st.just({"value": 1}),
            st.builds(lambda k: {"key": k}, st.one_of(
                st.integers(), st.none(), st.lists(st.text(), max_size=1)))))
        return _dump(record, True), "skip", None, None
    return draw(st.sampled_from([b"", b"  ", b"\t"])), "blank", None, None


def _canonical(index):
    return json.dumps(index, sort_keys=True)


@seed(SEED_BASE)
@settings(**_SETTINGS)
@given(lines=st.lists(store_line(), max_size=12),
       final_newline=st.booleans())
def test_shard_loader_compact_and_put_agree_on_every_line(lines,
                                                          final_newline):
    body = b"\n".join(line for line, _, _, _ in lines)
    if final_newline and lines:
        body += b"\n"
    elif lines and lines[-1][0] == b"":
        lines = lines[:-1]  # the body ends in the newline before it
    expected = {}
    for _, kind, key, record in lines:
        if kind == "record":
            expected[key] = record
    skipped = sum(kind == "skip" for _, kind, _, _ in lines)
    headers = sum(kind == "header" for _, kind, _, _ in lines)
    live = [line for index, (line, kind, key, _) in enumerate(lines)
            if kind == "header" or (kind == "record" and not any(
                later[2] == key for later in lines[index + 1:]))]

    with tempfile.TemporaryDirectory() as root:
        shard = os.path.join(root, "shards", "00.jsonl")
        os.makedirs(os.path.dirname(shard))
        with open(shard, "wb") as handle:
            handle.write(body)

        store = ResultStore(root)
        assert _canonical(dict(store._load())) == _canonical(expected)
        stats = store.stats()
        assert stats["skipped_lines"] == skipped
        assert stats["header_lines"] == headers

        summary = store.compact()
        assert summary["records"] == len(expected)
        assert summary["dropped_lines"] == len(lines) - len(live)
        if os.path.exists(shard):
            with open(shard, "rb") as handle:
                kept = handle.read()
            if len(live) < len(lines):
                assert kept == b"".join(line + b"\n" for line in live)
        else:
            assert not live
        compacted = ResultStore(root)
        assert _canonical(dict(compacted._load())) == _canonical(expected)
        assert compacted.stats()["skipped_lines"] == 0
        assert compacted.stats()["header_lines"] == headers

    # a put appended straight after the same content, compacted or not
    with tempfile.TemporaryDirectory() as root:
        shard = os.path.join(root, "shards", "00.jsonl")
        os.makedirs(os.path.dirname(shard))
        with open(shard, "wb") as handle:
            handle.write(body)
        new_key = "00" + "d" * 22
        ResultStore(root).put(new_key, {"value": "appended"})
        reloaded = ResultStore(root)
        assert reloaded.get(new_key) == {"key": new_key,
                                         "value": "appended"}
        # the put starts its own line: a final line without a newline
        # keeps its record, a torn one stays a skipped fragment
        for key, record in expected.items():
            assert reloaded.get(key) == record
        assert reloaded.stats()["skipped_lines"] == skipped


#: journal payloads: resubmittable, or rejected by request validation
_PAYLOADS = st.one_of(
    st.builds(lambda s: {"benchmark": "running_example", "seed": s},
              st.integers(min_value=0, max_value=10 ** 6)),
    st.just({}),
    st.just({"benchmark": "no_such_benchmark"}),
    st.dictionaries(st.text(max_size=4), _VALUES, max_size=2),
)


@st.composite
def journal_line(draw):
    """``(bytes, kind)``, kind in entry/skip/blank."""
    kind = draw(st.sampled_from(["entry", "entry", "torn", "non_object",
                                 "not_utf8", "no_payload", "blank"]))
    entry = {"id": draw(st.text(max_size=4)), "payload": draw(_PAYLOADS)}
    if kind == "entry":
        return _dump(entry, draw(st.booleans())), "entry"
    if kind == "torn":
        text = _dump(entry, True)
        return text[:draw(st.integers(1, len(text) - 1))], "skip"
    if kind == "non_object":
        return _dump(draw(st.one_of(_VALUES, st.booleans())), True), "skip"
    if kind == "not_utf8":
        return b"\xfe" + draw(st.binary(max_size=12)).replace(b"\n", b""), \
            "skip"
    if kind == "no_payload":
        return _dump({"id": entry["id"], "payload": draw(_VALUES)}, True), \
            "skip"
    return draw(st.sampled_from([b"", b" "])), "blank"


def test_journal_lines_resubmit_or_skip(tmp_path, monkeypatch):
    records = []
    monkeypatch.setattr(jobs.logjson, "log",
                        lambda record, **fields:
                        records.append((record, fields)))
    # resubmitted jobs queue; no worker runs them
    monkeypatch.setattr(MappingService, "_worker_loop",
                        lambda self, index: None)
    service = MappingService(store_path=str(tmp_path / "results"),
                             workers=1)
    journal = service.journal_path()
    os.makedirs(os.path.dirname(journal), exist_ok=True)

    @seed(SEED_BASE + 1)
    @settings(**_SETTINGS)
    @given(lines=st.lists(journal_line(), max_size=10))
    def check(lines):
        with open(journal, "wb") as handle:
            handle.write(b"\n".join(line for line, _ in lines))
        records.clear()
        before = len(service.jobs)
        recovered = service.recover_journal()
        assert recovered == len(service.jobs) - before
        skips = [fields for record, fields in records
                 if record == "journal_skip"]
        line_skips = [fields for fields in skips if "line" in fields]
        entries = sum(kind == "entry" for _, kind in lines)
        assert len(line_skips) == sum(kind == "skip" for _, kind in lines)
        assert recovered + len(skips) - len(line_skips) == entries
        assert not os.path.exists(journal)

    check()
