"""Property tests for the kernel frontend's input boundary.

Kernel source is untrusted text: the CLI reads it from ``--kernel-file``
and the compile service from a request payload. Whatever it is, the
frontend must answer with a DFG or with one of its documented errors
(``LexerError``, ``ParseError``, ``ExtractionError``) -- never a
``RecursionError`` or another traceback. Three generators probe it:

* the bundled example kernels with random edits spliced in;
* expressions nested by parentheses, unary operators, builtins and loads:
  up to :data:`~repro.frontend.parser.MAX_NESTING` levels they extract,
  past it they raise ``ParseError``;
* chains of up to 2,000 binary operators, which open no nesting level and
  always extract.

The hypothesis seed is fixed (overridable through
``REPRO_PROPERTY_SEED`` so CI can pin it explicitly), making every run
reproducible.
"""

import os

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.frontend import (
    EXAMPLE_KERNELS,
    FRONTEND_ERRORS,
    ParseError,
    extract_dfg,
)
from repro.frontend.parser import MAX_NESTING

SEED_BASE = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))

_SETTINGS = dict(deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: what an edit may splice into a kernel source: its own alphabet, the
#: nesting openers in bulk, and a few bytes it never uses
_SPLICE = st.one_of(
    st.sampled_from(list("abisxyz0123456789+-*/%&|^<>=!~?;:,.()[]{}"
                         " \n\t#@$\"'\\") + ["for", "load(", "min(", "\x00"]),
    st.builds(lambda text, count: text * count,
              st.sampled_from(["(", "-", "~", "abs(", "((1+"]),
              st.integers(min_value=1, max_value=120)),
)

#: one nesting level around an expression
_WRAPPERS = (("(", ")"), ("- ", ""), ("~", ""), ("abs(", ")"),
             ("min(a, ", ")"), ("load(m, ", ")"))

#: binary operators of a chain (comparisons do not chain in the grammar)
_CHAIN_OPERATORS = ("+", "-", "*", "&", "|", "^", "<<", ">>")


def _kernel(expression: str) -> str:
    return ("input a = 3;\nacc s = 0;\narray m[8];\n"
            "for i in 0..8 {\n  s = s + " + expression + ";\n}\n")


def _frontend(source: str):
    """The extracted DFG, or None on a documented frontend error."""
    try:
        return extract_dfg(source, name="fuzzed").dfg
    except FRONTEND_ERRORS:
        return None


@st.composite
def mutated_kernels(draw):
    """An example kernel with a few edits spliced in."""
    source = draw(st.sampled_from(sorted(EXAMPLE_KERNELS.values())))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(source)))
        cut = draw(st.integers(min_value=0, max_value=4))
        source = source[:at] + draw(_SPLICE) + source[at + cut:]
    return source


@seed(SEED_BASE)
@settings(max_examples=300, **_SETTINGS)
@given(source=mutated_kernels())
def test_mutated_kernels_give_a_dfg_or_a_frontend_error(source):
    dfg = _frontend(source)  # any other exception fails the test
    if dfg is not None:
        dfg.validate()


@seed(SEED_BASE + 1)
@settings(max_examples=150, **_SETTINGS)
@given(depth=st.integers(min_value=0, max_value=4 * MAX_NESTING),
       kinds=st.lists(st.sampled_from(_WRAPPERS), min_size=1, max_size=6),
       leaf=st.sampled_from(["1", "a", "s", "i", "load(m, i)"]))
def test_nesting_extracts_up_to_the_limit_and_is_a_parse_error_past_it(
        depth, kinds, leaf):
    expression = leaf
    for level in range(depth):
        opener, closer = kinds[level % len(kinds)]
        expression = opener + expression + closer
    source = _kernel(expression)
    # the statement's own expression is the first level
    if depth + 1 <= MAX_NESTING:
        extract_dfg(source, name="nested").dfg.validate()
    else:
        try:
            extract_dfg(source, name="nested")
        except ParseError as exc:
            assert "nested deeper than" in str(exc)
        else:
            raise AssertionError(f"{depth + 1} levels were accepted")


@seed(SEED_BASE + 2)
@settings(max_examples=40, **_SETTINGS)
@given(length=st.integers(min_value=2, max_value=2000),
       terms=st.lists(st.sampled_from(["1", "2", "a", "s", "i"]),
                      min_size=1, max_size=8),
       operators=st.lists(st.sampled_from(_CHAIN_OPERATORS), min_size=1,
                          max_size=8))
def test_long_operator_chains_extract(length, terms, operators):
    expression = terms[0]
    for index in range(1, length):
        expression += (f" {operators[index % len(operators)]} "
                       f"{terms[index % len(terms)]}")
    program = extract_dfg(_kernel(f"({expression})"), name="chain")
    program.dfg.validate()
    # one node per operator of the chain plus the statement's "s + ..."
    operations = [node for node in program.dfg.nodes()
                  if node.opcode.name not in ("CONST", "INPUT", "INDUCTION")]
    assert len(operations) == length
