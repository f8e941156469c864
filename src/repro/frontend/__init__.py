"""Loop-kernel front-end: from source text to a DFG.

The paper extracts DFGs from the LLVM IR of pragma-annotated innermost
loops. This package provides the equivalent tooling for the reproduction: a
small C-like loop-kernel language, a recursive-descent parser and a DFG
extractor that recovers data dependencies, loop-carried dependencies (through
``acc`` variables) and memory operations.

Typical use::

    from repro.frontend import extract_dfg

    program = extract_dfg('''
        acc crc = 255;
        array data[64];
        for i in 0..64 {
            byte = load(data, i);
            crc = (crc ^ byte) & 65535;
        }
    ''')
    dfg = program.dfg          # ready for the mapper
    program.arrays             # {'data': 64}
"""

from repro.frontend.lexer import Token, TokenKind, tokenize, LexerError
from repro.frontend.parser import parse_program, ParseError
from repro.frontend.ast_nodes import (
    Program,
    Declaration,
    Loop,
    Assignment,
    StoreStatement,
    BinaryOp,
    UnaryOp,
    Ternary,
    LoadExpr,
    CallExpr,
    NumberLiteral,
    VariableRef,
)
from repro.frontend.extract import ExtractedProgram, extract_dfg, ExtractionError
from repro.frontend.kernels import EXAMPLE_KERNELS, example_kernel_source

#: the documented errors of the frontend: bad kernel source raises one of
#: these and nothing else
FRONTEND_ERRORS = (LexerError, ParseError, ExtractionError)

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "LexerError",
    "parse_program",
    "ParseError",
    "Program",
    "Declaration",
    "Loop",
    "Assignment",
    "StoreStatement",
    "BinaryOp",
    "UnaryOp",
    "Ternary",
    "LoadExpr",
    "CallExpr",
    "NumberLiteral",
    "VariableRef",
    "ExtractedProgram",
    "extract_dfg",
    "ExtractionError",
    "FRONTEND_ERRORS",
    "EXAMPLE_KERNELS",
    "example_kernel_source",
]
