"""Recursive-descent parser for the loop-kernel language.

Grammar (simplified EBNF)::

    program   := declaration* loop
    declaration := ("input" | "const" | "acc") IDENT ("=" ("-")? NUMBER)? ";"
                 | "array" IDENT "[" NUMBER "]" ";"
    loop      := "for" IDENT "in" NUMBER ".." NUMBER "{" statement* "}"
    statement := IDENT "=" expr ";"
               | "store" "(" IDENT "," expr "," expr ")" ";"
    expr      := ternary
    ternary   := comparison ("?" expr ":" expr)?
    comparison:= bitor (("<"|"<="|">"|">="|"=="|"!=") bitor)?
    bitor     := bitxor ("|" bitxor)*
    bitxor    := bitand ("^" bitand)*
    bitand    := shift ("&" shift)*
    shift     := additive (("<<"|">>") additive)*
    additive  := multiplicative (("+"|"-") multiplicative)*
    multiplicative := unary (("*"|"/"|"%") unary)*
    unary     := ("-"|"~") unary | primary
    primary   := NUMBER | IDENT | "(" expr ")"
               | "load" "(" IDENT "," expr ")"
               | ("min"|"max") "(" expr "," expr ")"
               | "abs" "(" expr ")"

Each ``expr`` inside an expression (a parenthesised one, an argument, a
load index, a ternary branch) and each unary operator opens one nesting
level; past :data:`MAX_NESTING` levels the parser raises
:class:`ParseError` rather than recursing on. Chains of binary operators
(``1 + 1 + ... + 1``) open no level: they are parsed by iteration, and
:mod:`repro.frontend.extract` lowers them without recursion.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend.ast_nodes import (
    Assignment,
    BinaryOp,
    CallExpr,
    Declaration,
    Expression,
    LoadExpr,
    Loop,
    NumberLiteral,
    Program,
    Statement,
    StoreStatement,
    Ternary,
    UnaryOp,
    VariableRef,
)
from repro.frontend.lexer import Token, TokenKind, parse_number, tokenize


#: deepest expression nesting a kernel may use (see the module docstring);
#: far beyond any real kernel, and far below Python's recursion limit
MAX_NESTING = 32


class ParseError(ValueError):
    """Raised on malformed kernel source."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} (found {token.text!r} at line {token.line})")
        self.token = token


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.position = 0
        self.depth = 0  # open expression nesting levels

    # -- token helpers ---------------------------------------------------- #
    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not TokenKind.EOF:
            self.position += 1
        return token

    def check(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind is not TokenKind.EOF

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise ParseError(f"expected {text!r}", self.peek())
        return self.advance()

    def expect_kind(self, kind: TokenKind) -> Token:
        if self.peek().kind is not kind:
            raise ParseError(f"expected {kind.value}", self.peek())
        return self.advance()

    # -- grammar ----------------------------------------------------------- #
    def parse_program(self) -> Program:
        declarations: List[Declaration] = []
        while self.peek().text in ("input", "const", "acc", "array"):
            declarations.append(self.parse_declaration())
        loop = self.parse_loop()
        if self.peek().kind is not TokenKind.EOF:
            raise ParseError("unexpected trailing input", self.peek())
        return Program(declarations=tuple(declarations), loop=loop)

    def parse_declaration(self) -> Declaration:
        kind = self.advance().text
        name = self.expect_kind(TokenKind.IDENT).text
        value: Optional[int] = None
        size: Optional[int] = None
        if kind == "array":
            self.expect("[")
            size = parse_number(self.expect_kind(TokenKind.NUMBER).text)
            self.expect("]")
        elif self.accept("="):
            negative = self.accept("-")
            value = parse_number(self.expect_kind(TokenKind.NUMBER).text)
            if negative:
                value = -value
        self.expect(";")
        return Declaration(kind=kind, name=name, value=value, size=size)

    def parse_loop(self) -> Loop:
        self.expect("for")
        induction = self.expect_kind(TokenKind.IDENT).text
        self.expect("in")
        start = parse_number(self.expect_kind(TokenKind.NUMBER).text)
        self.expect("..")
        stop = parse_number(self.expect_kind(TokenKind.NUMBER).text)
        self.expect("{")
        body: List[Statement] = []
        while not self.check("}"):
            body.append(self.parse_statement())
        self.expect("}")
        return Loop(induction_variable=induction, start=start, stop=stop,
                    body=tuple(body))

    def parse_statement(self) -> Statement:
        if self.check("store"):
            self.advance()
            self.expect("(")
            array = self.expect_kind(TokenKind.IDENT).text
            self.expect(",")
            index = self.parse_expression()
            self.expect(",")
            value = self.parse_expression()
            self.expect(")")
            self.expect(";")
            return StoreStatement(array=array, index=index, value=value)
        target = self.expect_kind(TokenKind.IDENT).text
        self.expect("=")
        value = self.parse_expression()
        self.expect(";")
        return Assignment(target=target, value=value)

    # -- expressions -------------------------------------------------------- #
    def parse_expression(self) -> Expression:
        return self._nested(self.parse_ternary)

    def _nested(self, parse) -> Expression:
        """``parse()`` one nesting level deeper than the caller."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels",
                self.peek())
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def parse_ternary(self) -> Expression:
        condition = self.parse_comparison()
        if self.accept("?"):
            if_true = self.parse_expression()
            self.expect(":")
            if_false = self.parse_expression()
            return Ternary(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def parse_comparison(self) -> Expression:
        left = self.parse_bitor()
        if self.peek().text in ("<", "<=", ">", ">=", "==", "!="):
            op = self.advance().text
            right = self.parse_bitor()
            return BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_left_associative(self, operators, parse_operand) -> Expression:
        left = parse_operand()
        while self.peek().text in operators:
            op = self.advance().text
            right = parse_operand()
            left = BinaryOp(op=op, left=left, right=right)
        return left

    def parse_bitor(self) -> Expression:
        return self._parse_left_associative(("|",), self.parse_bitxor)

    def parse_bitxor(self) -> Expression:
        return self._parse_left_associative(("^",), self.parse_bitand)

    def parse_bitand(self) -> Expression:
        return self._parse_left_associative(("&",), self.parse_shift)

    def parse_shift(self) -> Expression:
        return self._parse_left_associative(("<<", ">>"), self.parse_additive)

    def parse_additive(self) -> Expression:
        return self._parse_left_associative(("+", "-"), self.parse_multiplicative)

    def parse_multiplicative(self) -> Expression:
        return self._parse_left_associative(("*", "/", "%"), self.parse_unary)

    def parse_unary(self) -> Expression:
        if self.peek().text in ("-", "~"):
            op = self.advance().text
            return UnaryOp(op=op, operand=self._nested(self.parse_unary))
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return NumberLiteral(parse_number(token.text))
        if token.text == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if token.text == "load":
            self.advance()
            self.expect("(")
            array = self.expect_kind(TokenKind.IDENT).text
            self.expect(",")
            index = self.parse_expression()
            self.expect(")")
            return LoadExpr(array=array, index=index)
        if token.text in ("min", "max", "abs"):
            function = self.advance().text
            self.expect("(")
            arguments = [self.parse_expression()]
            while self.accept(","):
                arguments.append(self.parse_expression())
            self.expect(")")
            expected = 1 if function == "abs" else 2
            if len(arguments) != expected:
                raise ParseError(
                    f"{function} expects {expected} argument(s)", token
                )
            return CallExpr(function=function, arguments=tuple(arguments))
        if token.kind is TokenKind.IDENT:
            self.advance()
            return VariableRef(token.text)
        raise ParseError("expected an expression", token)


def parse_program(source: str) -> Program:
    """Parse kernel source text into a :class:`Program` AST."""
    return _Parser(tokenize(source)).parse_program()
