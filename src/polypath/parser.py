"""Parser for the polynomial-system input format.

Grammar (UTF-8, ``%`` starts a line comment)::

    file      := stmt* ;
    stmt      := "vars" namelist ";" | "params" namelist ";"
               | "projective" ";" | assign ;
    assign    := NAME "=" expr ";" ;
    namelist  := NAME ("," NAME)* ;
    expr      := term (("+"|"-") term)* ;
    term      := factor ("*" factor)* ;
    factor    := "-" factor | base ("^" UINT)? ;
    base      := NAME | NUMBER | "I" | "(" expr ")" ;
    NAME      := (letter | "_") (letter | digit | "_")* ;
    NUMBER    := (digit+ ("." digit*)? | "." digit+) (("e"|"E") ("+"|"-")? digit+)? ;

A letter is any Unicode letter and a digit any decimal digit; UINT is a
NUMBER of digits only.  Notes on conventions: ``^`` binds tighter than
unary minus, so ``-x^2`` is ``-(x^2)``.  Multiplication is always explicit
(``2*x``, never ``2x``).  ``I`` is the imaginary unit and
``vars``/``params``/``projective``/``I`` are reserved words.  Coefficient
arithmetic happens in hardware precision; literals with more than 15
significant digits are accepted but rounded, one too small rounds to 0, and
one too large for a double is a parse error, as is a sum, product or power
whose coefficient overflows.  Parentheses nest at most 99 deep.
Exactly one ``vars`` statement is required and at most one ``params``;
assignment left-hand names are equation labels, unique and unusable
inside expressions.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DuplicateName, ParseError, UndeclaredIdentifier
from .polysys import Polynomial, PolySystem

_RESERVED = {"vars", "params", "projective", "I"}
_MAX_EXPONENT = 10_000
_MAX_TERMS = 500_000
_MAX_DEPTH = 400
_NAME = re.compile(r"\w+")
_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


class Token(NamedTuple):
    kind: str   # NAME, NUMBER, op character, or EOF
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem: the system plus file-level declarations."""

    system: PolySystem
    declared_projective: bool
    source_name: str


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for line, row in enumerate(text.split("\n"), 1):
        # a comment runs to the end of its line and takes no column, so the
        # end of input after a final comment is at the comment's column
        row = row.partition("%")[0]
        i, n = 0, len(row)
        while i < n:
            c = row[i]
            if c in " \t\r":
                i += 1
            elif c in "+-*^()=,;":
                tokens.append(Token(c, c, line, i + 1))
                i += 1
            else:
                kind, pattern = ("NAME", _NAME) if c.isalpha() or c == "_" else ("NUMBER", _NUMBER)
                match = pattern.match(row, i)
                if match is None:
                    raise ParseError(f"illegal character {c!r}", line, i + 1, c)
                tokens.append(Token(kind, match.group(), line, i + 1))
                i = match.end()
    tokens.append(Token("EOF", "", line, n + 1))
    return tokens


# -- term-dict arithmetic ----------------------------------------------------
# A working polynomial is a dict mapping exponent tuples to complex
# coefficients; exact zero coefficients are removed eagerly.

def _finite(terms, tok):
    """terms, unless the arithmetic of the operator tok overflowed."""
    if all(map(cmath.isfinite, terms.values())):
        return terms
    raise ParseError(f"coefficient out of range at {tok.text!r}", tok.line, tok.column, tok.text)


def _tadd(a, b, tok):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0j) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return _finite(out, tok)


def _tneg(a):
    return {e: -c for e, c in a.items()}


def _tmul(a, b, tok):
    if len(a) * len(b) > _MAX_TERMS:
        raise ParseError("expression expands to too many terms",
                         tok.line, tok.column, tok.text)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0j) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return _finite(out, tok)


def _tpow(a, k, tok):
    out = None
    base = a
    # binary powering; blowup bounded by the guard in _tmul
    while True:
        if k & 1:
            out = base if out is None else _tmul(out, base, tok)
        k >>= 1
        if not k:
            break
        base = _tmul(base, base, tok)
    return out if out is not None else {}


class _Parser:
    def __init__(self, tokens, names, width):
        self.tokens = tokens
        self.pos = 0
        self.names = names      # identifier -> exponent column
        self.width = width
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column, tok.text)
        return self.take()

    def _one(self):
        return {tuple([0] * self.width): 1.0 + 0.0j}

    def whole(self, context: str):
        """All the tokens as one expression; context ends the message that
        reports a token left over."""
        if self.peek().kind == "EOF":
            raise ParseError("empty input", 1, 1)
        out = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r} {context}",
                             tok.line, tok.column, tok.text)
        return out

    def expr(self):
        out = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.term()
            out = _tadd(out, rhs if op.kind == "+" else _tneg(rhs), op)
        return out

    def term(self):
        out = self.factor()
        while self.peek().kind == "*":
            tok = self.take()
            out = _tmul(out, self.factor(), tok)
        return out

    def factor(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError("expression nested too deeply", tok.line, tok.column)
        try:
            if self.peek().kind == "-":
                self.take()
                return _tneg(self.factor())
            out = self.base()
            if self.peek().kind == "^":
                tok = self.take()
                exp = self.peek()
                if exp.kind != "NUMBER" or not exp.text.isdigit():
                    raise ParseError("exponent must be a nonnegative integer",
                                     exp.line, exp.column, exp.text)
                self.take()
                k = int(exp.text)
                if k > _MAX_EXPONENT:
                    raise ParseError(f"exponent {k} exceeds limit {_MAX_EXPONENT}",
                                     exp.line, exp.column, exp.text)
                out = self._one() if k == 0 else _tpow(out, k, tok)
            return out
        finally:
            self.depth -= 1

    def base(self):
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            # a level of parentheses takes the frames of base, expr and term
            # besides factor's, so that any nesting ends in the check there
            self.depth += 3
            out = self.expr()
            self.depth -= 3
            self.expect(")")
            return out
        if tok.kind == "NUMBER":
            self.take()
            value = float(tok.text)
            if value == math.inf:
                raise ParseError(f"number {tok.text} is out of range",
                                 tok.line, tok.column, tok.text)
            return {tuple([0] * self.width): complex(value)}
        if tok.kind == "NAME":
            self.take()
            if tok.text == "I":
                return {tuple([0] * self.width): 1j}
            col = self.names.get(tok.text)
            if col is None:
                raise UndeclaredIdentifier(f"unknown identifier {tok.text!r}",
                                           tok.line, tok.column, tok.text)
            e = [0] * self.width
            e[col] = 1
            return {tuple(e): 1.0 + 0.0j}
        raise ParseError(f"expected a name, number, or '(', found {tok.text or 'end of input'!r}",
                         tok.line, tok.column, tok.text)


def parse_polynomial(text: str, variables, parameters=()) -> Polynomial:
    """Parse one expression into a canonical term list.

    The exponent space is the variables followed by the parameters.
    """
    variables = list(variables)
    parameters = list(parameters)
    if not variables:
        raise ParseError("at least one variable is required", 1, 1)
    names = {name: i for i, name in enumerate(variables + parameters)}
    if len(names) != len(variables) + len(parameters):
        raise DuplicateName("variable and parameter names must be distinct", 1, 1)
    if any(name in _RESERVED for name in names):
        raise ParseError("'vars', 'params', 'projective', and 'I' are reserved", 1, 1)
    terms = _Parser(_tokenize(text), names, len(names)).whole("after expression")
    return Polynomial.from_terms(terms, len(names))


def parse_complex_literal(text: str) -> complex:
    """Parse a constant expression such as ``1+2*I`` or ``-0.5``."""
    terms = _Parser(_tokenize(text), {}, 0).whole("after literal")
    return complex(terms.get((), 0j))


def _split_statements(tokens):
    """The non-empty token lists between ';'s; tokens ends with EOF."""
    stmts, start = [], 0
    for k, tok in enumerate(tokens):
        if tok.kind == ";":
            stmts.append(tokens[start:k])
            start = k + 1
    if start < len(tokens) - 1:
        tok = tokens[-2]
        raise ParseError("missing ';' at end of statement", tok.line, tok.column, tok.text)
    return [stmt for stmt in stmts if stmt]


def _parse_namelist(stmt):
    """The names of a 'vars' or 'params' statement, in which NAME and ','
    alternate."""
    for k, tok in enumerate(stmt[1:]):
        if tok.kind != ("," if k % 2 else "NAME"):
            raise ParseError("expected ','" if k % 2 else "expected a name",
                             tok.line, tok.column, tok.text)
    if len(stmt) % 2:
        head = stmt[0]
        raise ParseError("expected a name after ','" if len(stmt) > 1 else "empty name list",
                         head.line, head.column, head.text)
    return stmt[1::2]


def parse_input_file(text: str, source_name: str = "<input>") -> ProblemSpec:
    """Parse a whole problem file into a ProblemSpec."""
    tokens = _tokenize(text)
    stmts = _split_statements(tokens)

    lists = {"vars": None, "params": None}
    projective = False
    assigns = []
    seen = {}

    def declare(tok):
        if tok.text in _RESERVED:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.column, tok.text)
        if tok.text in seen:
            raise DuplicateName(f"name {tok.text!r} already declared",
                                tok.line, tok.column, tok.text)
        seen[tok.text] = tok

    for stmt in stmts:
        head = stmt[0]
        assign = len(stmt) >= 2 and stmt[1].kind == "="
        if head.kind == "NAME" and head.text in lists and not assign:
            if lists[head.text] is not None:
                raise DuplicateName(f"second {head.text!r} statement",
                                    head.line, head.column, head.text)
            lists[head.text] = _parse_namelist(stmt)
            for tok in lists[head.text]:
                declare(tok)
        elif head.kind == "NAME" and head.text == "projective" and len(stmt) == 1:
            projective = True
        elif head.kind == "NAME" and assign:
            declare(head)
            assigns.append((head, stmt[2:]))
        else:
            raise ParseError("expected 'vars', 'params', 'projective', or 'name = expr'",
                             head.line, head.column, head.text)

    end = tokens[-1]
    if lists["vars"] is None:
        raise ParseError("missing 'vars' statement", end.line, end.column)
    if not assigns:
        raise ParseError("no equations given", end.line, end.column)

    variables = [tok.text for tok in lists["vars"]]
    parameters = [tok.text for tok in lists["params"] or ()]
    names = {name: i for i, name in enumerate(variables + parameters)}
    width = len(names)

    polys = []
    for label, body in assigns:
        if not body:
            raise ParseError("empty right-hand side", label.line, label.column, label.text)
        eof = Token("EOF", "", body[-1].line, body[-1].column)
        terms = _Parser(body + [eof], names, width).whole(f"in equation {label.text!r}")
        polys.append(Polynomial.from_terms(terms, width))

    system = PolySystem(variables, polys, parameters)
    return ProblemSpec(system=system, declared_projective=projective, source_name=source_name)


# -- pretty printing ---------------------------------------------------------

def _fmt_real(x: float) -> str:
    # repr round-trips doubles exactly, which the reparse test relies on
    return repr(float(x))


def _term_string(coeff: complex, exps, names) -> tuple[str, str]:
    """Return (sign, magnitude-expression) for one term."""
    mono = "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(names, exps) if e
    )
    a, b = coeff.real, coeff.imag
    if b == 0:
        sign = "-" if a < 0 else "+"
        mag = _fmt_real(abs(a))
        if mono and mag == "1.0":
            return sign, mono
        body = f"{mag}*{mono}" if mono else mag
        return sign, body
    if a == 0:
        sign = "-" if b < 0 else "+"
        imag = "I" if abs(b) == 1 else f"{_fmt_real(abs(b))}*I"
        return sign, f"{imag}*{mono}" if mono else imag
    op = "+" if b > 0 else "-"
    coeff_str = f"({_fmt_real(a)} {op} {_fmt_real(abs(b))}*I)"
    return "+", f"{coeff_str}*{mono}" if mono else coeff_str


def polynomial_to_string(poly: Polynomial, names) -> str:
    """Canonical text form; reparsing yields an identical term list."""
    if poly.is_zero:
        return "0"
    parts = []
    for exps, coeff in zip(poly.exps, poly.coeffs):
        sign, body = _term_string(complex(coeff), exps, names)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def render_problem(system: PolySystem, projective: bool = False) -> str:
    """Canonical problem-file text for a system (used for persistence)."""
    lines = ["vars " + ", ".join(system.variables) + ";"]
    if system.parameters:
        lines.append("params " + ", ".join(system.parameters) + ";")
    if projective:
        lines.append("projective;")
    names = list(system.variables) + list(system.parameters)
    for i, poly in enumerate(system.polys):
        lines.append(f"f{i} = {polynomial_to_string(poly, names)};")
    return "\n".join(lines) + "\n"
