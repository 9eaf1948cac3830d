"""Bra-ket text format: parse expressions like "(|00> + |11>)/sqrt(2)".

The accepted language is a small arithmetic expression grammar over two value
kinds, scalars and ket vectors:

    expression := ["-"] product { ("+" | "-") product }
    product    := unary { ("*" | "/") unary | unary-juxtaposed }
    unary      := { "-" } atom
    atom       := number | "i" | "sqrt" "(" expression ")" | "(" expression ")"
                | "|" bits ">"

Juxtaposition multiplies when the right operand starts with a ket, an
identifier, "(" or the radical sign, so "0.5|01>", "2i" and "1/2*(|10>+|01>)"
all read naturally.  ">" may be written U+27E9 and "sqrt" as U+221A (the
radical accepts either parentheses or a single following factor).  Scalars mix
freely with kets through + - * / except that kets cannot multiply or divide
each other, every ket in one expression must have the same number of bits,
and division by an exact scalar zero is rejected.  Parentheses and radicals
nest at most MAX_NESTING deep.  A number or an operation whose value leaves
the float range (overflow, or infinity times zero) is rejected at that token.
All failures raise ParseError carrying the 1-based line and column of the
offending token.
"""

import cmath
import re

import numpy as np

from .states import MAX_QUBITS, make_state

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_]+")

# Each nesting level takes a few stack frames of the recursive-descent
# parser; the cap keeps deep input well inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or evaluation failure, with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


_SINGLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
}


def _tokenize(text):
    tokens = []
    pos, line, line_start = 0, 1, 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        col = pos - line_start + 1
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch in _SINGLE:
            tokens.append(_Token(_SINGLE[ch], ch, line, col))
            pos += 1
            continue
        if ch == "√":  # radical sign
            tokens.append(_Token("RADICAL", ch, line, col))
            pos += 1
            continue
        if ch == "|":
            end = pos + 1
            while end < n and text[end] in "01":
                end += 1
            bits = text[pos + 1 : end]
            if not bits:
                raise ParseError("ket needs at least one bit after '|'", line, col)
            if len(bits) > MAX_QUBITS:
                raise ParseError(
                    f"ket has {len(bits)} bits; supported range is 1..{MAX_QUBITS}",
                    line,
                    col,
                )
            if end >= n or text[end] not in (">", "⟩"):
                raise ParseError("expected '>' to close the ket", line, col)
            tokens.append(_Token("KET", bits, line, col))
            pos = end + 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(_Token("NUMBER", m.group(), line, col))
            pos = m.end()
            continue
        m = _NAME.match(text, pos)
        if m:
            tokens.append(_Token("NAME", m.group(), line, col))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, n - line_start + 1))
    return tokens


class _Value:
    """Tagged evaluation result: a scalar or a ket-sum vector."""

    __slots__ = ("scalar", "bits", "amps")

    def __init__(self, scalar=None, bits=None, amps=None):
        self.scalar = scalar
        self.bits = bits
        self.amps = amps

    @property
    def is_scalar(self):
        return self.scalar is not None


def _scalar(z):
    return _Value(scalar=complex(z))


def _finite_scalar(z):
    # Python complex arithmetic overflows to inf (or nan) silently; raise as
    # numpy does for ket arithmetic inside _Parser.parse.
    if not cmath.isfinite(z):
        raise FloatingPointError("scalar out of floating-point range")
    return _Value(scalar=z)


def _out_of_range(op):
    return ParseError("value out of floating-point range", op.line, op.col)


def _ket(bits):
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return _Value(bits=len(bits), amps=amps)


class _Parser:
    # Token kinds that may start an atom and bind to the previous atom by
    # juxtaposition.  NUMBER is deliberately absent: "2 3" is an error.
    _IMPLICIT = ("KET", "NAME", "LPAREN", "RADICAL")

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text!r}" if tok.kind != "EOF"
                else f"expected {what}, found end of input",
                tok.line,
                tok.col,
            )
        return self.advance()

    def parse(self):
        # Ket arithmetic that leaves the float range raises FloatingPointError
        # (scalar arithmetic raises it through _finite_scalar), which the
        # operator loops turn into a ParseError at the operator.
        with np.errstate(over="raise", invalid="raise"):
            value = self.expression()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        return value

    def expression(self):
        value = self.product()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.product()
            try:
                value = self._add(value, rhs, op, negate=op.kind == "MINUS")
            except FloatingPointError:
                raise _out_of_range(op) from None
        return value

    def product(self):
        value = self.unary()
        while True:
            op = self.peek()
            if op.kind in ("STAR", "SLASH"):
                self.advance()
            elif op.kind not in self._IMPLICIT:
                return value
            rhs = self.unary()
            try:
                value = self._combine(value, rhs, op, divide=op.kind == "SLASH")
            except FloatingPointError:
                raise _out_of_range(op) from None

    def unary(self):
        flip = False
        while self.peek().kind in ("MINUS", "PLUS"):
            if self.advance().kind == "MINUS":
                flip = not flip
        # Every nesting level, whether (...), sqrt(...) or a radical, passes
        # through here once.
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self.depth += 1
        value = self.atom()
        self.depth -= 1
        if flip:
            if value.is_scalar:
                return _scalar(-value.scalar)
            return _Value(bits=value.bits, amps=-value.amps)
        return value

    def atom(self):
        tok = self.advance()
        if tok.kind == "NUMBER":
            value = float(tok.text)
            if not cmath.isfinite(value):
                raise ParseError(f"number {tok.text} is out of range", tok.line, tok.col)
            return _scalar(value)
        if tok.kind == "KET":
            return _ket(tok.text)
        if tok.kind == "LPAREN":
            value = self.expression()
            self.expect("RPAREN", "')'")
            return value
        if tok.kind == "NAME":
            if tok.text == "i":
                return _scalar(1j)
            if tok.text == "sqrt":
                self.expect("LPAREN", "'(' after sqrt")
                inner = self.expression()
                self.expect("RPAREN", "')'")
                return self._sqrt(inner, tok)
            raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)
        if tok.kind == "RADICAL":
            if self.peek().kind == "LPAREN":
                self.advance()
                inner = self.expression()
                self.expect("RPAREN", "')'")
            else:
                inner = self.unary()
            return self._sqrt(inner, tok)
        if tok.kind == "EOF":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)

    @staticmethod
    def _sqrt(value, tok):
        if not value.is_scalar:
            raise ParseError("sqrt of a ket expression", tok.line, tok.col)
        z = value.scalar
        if z.imag != 0.0 or z.real < 0.0:
            raise ParseError("sqrt argument must be a nonnegative real", tok.line, tok.col)
        return _scalar(np.sqrt(z.real))

    @staticmethod
    def _add(lhs, rhs, op, negate):
        if lhs.is_scalar != rhs.is_scalar:
            raise ParseError("cannot add a scalar and a ket expression", op.line, op.col)
        if lhs.is_scalar:
            return _finite_scalar(lhs.scalar - rhs.scalar if negate else lhs.scalar + rhs.scalar)
        if lhs.bits != rhs.bits:
            raise ParseError(
                f"mixed ket lengths ({lhs.bits} and {rhs.bits} bits)", op.line, op.col
            )
        amps = lhs.amps - rhs.amps if negate else lhs.amps + rhs.amps
        return _Value(bits=lhs.bits, amps=amps)

    @staticmethod
    def _combine(lhs, rhs, op, divide):
        if divide:
            if not rhs.is_scalar:
                raise ParseError("cannot divide by a ket expression", op.line, op.col)
            if rhs.scalar == 0:
                raise ParseError("division by zero", op.line, op.col)
            if lhs.is_scalar:
                return _finite_scalar(lhs.scalar / rhs.scalar)
            return _Value(bits=lhs.bits, amps=lhs.amps / rhs.scalar)
        if lhs.is_scalar and rhs.is_scalar:
            return _finite_scalar(lhs.scalar * rhs.scalar)
        if lhs.is_scalar:
            return _Value(bits=rhs.bits, amps=lhs.scalar * rhs.amps)
        if rhs.is_scalar:
            return _Value(bits=lhs.bits, amps=rhs.scalar * lhs.amps)
        raise ParseError("cannot multiply two ket expressions", op.line, op.col)


def parse_amplitudes(text):
    """Parse to a raw (qubit_count, amplitude_vector) pair, unvalidated."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 1, 1)
    value = _Parser(text).parse()
    if value.is_scalar:
        raise ParseError("expression contains no ket terms", 1, 1)
    return value.bits, value.amps


def parse_state(text, normalize=False):
    """Parse bra-ket text into a validated QubitState.

    Without ``normalize`` the amplitudes must already be unit-norm (within the
    make_state input tolerance) and are kept verbatim.
    """
    n, amps = parse_amplitudes(text)
    return make_state(n, amps, normalize=normalize)


def _format_real(v, digits):
    return format(v, f".{digits}g")


def _format_coeff(z, digits):
    """Render one coefficient; complex values are parenthesized so the output
    re-parses as (scalar)|bits>.  Returns (text, sign) with sign pulled out
    for pure-real/pure-imaginary values to keep "a - b|01>" joins natural."""
    re_, im = z.real, z.imag
    if im == 0.0:
        return _format_real(abs(re_), digits), -1.0 if re_ < 0 else 1.0
    if re_ == 0.0:
        return _format_real(abs(im), digits) + "i", -1.0 if im < 0 else 1.0
    im_part = f"{'-' if im < 0 else '+'}{_format_real(abs(im), digits)}i"
    return f"({_format_real(re_, digits)}{im_part})", 1.0


def format_state(state, digits=17):
    """Render a state as a sum of coefficient|bits> terms (17 significant
    digits round-trip double precision exactly)."""
    n = state.n
    parts = []
    for k, amp in enumerate(state.amps):
        if amp == 0:
            continue
        coeff, sign = _format_coeff(complex(amp), digits)
        bits = format(k, f"0{n}b")
        if not parts:
            prefix = "-" if sign < 0 else ""
        else:
            prefix = " - " if sign < 0 else " + "
        parts.append(f"{prefix}{coeff}|{bits}>")
    return "".join(parts)
