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

# One alternative per token kind; the first character decides which applies,
# and OTHER catches whatever no other alternative starts with.
_TOKEN = re.compile(
    r"(?P<NUMBER>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<KET>\|[01]*[>⟩]?)"
    r"|(?P<NAME>[A-Za-z_]+)"
    r"|(?P<OP>[-+*/()√])"
    r"|(?P<NEWLINE>\n)"
    r"|(?P<BLANK>[ \t\r]+)"
    r"|(?P<OTHER>.)",
    re.DOTALL,
)

# Each nesting level takes a few stack frames of the recursive-descent
# parser; the cap keeps deep input well inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or evaluation failure, with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _tokenize(text):
    """(kind, text, line, col) tuples ending in an EOF token.  An operator's
    kind is its own character; a ket's text is its bits."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "BLANK":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "OP":
            kind = tok
        elif kind == "KET":
            bits = tok[1:].rstrip(">⟩")
            if not bits:
                raise ParseError("ket needs at least one bit after '|'", line, col)
            if len(bits) > MAX_QUBITS:
                raise ParseError(
                    f"ket has {len(bits)} bits; supported range is 1..{MAX_QUBITS}",
                    line,
                    col,
                )
            if len(bits) == len(tok) - 1:
                raise ParseError("expected '>' to close the ket", line, col)
            tok = bits
        elif kind == "OTHER":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        tokens.append((kind, tok, line, col))
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens


# A value is a Python complex (a scalar) or a complex128 array of length
# 2**bits (a ket sum); a ket has at least one bit, so no array has length 1.
def _finite(z):
    # Python complex arithmetic overflows to inf (or nan) silently; raise as
    # numpy does for ket arithmetic inside _Parser.parse.
    if not cmath.isfinite(z):
        raise FloatingPointError("scalar out of floating-point range")
    return z


def _ket(bits):
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return amps


class _Parser:
    # Token kinds that may start an atom and bind to the previous atom by
    # juxtaposition.  NUMBER is deliberately absent: "2 3" is an error.
    _IMPLICIT = ("KET", "NAME", "(", "√")

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(
                f"expected {what}, found {tok[1]!r}" if tok[0] != "EOF"
                else f"expected {what}, found end of input",
                *tok[2:],
            )

    def parse(self):
        # Ket arithmetic that leaves the float range raises FloatingPointError
        # (scalar arithmetic raises it through _finite), which the operator
        # loops turn into a ParseError at the operator.
        with np.errstate(over="raise", invalid="raise"):
            value = self.expression()
        kind, text, line, col = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"unexpected {text!r} after expression", line, col)
        return value

    def expression(self):
        value = self.product()
        while self.tokens[self.pos][0] in ("+", "-"):
            op = self.advance()
            rhs = self.product()
            try:
                value = self._add(value, rhs, op)
            except FloatingPointError:
                raise ParseError("value out of floating-point range", *op[2:]) from None
        return value

    def product(self):
        value = self.unary()
        while True:
            op = self.tokens[self.pos]
            if op[0] in ("*", "/"):
                self.pos += 1
            elif op[0] not in self._IMPLICIT:
                return value
            rhs = self.unary()
            try:
                value = self._combine(value, rhs, op)
            except FloatingPointError:
                raise ParseError("value out of floating-point range", *op[2:]) from None

    def unary(self):
        flip = False
        while self.tokens[self.pos][0] in ("-", "+"):
            if self.advance()[0] == "-":
                flip = not flip
        # Every nesting level, whether (...), sqrt(...) or a radical, passes
        # through here once.
        if self.depth == MAX_NESTING:
            _, _, line, col = self.tokens[self.pos]
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
        self.depth += 1
        value = self.atom()
        self.depth -= 1
        return -value if flip else value

    def atom(self):
        tok = kind, text, line, col = self.advance()
        if kind == "NUMBER":
            value = float(text)
            if not cmath.isfinite(value):
                raise ParseError(f"number {text} is out of range", line, col)
            return complex(value)
        if kind == "KET":
            return _ket(text)
        if kind == "(":
            value = self.expression()
            self.expect(")", "')'")
            return value
        if kind == "NAME":
            if text == "i":
                return 1j
            if text == "sqrt":
                self.expect("(", "'(' after sqrt")
                inner = self.expression()
                self.expect(")", "')'")
                return self._sqrt(inner, tok)
            raise ParseError(f"unknown name {text!r}", line, col)
        if kind == "√":
            if self.tokens[self.pos][0] == "(":
                self.pos += 1
                inner = self.expression()
                self.expect(")", "')'")
            else:
                inner = self.unary()
            return self._sqrt(inner, tok)
        if kind == "EOF":
            raise ParseError("unexpected end of input", line, col)
        raise ParseError(f"unexpected {text!r}", line, col)

    @staticmethod
    def _sqrt(z, tok):
        if isinstance(z, np.ndarray):
            raise ParseError("sqrt of a ket expression", *tok[2:])
        if z.imag != 0.0 or z.real < 0.0:
            raise ParseError("sqrt argument must be a nonnegative real", *tok[2:])
        return complex(np.sqrt(z.real))

    @staticmethod
    def _add(lhs, rhs, op):
        ket = isinstance(lhs, np.ndarray)
        if ket != isinstance(rhs, np.ndarray):
            raise ParseError("cannot add a scalar and a ket expression", *op[2:])
        if ket and len(lhs) != len(rhs):
            raise ParseError(
                f"mixed ket lengths ({len(lhs).bit_length() - 1} and "
                f"{len(rhs).bit_length() - 1} bits)",
                *op[2:],
            )
        total = lhs - rhs if op[0] == "-" else lhs + rhs
        return total if ket else _finite(total)

    @staticmethod
    def _combine(lhs, rhs, op):
        # Scalars stay Python complex and multiply a ket from the left: numpy's
        # complex loops may round differently from Python's, so operand types
        # and order fix the bits of every result.
        lket, rket = isinstance(lhs, np.ndarray), isinstance(rhs, np.ndarray)
        if op[0] == "/":
            if rket:
                raise ParseError("cannot divide by a ket expression", *op[2:])
            if rhs == 0:
                raise ParseError("division by zero", *op[2:])
            return lhs / rhs if lket else _finite(lhs / rhs)
        if lket and rket:
            raise ParseError("cannot multiply two ket expressions", *op[2:])
        if lket:
            return rhs * lhs
        return lhs * rhs if rket else _finite(lhs * rhs)


def parse_amplitudes(text):
    """Parse to a raw (qubit_count, amplitude_vector) pair, unvalidated."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 1, 1)
    amps = _Parser(text).parse()
    if not isinstance(amps, np.ndarray):
        raise ParseError("expression contains no ket terms", 1, 1)
    return len(amps).bit_length() - 1, amps


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
