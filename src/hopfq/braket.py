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
import itertools
import re

import numpy as np

from .states import MAX_QUBITS, make_state

_BLANKS = " \t\r\n"

# After the blanks before it, a token is a number, a closed ket of 1..MAX_QUBITS
# bits, a name or an operator, captured in the group; its first character
# decides which.  A malformed ket or any other character matches uncaptured,
# so findall returns "" for it.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:("
    r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
    rf"|\|[01]{{1,{MAX_QUBITS}}}[>⟩]"
    r"|[A-Za-z_]+"
    r"|[-+*/()√]"
    r")|\|[01]*[>⟩]?|[^ \t\r\n])"
)

# First characters of the tokens that may start an atom and bind to the
# previous atom by juxtaposition: kets, names, "(" and the radical.  Numbers
# are deliberately absent: "2 3" is an error.
_IMPLICIT = frozenset("|(√_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

# Each nesting level takes a few stack frames of the recursive-descent
# parser; the cap keeps deep input well inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or evaluation failure, with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _locate(text, index):
    """(line, col, token text) of token `index` of text; past the last token,
    the end of input.  Blanks are stripped from the end first, as in
    _tokenize: on a long blank tail the pattern takes quadratic time."""
    m = next(itertools.islice(_TOKEN.finditer(text.rstrip(_BLANKS)), index, None), None)
    tok = m.group().lstrip(_BLANKS) if m else ""
    offset = m.end() - len(tok) if m else len(text)
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1, tok


def _tokenize(text):
    """The token strings of text, ending in "" for the end of input.  The first
    malformed token raises before anything is evaluated; positions are found
    only then."""
    tokens = _TOKEN.findall(text.rstrip(_BLANKS))
    if "" not in tokens:
        tokens.append("")
        return tokens
    line, col, tok = _locate(text, tokens.index(""))
    bits = tok[1:].rstrip(">⟩")
    if tok[0] != "|":
        message = f"unexpected character {tok!r}"
    elif not bits:
        message = "ket needs at least one bit after '|'"
    elif len(bits) > MAX_QUBITS:
        message = f"ket has {len(bits)} bits; supported range is 1..{MAX_QUBITS}"
    else:
        message = "expected '>' to close the ket"
    raise ParseError(message, line, col)


# A value is a Python complex (a scalar) or a complex128 array of length
# 2**bits (a ket sum); a ket has at least one bit, so no array has length 1.
def _finite(z):
    # Python complex arithmetic overflows to inf (or nan) silently; raise as
    # numpy does for ket arithmetic inside _Parser.parse.
    if not cmath.isfinite(z):
        raise FloatingPointError("scalar out of floating-point range")
    return z


def _ket_rows():
    # Every ket token, ">" and U+27E9 spellings alike, to its read-only row of
    # the identity matrix of its width.  The evaluator never writes into a
    # value, so terms share rows; parse_amplitudes copies a bare one.
    kets = {}
    for width in range(1, MAX_QUBITS + 1):
        rows = np.eye(1 << width, dtype=np.complex128)
        rows.setflags(write=False)
        for k, row in enumerate(rows):
            bits = format(k, f"0{width}b")
            kets[f"|{bits}>"] = kets[f"|{bits}⟩"] = row
    return kets


_KETS = _ket_rows()


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, message, at):
        return ParseError(message, *_locate(self.text, at)[:2])

    def expect(self, tok, what):
        found = self.tokens[self.pos]
        if found != tok:
            # A ket is named by its bits.
            shown = repr(found[1:-1] if found[:1] == "|" else found) if found else "end of input"
            raise self.error(f"expected {what}, found {shown}", self.pos)
        self.pos += 1

    def parse(self):
        # Ket arithmetic that leaves the float range raises FloatingPointError
        # (scalar arithmetic raises it through _finite), which the operator
        # loops turn into a ParseError at the operator.
        with np.errstate(over="raise", invalid="raise"):
            value = self.expression()
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"unexpected {tok!r} after expression", self.pos)
        return value

    def expression(self):
        value = self.product()
        while self.tokens[self.pos] in ("+", "-"):
            at = self.pos
            self.pos += 1
            rhs = self.product()
            try:
                value = self._add(value, rhs, at)
            except FloatingPointError:
                raise self.error("value out of floating-point range", at) from None
        return value

    def product(self):
        value = self.unary()
        while True:
            at = self.pos
            tok = self.tokens[at]
            if tok in ("*", "/"):
                self.pos += 1
            elif tok[:1] not in _IMPLICIT:
                return value
            rhs = self.unary()
            try:
                value = self._combine(value, rhs, at)
            except FloatingPointError:
                raise self.error("value out of floating-point range", at) from None

    def unary(self):
        flip = False
        tok = self.tokens[self.pos]
        while tok in ("-", "+"):
            flip ^= tok == "-"
            self.pos += 1
            tok = self.tokens[self.pos]
        # Every nesting level, whether (...), sqrt(...) or a radical, passes
        # through here once.
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.pos)
        # Kets, numbers and "i" are read here; atom reads the rest.
        value = _KETS.get(tok)
        if value is not None:
            self.pos += 1
        elif tok == "i":
            self.pos += 1
            value = 1j
        elif tok[:1].isdecimal():
            value = float(tok)
            if not cmath.isfinite(value):
                raise self.error(f"number {tok} is out of range", self.pos)
            self.pos += 1
            value = complex(value)
        else:
            self.depth += 1
            value = self.atom()
            self.depth -= 1
        return -value if flip else value

    def atom(self):
        at, tok = self.pos, self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            value = self.expression()
            self.expect(")", "')'")
            return value
        if tok == "sqrt":
            self.expect("(", "'(' after sqrt")
            inner = self.expression()
            self.expect(")", "')'")
            return self._sqrt(inner, at)
        if tok == "√":
            if self.tokens[self.pos] == "(":
                self.pos += 1
                inner = self.expression()
                self.expect(")", "')'")
            else:
                inner = self.unary()
            return self._sqrt(inner, at)
        if not tok:
            raise self.error("unexpected end of input", at)
        if tok[0] in _IMPLICIT:  # a name: kets, "(" and "√" are handled above
            raise self.error(f"unknown name {tok!r}", at)
        raise self.error(f"unexpected {tok!r}", at)

    def _sqrt(self, z, at):
        if isinstance(z, np.ndarray):
            raise self.error("sqrt of a ket expression", at)
        if z.imag != 0.0 or z.real < 0.0:
            raise self.error("sqrt argument must be a nonnegative real", at)
        return complex(np.sqrt(z.real))

    def _add(self, lhs, rhs, at):
        ket = isinstance(lhs, np.ndarray)
        if ket != isinstance(rhs, np.ndarray):
            raise self.error("cannot add a scalar and a ket expression", at)
        if ket and len(lhs) != len(rhs):
            raise self.error(
                f"mixed ket lengths ({len(lhs).bit_length() - 1} and "
                f"{len(rhs).bit_length() - 1} bits)",
                at,
            )
        total = lhs - rhs if self.tokens[at] == "-" else lhs + rhs
        return total if ket else _finite(total)

    def _combine(self, lhs, rhs, at):
        # Scalars stay Python complex and multiply a ket from the left: numpy's
        # complex loops may round differently from Python's, so operand types
        # and order fix the bits of every result.
        lket, rket = isinstance(lhs, np.ndarray), isinstance(rhs, np.ndarray)
        if self.tokens[at] == "/":
            if rket:
                raise self.error("cannot divide by a ket expression", at)
            if rhs == 0:
                raise self.error("division by zero", at)
            return lhs / rhs if lket else _finite(lhs / rhs)
        if lket and rket:
            raise self.error("cannot multiply two ket expressions", at)
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
    if not amps.flags.writeable:  # one bare ket: a shared row of _KETS
        amps = amps.copy()
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
