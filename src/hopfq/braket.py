"""Bra-ket text format: parse expressions like "(|00> + |11>)/sqrt(2)".

The accepted language is a small arithmetic expression grammar over two value
kinds, scalars and ket vectors:

    expression := product { ("+" | "-") product }
    product    := operand { ("*" | "/") operand | operand-juxtaposed }
    operand    := { "+" | "-" } ( number | "i" | "|" bits ">" | "(" expression ")"
                | "sqrt" "(" expression ")" | "√" ( "(" expression ")" | operand ) )

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
import math
import re

from .cdnum import _divided, _is_int, np
from .states import MAX_QUBITS, _make_state

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

# First characters of the tokens that may start an operand and bind to the
# previous operand by juxtaposition: kets, names, "(" and the radical.  Numbers
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


# A ket sum is a tuple (bits, terms, rest, nonzero): terms maps some indices
# to their complex amplitudes, every other index holds rest, a signed zero,
# and nonzero is true when no real or imaginary part in terms is zero.  Each
# operation applies to rest too, so a ket sum has the bits of its dense
# vector, as numpy's baseline loops compute it: one rounding per Python
# float operation.  Each operation checks the values it makes: its operands
# are finite, so only an overflow makes one infinite or nan.


def _ket(bits, terms, rest):
    if not cmath.isfinite(rest):
        raise FloatingPointError
    nonzero = True
    for z in terms.values():
        if not cmath.isfinite(z):
            raise FloatingPointError
        if not (z.real and z.imag):
            nonzero = False
    return bits, terms, rest, nonzero


def _times(scalar, ket):
    """scalar * ket, each product (sr*zr - si*zi, sr*zi + si*zr)."""
    bits, terms, rest, _ = ket
    sr, si = scalar.real, scalar.imag

    def times(z):
        return complex(sr * z.real - si * z.imag, sr * z.imag + si * z.real)

    return _ket(bits, {k: times(z) for k, z in terms.items()}, times(rest))


def _over(ket, scalar):
    """ket / scalar, through cdnum._divided."""
    bits, terms, rest, _ = ket
    values = [*terms.values(), rest]
    parts = _divided([x for z in values for x in (z.real, z.imag)], scalar.real, scalar.imag)
    *quotients, rest = map(complex, parts[0::2], parts[1::2])
    return _ket(bits, dict(zip(terms, quotients)), rest)


def _negated(ket):
    bits, terms, rest, _ = ket
    return _ket(bits, {k: -z for k, z in terms.items()}, -rest)


def _plus(lhs, rhs):
    """lhs + rhs.  Adding a signed zero changes only a zero part, so when
    lhs has none its terms off rhs's indices stay as they are."""
    bits, terms, rest, nonzero = lhs
    _, added, zero, _ = rhs
    out = dict(terms) if nonzero else {k: z + zero for k, z in terms.items()}
    for k, w in added.items():
        out[k] = z = terms.get(k, rest) + w
        if not cmath.isfinite(z):
            raise FloatingPointError
        nonzero = nonzero and z.real and z.imag
    return bits, out, rest + zero, bool(nonzero)


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
            value = self.apply(value, self.product(), at)
        return value

    def product(self):
        value = self.operand()
        while True:
            at = self.pos
            tok = self.tokens[at]
            if tok in ("*", "/"):
                self.pos += 1
            elif tok[:1] not in _IMPLICIT:
                return value
            value = self.apply(value, self.operand(), at)

    def operand(self):
        at, tok = self.pos, self.tokens[self.pos]
        flip = False
        while tok in ("-", "+"):
            flip ^= tok == "-"
            at += 1
            tok = self.tokens[at]
        # Every nesting level, whether (...), sqrt(...) or a radical, passes
        # through here once.
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", at)
        self.pos = at + 1
        if tok == "i":
            value = 1j
        elif tok[:1] == "|":  # a closed ket: a malformed one fails in _tokenize
            value = (len(tok) - 2, {int(tok[1:-1], 2): 1 + 0j}, 0j, False)
        elif tok[:1].isdecimal():
            value = complex(tok)
            if not cmath.isfinite(value):
                raise self.error(f"number {tok} is out of range", at)
        elif tok in ("(", "sqrt", "√"):
            self.depth += 1
            if tok == "√" and self.tokens[self.pos] != "(":
                value = self.operand()
            else:
                if tok != "(":
                    self.expect("(", "'(' after sqrt")
                value = self.expression()
                self.expect(")", "')'")
            self.depth -= 1
            if tok != "(":
                if type(value) is tuple:
                    raise self.error("sqrt of a ket expression", at)
                if value.imag != 0.0 or value.real < 0.0:
                    raise self.error("sqrt argument must be a nonnegative real", at)
                value = complex(math.sqrt(value.real))
        elif not tok:
            raise self.error("unexpected end of input", at)
        elif tok[0] in _IMPLICIT:  # a name: kets, i, "(" and "√" are handled above
            raise self.error(f"unknown name {tok!r}", at)
        else:
            raise self.error(f"unexpected {tok!r}", at)
        if not flip:
            return value
        return _negated(value) if type(value) is tuple else -value

    def apply(self, lhs, rhs, at):
        """lhs op rhs for the operator token at `at`; any other token there
        starts a juxtaposed factor and multiplies."""
        # Scalars stay Python complex; a ket's entries are multiplied and
        # divided in Python floats, as numpy's baseline loops do it.
        op = self.tokens[at]
        lket, rket = type(lhs) is tuple, type(rhs) is tuple
        try:
            if op in ("+", "-"):
                if lket != rket:
                    raise self.error("cannot add a scalar and a ket expression", at)
                if not lket:
                    value = lhs + rhs if op == "+" else lhs - rhs
                elif lhs[0] != rhs[0]:
                    raise self.error(f"mixed ket lengths ({lhs[0]} and {rhs[0]} bits)", at)
                else:  # a - b is a + (-b), bit for bit
                    value = _plus(lhs, rhs if op == "+" else _negated(rhs))
            elif op == "/":
                if rket:
                    raise self.error("cannot divide by a ket expression", at)
                if rhs == 0:
                    raise self.error("division by zero", at)
                value = _over(lhs, rhs) if lket else lhs / rhs
            elif lket and rket:
                raise self.error("cannot multiply two ket expressions", at)
            elif lket or rket:
                value = _times(rhs, lhs) if lket else _times(lhs, rhs)
            else:
                value = lhs * rhs
            # Python complex arithmetic overflows to inf (or nan) silently; the
            # ket operations check their own values.
            if not (lket or rket or cmath.isfinite(value)):
                raise FloatingPointError
        except FloatingPointError:
            raise self.error("value out of floating-point range", at) from None
        return value


def _parse_parts(text):
    """The qubit count and the amplitudes, as a tuple of (re, im) parts, of
    bra-ket text; every part is finite."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 1, 1)
    value = _Parser(text).parse()
    if type(value) is not tuple:
        raise ParseError("expression contains no ket terms", 1, 1)
    bits, terms, rest, _ = value
    values = [terms.get(k, rest) for k in range(1 << bits)]
    return bits, tuple(x for z in values for x in (z.real, z.imag))


def parse_amplitudes(text):
    """Parse to a raw (qubit_count, amplitude_vector) pair, unvalidated."""
    n, parts = _parse_parts(text)
    return n, np.array(parts).view(np.complex128)


def parse_state(text, normalize=False):
    """Parse bra-ket text into a validated QubitState.

    Without ``normalize`` the amplitudes must already be unit-norm (within the
    make_state input tolerance) and are kept verbatim.
    """
    return _make_state(*_parse_parts(text), normalize)


def _format_real(v, digits):
    return format(v, f".{digits}g")


def _format_coeff(re_, im, digits):
    """Render one coefficient; complex values are parenthesized so the output
    re-parses as (scalar)|bits>.  Returns (text, sign) with sign pulled out
    for pure-real/pure-imaginary values to keep "a - b|01>" joins natural."""
    if im == 0.0:
        return _format_real(abs(re_), digits), -1.0 if re_ < 0 else 1.0
    if re_ == 0.0:
        return _format_real(abs(im), digits) + "i", -1.0 if im < 0 else 1.0
    im_part = f"{'-' if im < 0 else '+'}{_format_real(abs(im), digits)}i"
    return f"({_format_real(re_, digits)}{im_part})", 1.0


def format_state(state, digits=17):
    """Render a state as a sum of coefficient|bits> terms with ``digits``
    significant digits (17 round-trip double precision exactly, but for the
    sign of a zero real or imaginary part beside a nonzero one: no term is
    written for it, so it parses back as +0.0).  ``digits`` is an int from
    1 to 17, not a bool; anything else raises ValueError."""
    if not (_is_int(digits) and 1 <= digits <= 17):
        raise ValueError(f"digits must be an integer in 1..17, got {digits!r}")
    n, amps = state.n, state._parts
    parts = []
    for k, (re_, im) in enumerate(zip(amps[0::2], amps[1::2])):
        if re_ == 0.0 and im == 0.0:
            continue
        coeff, sign = _format_coeff(re_, im, digits)
        bits = format(k, f"0{n}b")
        if not parts:
            prefix = "-" if sign < 0 else ""
        else:
            prefix = " - " if sign < 0 else " + "
        parts.append(f"{prefix}{coeff}|{bits}>")
    return "".join(parts)
