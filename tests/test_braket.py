import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq.braket import MAX_NESTING, ParseError, format_state, parse_amplitudes, parse_state
from hopfq.reporting import PUBLISHED_STATES
from hopfq.states import (
    NormalizationError,
    bell_state,
    ghz_state,
    make_state,
    random_state,
    w_state,
)

R2 = 1 / math.sqrt(2)


def test_single_ket():
    n, amps = parse_amplitudes("|01>")
    assert n == 2
    assert np.array_equal(amps, [0, 1, 0, 0])


def test_ket_lengths():
    for bits, idx in (("0", 0), ("10", 2), ("110", 6), ("1011", 11)):
        n, amps = parse_amplitudes(f"|{bits}>")
        assert n == len(bits)
        assert amps[idx] == 1.0 and np.sum(np.abs(amps)) == 1.0


def test_sum_and_difference():
    n, amps = parse_amplitudes("|00> + |11> - |01>")
    assert np.array_equal(amps, [1, -1, 0, 1])


def test_scalar_prefixes():
    n, amps = parse_amplitudes("2|0> + 0.5|1>")
    assert np.array_equal(amps, [2.0, 0.5])
    n, amps = parse_amplitudes("3e-1|0> + 1E+1|1>")
    assert np.array_equal(amps, [0.3, 10.0])


def test_imaginary_unit():
    n, amps = parse_amplitudes("i|0> - 2i|1>")
    assert np.array_equal(amps, [1j, -2j])
    n, amps = parse_amplitudes("(1+2i)|0> + (3-4i)|1>")
    assert np.array_equal(amps, [1 + 2j, 3 - 4j])


def test_division_and_sqrt():
    n, amps = parse_amplitudes("(|00> + |11>)/sqrt(2)")
    assert np.max(np.abs(amps - np.array([R2, 0, 0, R2]))) == 0.0
    n, amps = parse_amplitudes("1/sqrt(3)*(|001> + |010> + |100>)")
    r3 = 1 / math.sqrt(3)
    assert np.max(np.abs(amps - np.array([0, r3, r3, 0, r3, 0, 0, 0]))) < 1e-16


def test_unicode_aliases():
    a = parse_amplitudes("(|00⟩ + |11⟩)/√2")[1]
    b = parse_amplitudes("(|00> + |11>)/sqrt(2)")[1]
    assert np.array_equal(a, b)
    # the radical also accepts a parenthesized argument
    c = parse_amplitudes("(|00> + |11>)/√(2)")[1]
    assert np.array_equal(a, c)


def test_implicit_multiplication():
    a = parse_amplitudes("2|01>")[1]
    b = parse_amplitudes("2*|01>")[1]
    assert np.array_equal(a, b)
    c = parse_amplitudes("sqrt(2)(|00>)")[1]
    d = parse_amplitudes("sqrt(2)*|00>")[1]
    assert np.array_equal(c, d)


def test_nested_parentheses():
    n, amps = parse_amplitudes("((1/2)*(|00> + |01> + |10> + |11>))")
    assert np.array_equal(amps, [0.5, 0.5, 0.5, 0.5])


def test_deep_nesting_is_a_parse_error():
    # 2000 levels would overflow the recursive-descent stack; the cap turns
    # that into a positioned error, for parentheses, sqrt() and radicals alike
    for text in (
        "(" * 2000 + "|0>" + ")" * 2000,
        "sqrt(" * 2000 + "1" + ")" * 2000 + "|0>",
        "\u221a" * 2000 + "2|0>",
    ):
        with pytest.raises(ParseError) as exc:
            parse_amplitudes(text)
        assert exc.value.line == 1 and exc.value.col > 1
    depth = MAX_NESTING - 1
    _, amps = parse_amplitudes("(" * depth + "|1>" + ")" * depth)
    assert np.array_equal(amps, [0, 1])


@pytest.mark.parametrize("text, bits", [
    ("|01>", "00000000"),
    ("(|01>)", "00000000"),
    ("-|01>", "11111111"),
    ("-(|0>+|1>)/sqrt(2)", "1010"),
    ("|0>-|1>", "0010"),
    ("i|1>", "0000"),
    ("1/2*(|10>+|01>)", "00000000"),
])
def test_ket_sign_bits(text, bits):
    # The sign bit of every real and imaginary part, zeros included: kets
    # that share rows must give the bits of one fresh basis vector per term.
    _, amps = parse_amplitudes(text)
    assert "".join(str(int(b)) for b in np.signbit(amps.view(np.float64))) == bits


@pytest.mark.parametrize("text", ["|01>", "(|01>)", "+|1⟩", "-|01>", "i|1>", "|0>-|1>"])
def test_parsed_amplitudes_are_writable_and_unshared(text):
    _, first = parse_amplitudes(text)
    expected = first.copy()
    assert first.flags.writeable
    first[:] = 7.0
    _, again = parse_amplitudes(text)
    assert again.flags.writeable and again is not first
    assert again.tobytes() == expected.tobytes()


def test_leading_sign():
    n, amps = parse_amplitudes("-|1> + |0>")
    assert np.array_equal(amps, [1, -1])
    n, amps = parse_amplitudes("+|1>")
    assert np.array_equal(amps, [0, 1])
    n, amps = parse_amplitudes("-0.5|1> - -0.5|0>")
    assert np.array_equal(amps, [0.5, -0.5])


def test_scalar_grammar_soundness():
    # "sqrt(2)/2" and "1/sqrt(2)" are the same real number; as doubles they
    # may differ by at most one representable step
    a = parse_amplitudes("sqrt(2)/2*|0> + |1>")[1][0]
    b = parse_amplitudes("1/sqrt(2)*|0> + |1>")[1][0]
    assert abs(a - b) <= math.ulp(max(abs(a), abs(b)))


def test_parse_state_normalization():
    s = parse_state("(|00> + |11>)/sqrt(2)")
    assert np.array_equal(s.amps, bell_state().amps)
    with pytest.raises(NormalizationError):
        parse_state("|00> + |11>")
    s = parse_state("|00> + |11>", normalize=True)
    assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-12


def _err(text):
    with pytest.raises(ParseError) as info:
        parse_amplitudes(text)
    return info.value


def test_error_positions():
    err = _err("|00> + |11")
    assert err.line == 1 and err.col == 8
    err = _err("|00> +\n+ |2>")
    assert err.line == 2
    err = _err("")
    assert err.line == 1 and err.col == 1
    # "\r" is a blank inside its line, a tab one column; only "\n" breaks lines
    cases = {
        "|0>\r\n+ @": (2, 3),                  # CRLF, error on line 2
        "|00>\r\n\t+ |11\r\n": (2, 4),          # unclosed ket, CRLF after it
        "|0> +\n\n": (3, 1),                   # end of input after newlines
        "(|0>\r\n  ": (2, 3),                  # ... after trailing blanks
        "|0>\t@": (1, 5),                      # tab before a bad character
        "|0>\n+ |01": (2, 3),                  # ket error after a newline
        "|0> +\n |00000>": (2, 2),             # too many bits after a newline
        b"|0>": (1, 1),                        # not a string
    }
    for text, position in cases.items():
        err = _err(text)
        assert (err.line, err.col) == position, text


def test_error_messages():
    assert "ket" in str(_err("1 + 2"))              # no ket terms at all
    assert "bit" in str(_err("|>")).lower()
    _err("|01210>")                                  # non-binary digits
    assert "1..4" in str(_err("|00000>"))            # too many qubits
    _err("|00> + |000>")                             # mixed ket sizes
    _err("|00> * |00>")                              # ket times ket
    _err("|00> / |00>")                              # divide by ket
    _err("1/0 * |0>")                                # divide by zero
    _err("sqrt(-1)|0>")                              # radical of negative
    _err("sqrt(i)|0>")                               # radical of non-real
    _err("2 + |0>")                                  # scalar plus ket
    _err("(|00> + |11>")                             # unclosed paren
    _err("|00> @ |11>")                              # stray character
    _err("3.2.1|0>")                                 # malformed number
    _err("foo|0>")                                   # unknown name


def test_oversized_ket_never_allocates():
    # lexer rejects long bitstrings before any 2**k array could be built
    err = _err("|" + "0" * 64 + ">")
    assert "1..4" in str(err)


def test_format_simple():
    # coefficients are always explicit, so output re-parses unambiguously
    assert format_state(parse_state("|01>")) == "1|01>"
    s = parse_state("(|00> + |11>)/sqrt(2)")
    text = format_state(s, digits=3)
    assert text == "0.707|00> + 0.707|11>"


def test_format_checks_digits():
    # "2" once printed two digits through the format spec, and True or -1
    # failed inside it.
    for digits in ("2", True, 2.0, -1, 0, 18):
        with pytest.raises(ValueError, match="digits must be an integer in 1..17"):
            format_state(bell_state(), digits)
    assert format_state(bell_state(), np.int64(2)) == "0.71|00> + 0.71|11>"


def test_format_signs_and_zeros():
    s = make_state(2, np.array([0.5, -0.5, 0.0, 0.5 + 0.5j]), normalize=True)
    text = format_state(s, digits=3)
    assert "|10>" not in text          # exact zeros are skipped
    assert " - " in text               # negative real joins with a minus
    assert "(" in text and "i" in text # complex amplitude is parenthesized
    s2 = make_state(1, np.array([0.0, -1.0]))
    assert format_state(s2, digits=3).startswith("-")


def test_format_parse_round_trip_bit_exact():
    # default 17 digits reproduces every double exactly
    cases = [
        bell_state(),
        ghz_state(3),
        ghz_state(4),
        w_state(3),
        w_state(4),
    ]
    for n in (1, 2, 3, 4):
        for k in range(10):
            cases.append(random_state(n, seed=900 + n, index=k))
    for s in cases:
        back = parse_state(format_state(s), normalize=False)
        assert back.n == s.n
        assert np.array_equal(back.amps, s.amps)


def test_format_parse_round_trip_15_digits():
    for n in (2, 3, 4):
        s = random_state(n, seed=901, index=n)
        back = parse_state(format_state(s, digits=15), normalize=False)
        assert np.max(np.abs(back.amps - s.amps)) < 1e-12


def test_out_of_range_values_are_parse_errors():
    # (text, column of the token where the value leaves the float range)
    cases = [
        ("1e308*10|0>", 6),
        ("1e400|0>", 1),
        ("|0> + √1e999|1>", 8),
        ("(1e300|0>)*1e300", 11),
        ("|0>/1e-320", 4),
        ("1e308|0>+1e308|0>", 9),
        ("1e200*1e200*0|0> + |1>", 6),
        ("|0>*(1e300*1e300*i)", 11),
        # The quotient's denominator 1e308 + 1e308 overflows; its reciprocal
        # is 0, so only a check of the denominator sees it.
        ("|0>/(1e308+1e308i)", 4),
    ]
    for text, col in cases:
        with pytest.raises(ParseError) as err:
            parse_amplitudes(text)
        assert (err.value.line, err.value.col) == (1, col), text
    # tiny values stay in range and rescale
    s = parse_state("1e-320|0> + 1e-320|1>", normalize=True)
    assert np.max(np.abs(s.amps - R2)) < 1e-15


def test_fuzz_never_crashes():
    # parser must be total: random byte soup either parses or raises ParseError
    rng = np.random.default_rng(2024)
    alphabet = "01|<>()+-*/sqrti. e⟩√\n\t2479,"
    chars = np.array(list(alphabet))
    picks = rng.integers(0, len(chars), size=(5000, 24))
    lengths = rng.integers(0, 24, size=5000)
    for row, ln in zip(picks, lengths):
        text = "".join(chars[row[:ln]])
        try:
            parse_amplitudes(text)
        except ParseError:
            pass


# Inputs whose outcome is pinned: the published states, hand-written edge
# cases and seeded stdlib-random texts (no numpy RNG, so the corpus is the same
# on every machine).
_EDGE_CASES = (
    "(1+2i)/(3-4i)|0>",
    "|0>/(3-4i) + |1>/(1e-300+1e-300i)",
    "(2i)/(1+i)|1> - (0.1-0.7i)/(0.3+0.9i)|0>",
    "(1e300+1e300i)/(1e-10-1e-10i)|0>",
    "|1>*(1e-200+1e-200i)/(1e200+3e199i)",
    "√2|0> + √(2)|1> + sqrt(2)|0>",
    "√√16|0> - √-1|1>",
    "sqrt 2|0>",
    "sqrt(0)|0> + |1>",
    "sqrt(1e308*10)|0>",
    "√(i)|0>",
    "|00>\n+ |11>",
    "(|0>\r\n+\t|1>)\n/ sqrt(2)",
    "\n\n  |0> ? |1>",
    "|0>\n\n   |",
    "|0>\n  + |1\n",
    "|0⟩ + |1⟩ - |0>",
    "٣|0> + ١.٥e٢|1>",
    "1e|0>",
    "2 3|0>",
    "i i|0>",
    "|0>|1>",
    ".5|0>",
    "1.e5|0> + 0.|1>",
    "---+-|0>",
    "-(-(-|01>))",
    "(" * MAX_NESTING + "|0>" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING - 1) + "|0>" + ")" * (MAX_NESTING - 1),
    "|" + "1" * 64,
    "|" + "1" * 5,
    "|11111>",
    "|>",
    "|",
    "|2>",
    "|0)",
    "",
    "   ",
    "\n",
    "1",
    "()",
    "sqrt",
    "sqrt(|0>)",
    "foo|0>",
    "I|0>",
    "_|0>",
    "|0> @ |1>",
    "|0> + |00>",
    "|0> / 0",
    "|0> / (1 - 1)",
    "|0> / (0i)",
    "2 + |0>",
    "|0> + 2",
)
_EDGE_CASES += tuple(text for _, text in PUBLISHED_STATES)
_FUZZ_ALPHABET = "01|<>()+-*/sqrti. eE⟩√\n\t\r2479,_x٣"
_SCALARS = ("i", "2", "0.5", "3e-1", "1E+1", "1e308", "1e-320", "0", "7.",
            "sqrt(2)", "√3", "√(0.5)", "(1+2i)", "(3-4i)", "(1e-300-2e-300i)")


def _random_expression(rng, n, depth=0):
    # A random expression over every operator, mostly n-bit kets and scalars.
    if depth == 3 or rng.random() < 0.35:
        if rng.random() < 0.5:
            bits = rng.choice((n, n, n, n, n + 1))
            return "|" + "".join(rng.choice("01") for _ in range(bits)) + rng.choice(">>⟩")
        return rng.choice(_SCALARS)
    lhs = _random_expression(rng, n, depth + 1)
    rhs = _random_expression(rng, n, depth + 1)
    op = rng.choice(("+", "-", "*", "/", "", " "))
    gap = rng.choice(("", "", " ", "\n", "\t"))
    text = f"{lhs}{gap}{op}{gap}{rhs}"
    return f"({text})" if rng.random() < 0.4 else text


def _random_format_text(rng):
    # Text in format_state's shape: coefficients at 3..17 digits, random scales.
    n, digits = rng.randint(1, 4), rng.randint(3, 17)

    def part():
        v = rng.choice((0.0, rng.gauss(0.0, 1.0), rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-330, 308)))
        return format(v, f".{digits}g")

    terms = []
    for k in rng.sample(range(1 << n), rng.randint(1, 1 << n)):
        coeff = rng.choice((part(), part() + "i", f"({part()}+{part()}i)", f"({part()}-{part()}i)"))
        terms.append(f"{coeff}|{k:0{n}b}>")
    return rng.choice((" + ", " - ")).join(terms).replace("+-", "-").replace("--", "+")


def _outcome_corpus():
    rng = random.Random(1729)
    texts = list(_EDGE_CASES)
    texts += [_random_format_text(rng) for _ in range(1200)]
    texts += [_random_expression(rng, rng.randint(1, 4)) for _ in range(1200)]
    texts += ["".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randrange(30)))
              for _ in range(3000)]
    return texts


def _outcome(text):
    try:
        n, _ = parse_amplitudes(text)
    except ParseError as exc:
        return ("err", str(exc), exc.line, exc.col)
    return ("ok", n)


def test_outcome_digest_is_pinned():
    # Every success's qubit count and every error's message and position;
    # the next test pins the successes' amplitude bytes.
    outcomes = [_outcome(text) for text in _outcome_corpus()]
    assert len(outcomes) == 5400 + len(_EDGE_CASES)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "2782772fbcadf9f06c243c70a8724b9be3d833cbba595a56e76291d9673f11bf"


def test_parsed_amplitude_bytes_are_pinned():
    # The amplitude bytes of every success of the corpus, in order.  The
    # parser multiplies and divides a ket's entries in Python floats, one
    # rounding per operation, so its bits follow no CPU.  Pinned with the
    # numpy kets it replaced, under numpy's baseline loops.
    digest = hashlib.sha256()
    successes = 0
    for text in _outcome_corpus():
        try:
            amps = parse_amplitudes(text)[1]
        except ParseError:
            continue
        successes += 1
        digest.update(amps.tobytes())
    assert successes == 1504
    assert digest.hexdigest() == "caf46f5123c8cc0ed163c5ea29f6fb1ee77598c00a088e38ee59c4d138571a36"


def test_a_zero_part_sign_does_not_round_trip():
    # The one exception to bit-exact round trips: the grammar has no short
    # spelling of a signed zero beside a nonzero part, so format_state writes
    # none, and the part parses back as +0.0.  Pinned so that a fix shows.
    s = make_state(1, [complex(-0.0, 0.6), complex(0.8, -0.0)])
    text = format_state(s)
    assert text == "0.59999999999999998i|0> + 0.80000000000000004|1>"
    assert parse_state(text).amps.tobytes() == np.array([0.0, 0.6, 0.8, 0.0]).tobytes()
    assert np.array_equal(parse_state(text).amps, s.amps)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (1e300, -1e300, 1e-300, -1e-300)
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_format_parse_round_trip_any_finite_state(n, data):
    # Unit states from arbitrary finite parts: subnormals, the largest
    # doubles and 1e+-300 ratios between amplitudes included.
    parts = data.draw(st.lists(_FINITE, min_size=2 << n, max_size=2 << n))
    assume(any(parts))
    s = make_state(n, np.array(parts).view(np.complex128), normalize=True)
    back = parse_state(format_state(s))
    assert back.n == s.n
    assert np.array_equal(back.amps, s.amps)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(_FUZZ_ALPHABET) | st.characters()))
def test_parser_is_total(text):
    # Any text either parses or raises ParseError, never another exception.
    try:
        parse_amplitudes(text)
    except ParseError:
        pass
