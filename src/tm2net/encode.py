"""Exact Godel encoding of configurations onto the unit square.

The two halves of a configuration become radix fractions: the right half
``beta`` is read as base-``n_symbols`` digits, the left half ``alpha`` as
one base-``n_states`` digit (the state) followed by base-``n_symbols``
digits.  Because the blank enumerates to 0, every finitely inhabited tape
encodes to a terminating expansion, and everything stays an exact
``Fraction``: decoding is the literal inverse and round trips are equality,
not approximation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .gshift import window
from .machine import Config, TuringMachine

Rational = Fraction

_RAT = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")  # a nonzero denominator


class EncodingError(ValueError):
    """Base class for encode/decode errors."""


class DigitRangeError(EncodingError):
    """A digit or value outside the valid radix range."""


class NonTerminatingExpansionError(EncodingError):
    """A value whose radix expansion does not terminate."""


class Point(NamedTuple):
    """A configuration encoded as a point of the unit square."""

    x: Fraction
    y: Fraction


def rat_str(value) -> str:
    """Serialize exactly as ``num/den`` (the only wire format for rationals)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(text: str) -> Fraction:
    """Parse exactly the ``num/den`` form ``rat_str`` writes.

    Other ``Fraction`` string forms are rejected: an exponent such as
    ``1e4000000`` builds a 13-million-bit integer from nine characters.
    """
    match = _RAT.fullmatch(text)
    if match is None:
        raise EncodingError(f"not a rational num/den: {text!r}")
    return Fraction(int(match[1]), int(match[2]))


def godel_value(digits: Iterable[int], base: int) -> Fraction:
    """Radix fraction of a digit sequence, most significant first."""
    n = k = 0
    for d in digits:
        if not 0 <= d < base:
            raise DigitRangeError(f"digit {d} out of range for base {base}")
        n, k = n * base + d, k + 1  # Horner's rule: one Fraction, not one per digit
    return Fraction(n, base ** k)


def _digits(value: Fraction, base: int) -> list[int]:
    """Digit extraction, most significant first; inverse of ``godel_value`` on [0, 1).

    A reduced p/d terminates in base b exactly when dividing d by gcd(d, b)
    repeatedly reaches 1, and the number of divisions is its digit count
    (at most d.bit_length()), so termination is decided before any digit is
    extracted.
    """
    if not 0 <= value < 1:
        raise DigitRangeError(f"value {value} outside [0, 1)")
    d, k = value.denominator, 0
    while d > 1:
        g = gcd(d, base)
        if g == 1:
            raise NonTerminatingExpansionError(f"no terminating base-{base} expansion")
        d, k = d // g, k + 1
    n = value.numerator * base ** k // value.denominator
    digits = [0] * k
    for pos in reversed(range(k)):
        n, digits[pos] = divmod(n, base)
    return digits


def encode_left(m: TuringMachine, alpha: Iterable[str]) -> Fraction:
    """Godel value of the reversed left half (state digit, then tape digits)."""
    alpha = tuple(alpha)
    tail = godel_value([m.symbol_index(s) for s in alpha[1:]], m.n_symbols)
    return (m.state_index(alpha[0]) + tail) / m.n_states


def encode_right(m: TuringMachine, beta: Iterable[str]) -> Fraction:
    """Godel value of the right half (tape digits only)."""
    return godel_value([m.symbol_index(s) for s in beta], m.n_symbols)


def encode_config(m: TuringMachine, c: Config) -> Point:
    return Point(encode_left(m, c.alpha), encode_right(m, c.beta))


def decode_left(m: TuringMachine, x: Fraction) -> tuple[str, ...]:
    """Recover the canonical left half from its Godel value."""
    if not 0 <= x < 1:
        raise DigitRangeError(f"value {x} outside [0, 1)")
    scaled = x * m.n_states
    qi = int(scaled)
    tail = _digits(scaled - qi, m.n_symbols)
    return (m.states[qi],) + tuple(m.tape_symbols[d] for d in tail)


def decode_right(m: TuringMachine, y: Fraction) -> tuple[str, ...]:
    """Recover the canonical right half from its Godel value."""
    return tuple(m.tape_symbols[d] for d in _digits(y, m.n_symbols))


def decode_point(m: TuringMachine, pt: Point) -> Config:
    return Config(decode_left(m, pt.x), decode_right(m, pt.y))


# Each map builds its result from integers, so it is reduced once.

def affine_substitute(v: Fraction, position: int, old_digit: int,
                      new_digit: int, base: int) -> Fraction:
    """Godel value after replacing the digit at ``position`` (1-based)."""
    scale = base ** position
    return Fraction(v.numerator * scale + (new_digit - old_digit) * v.denominator,
                    v.denominator * scale)


def affine_shift_left(v: Fraction, first_digit: int, base: int) -> Fraction:
    """Godel value after dropping the leading digit (which must be given)."""
    return Fraction(v.numerator * base - first_digit * v.denominator, v.denominator)


def affine_shift_right(v: Fraction, new_digit: int, base: int) -> Fraction:
    """Godel value after prepending a digit."""
    return Fraction(v.numerator + new_digit * v.denominator, v.denominator * base)


def successor_point(m: TuringMachine, c: Config, pt: Point) -> Point:
    """The point of ``c``'s successor, from ``pt``, the point of ``c``, by the
    elementary digit maps along ``c``'s transition: no digit loop.  ``c``
    must not halt."""
    left, q, read = window(m, c)
    q2, b, move = m.delta[(q, read)]
    nq, ns = m.n_states, m.n_symbols
    gq, gs = m.state_index, m.symbol_index
    x = affine_shift_left(pt.x, gq(q), nq)  # drop the state digit
    if move == "R":
        x = affine_shift_right(x, gs(b), ns)  # push the written symbol
        y = affine_shift_left(pt.y, gs(read), ns)  # consume the read symbol
    else:
        x = affine_shift_left(x, gs(left), ns)  # drop the left neighbour
        y = affine_substitute(pt.y, 1, gs(read), gs(b), ns)  # overwrite under the head
        y = affine_shift_right(y, gs(left), ns)  # the left neighbour slides right
    return Point(affine_shift_right(x, gq(q2), nq), y)  # push the new state
