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
import sys
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Iterable, NamedTuple

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
    """Serialize a Fraction or an int exactly as ``num/den`` (the only wire
    format for rationals), at any size: the int-to-str digit limit
    (``sys.get_int_max_str_digits``) bounds what ``parse_rat`` reads, not
    what a report writes, so it is lifted for this conversion alone."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # more digits than the limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return f"{value.numerator}/{value.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)


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


def _free(d: int, ns: int) -> int:
    """``d`` without the prime factors it shares with ``ns``."""
    return d // gcd(d, ns ** d.bit_length())


def _scaled(p: int, d: int, c: int, ns: int) -> tuple[int, int] | None:
    """(N, k) with p/d = N/(c*ns**k) and k minimal, for a reduced p/d, in
    O(log k) big-int operations; None when d divides no c*ns**k."""
    k = d.bit_length()  # enough: ns**k holds every power of ns's primes in d
    scale, r = divmod(c * ns ** k, d)
    n, powers = p * scale, [ns]
    if r or not n:
        return None if r else (0, 0)
    while 1 << len(powers) <= k:  # ns**(2**i): drop trailing zeros 2**i at a time
        powers.append(powers[-1] ** 2)
    for i in reversed(range(len(powers))):
        if k >> i and not n % powers[i]:
            n, k = n // powers[i], k - (1 << i)
    return n, k


def _digits(value: Fraction, base: int) -> list[int]:
    """Digit extraction, most significant first; inverse of ``godel_value`` on [0, 1).

    The value is N/base**k with k minimal (``_scaled``, the branch table's
    radix rule), or has no terminating expansion, so termination and the
    digit count follow from the denominator before any digit is extracted.
    """
    if not 0 <= value < 1:
        raise DigitRangeError(f"value {value} outside [0, 1)")
    scaled = _scaled(value.numerator, value.denominator, 1, base)
    if scaled is None:
        raise NonTerminatingExpansionError(f"no terminating base-{base} expansion")
    n, k = scaled
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


def config_digits(m: TuringMachine, c: Config) -> tuple[int, int, int, int, int]:
    """A canonical ``c``'s point on integers, (q, X, k_x, Y, k_y) with
    x = (q + X/n_s**k_x)/n_q and y = Y/n_s**k_y: no trailing zero digit."""
    x, y = (reduce(lambda n, s: n * m.n_symbols + m.symbol_index(s), half, 0)
            for half in (c.alpha[1:], c.beta))
    return m.state_index(c.state), x, len(c.alpha) - 1, y, len(c.beta)


def successor_digits(m: TuringMachine, w: tuple[str, str, str], r: tuple,
                     pw: list[int]) -> tuple:
    """``config_digits`` of the successor of a configuration c from ``r``,
    that of c, by the elementary digit maps along the transition of ``w``,
    c's window (X, q, Z), each one ``_affine`` step with ``pw``, the cached
    powers of n_s.  q must not halt.  On an ``r`` that is not c's they act
    exactly, as ``affine_*``."""
    left, q, read = w
    q2, b, move = m.delta[q, read]
    ns, gs, gq = m.n_symbols, m._symbol_index, m._state_index  # dict reads: cheaper per step
    qd, x, kx, y, ky = r
    qd -= gq[q]  # drop the state digit; the tail keeps the rest, 0 on c's point
    if move == "R":
        x, kx = _affine(x, kx, -1, qd + gs[b], 1, ns, pw)  # push the written symbol
        y, ky = _affine(y, ky, 1, -gs[read], 0, ns, pw)  # consume the read symbol
    else:
        x, kx = _affine(x, kx, 1, qd * ns - gs[left], 0, ns, pw)  # drop the left neighbour
        # overwrite under the head, then the left neighbour slides right
        y, ky = _affine(y, ky, -1, gs[left] * ns + gs[b] - gs[read], 2, ns, pw)
    return gq[q2], x, kx, y, ky  # push the new state


def _affine(n: int, k: int, e: int, d: int, j: int, ns: int, pw: list[int]) -> tuple[int, int]:
    """n/ns**k times ns**e plus d/ns**j, as (n', k') with no trailing zero
    digit, so k' is minimal and 0 is (0, 0): the one step rule of every
    exact level.  ``pw``, the cached powers of ns, is extended as read."""
    k -= e
    top = k if k > j else j
    if len(pw) <= top + 1:  # top - k <= top + 1, as k >= -1
        _powers(pw, ns, top + 1)
    n = (n * pw[top - k] if top > k else n) + d * pw[top - j]
    if not n:
        return 0, 0
    while top and not n % ns:
        n, top = n // ns, top - 1
    return n, top


def _powers(pw: list[int], ns: int, k: int) -> list[int]:
    """``pw``, the cached powers of ns from ns**0, extended up to ns**k."""
    while len(pw) <= k:
        pw.append(pw[-1] * ns)
    return pw
