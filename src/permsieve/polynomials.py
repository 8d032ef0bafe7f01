"""Exact integer polynomials in one variable q, with an exponent offset.

``IntPolynomial`` stores a coefficient vector together with the exponent of
its first entry, so Laurent polynomials (needed for statistics that take
negative values, and for intermediate factors of closed-form products) are
represented without any loss.  All arithmetic is exact; nothing here ever
rounds.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import UsageError


class IntPolynomial:
    """sum_k coeffs[k] * q**(offset + k), trimmed so boundary coefficients are nonzero.

    A value: equal and hashed by (coeffs, offset), and never assigned to
    after construction.
    """

    def __init__(self, coeffs: tuple[int, ...], offset: int = 0) -> None:
        if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError("coefficient vector must be trimmed; use from_terms")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an IntPolynomial")

    def __eq__(self, other: object) -> bool:
        if type(other) is not IntPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.coeffs, self.offset))

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r}, {self.offset!r})"

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial((), 0)

    @staticmethod
    def from_terms(terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> "IntPolynomial":
        """Build from {exponent: coefficient}; zero coefficients are dropped."""
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            if c:
                acc[e] = acc.get(e, 0) + c
                if not acc[e]:
                    del acc[e]
        if not acc:
            return IntPolynomial.zero()
        lo, hi = min(acc), max(acc)
        return IntPolynomial(tuple(acc.get(e, 0) for e in range(lo, hi + 1)), lo)

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "IntPolynomial":
        return IntPolynomial.from_terms({exponent: coeff})

    @staticmethod
    def q_int(k: int) -> "IntPolynomial":
        """[k]_q = 1 + q + ... + q^(k-1)."""
        return IntPolynomial((1,) * k, 0) if k > 0 else IntPolynomial.zero()

    @staticmethod
    def q_factorial(n: int) -> "IntPolynomial":
        """[n]_q! = [1]_q [2]_q ... [n]_q."""
        out = IntPolynomial((1,), 0)
        for k in range(2, n + 1):
            out = out * IntPolynomial.q_int(k)
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> dict[int, int]:
        return {self.offset + k: c for k, c in enumerate(self.coeffs) if c}

    @property
    def min_exponent(self) -> int:
        return self.offset if self.coeffs else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        acc = self.terms()
        for e, c in other.terms().items():
            acc[e] = acc.get(e, 0) + c
        return IntPolynomial.from_terms(acc)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs), self.offset)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial.from_terms({e: c * other for e, c in self.terms().items()})
        acc: dict[int, int] = {}
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    e = self.offset + other.offset + i + j
                    acc[e] = acc.get(e, 0) + a * b
        return IntPolynomial.from_terms(acc)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q**k."""
        return IntPolynomial(self.coeffs, self.offset + k) if self.coeffs else self

    def evaluate(self, x):
        """Exact value at an int or complex ``x``, by Horner's rule.

        The value is an int at an int and a complex at a complex.  With a
        negative offset it is an int only at +-1, each its own inverse, so
        any other int is refused.
        """
        total = x * 0  # of x's type, also for the zero polynomial
        for c in reversed(self.coeffs):
            total = total * x + c
        e = self.offset
        if e < 0 and isinstance(x, int):
            if x not in (1, -1):
                raise UsageError(f"q^{e} has no integer value at q = {x}")
            e = -e
        return total * x ** e

    def fold(self, c: int) -> "IntPolynomial":
        """Reduce exponents modulo c (offset honored); the result has degree < c."""
        if c < 1:
            raise ValueError("modulus must be >= 1")
        residues = [0] * c
        for k in range(min(c, len(self.coeffs))):
            residues[(self.offset + k) % c] += sum(self.coeffs[k::c])
        return IntPolynomial.from_terms(enumerate(residues))

    def coefficient(self, exponent: int) -> int:
        k = exponent - self.offset
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def dense(self, lo: int, hi: int) -> tuple[int, ...]:
        """Coefficients of q^lo .. q^hi as a plain vector."""
        return tuple(self.coefficient(e) for e in range(lo, hi + 1))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms()):
            c = self.coefficient(e)
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*q" if abs(c) != 1 else ("q" if c == 1 else "-q"))
            else:
                parts.append(f"{c}*q^{e}" if abs(c) != 1 else (f"q^{e}" if c == 1 else f"-q^{e}"))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
