"""Exhaustive references the tests check the package against.

Everything here works one polynomial at a time in plain Python on
``ffcount.ff`` codes: multivariate polynomials as dicts of terms, monic
polynomials enumerated with ``itertools``, and decompositions found by
``UniPoly`` division.  It uses nothing from ``ffcount.oracle`` and no numpy,
so each count the oracle's array kernels give has a second, independent
route (``test_reference_is_independent_of_the_oracle`` reads the imports).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from ffcount.ff import FieldCtx, FqElem, UniPoly, _deglex_monomials, check_budget, count_monic
from ffcount.series import divisors
from ffcount.uv_families import Decomposition, _shift


def _deglex_key(exp: tuple[int, ...]) -> tuple:
    # x1 > x2 > ... ; higher total degree wins, ties broken lexicographically
    return (sum(exp), exp)


class MvPoly:
    """Multivariate polynomial over a FieldCtx with the deg-lex term order:
    ``terms`` maps exponent vectors to nonzero codes."""

    __slots__ = ("ctx", "nvars", "terms")

    @classmethod
    def from_code_terms(cls, ctx: FieldCtx, nvars: int, terms: dict) -> "MvPoly":
        out = cls.__new__(cls)
        out.ctx = ctx
        out.nvars = nvars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def variable(cls, ctx: FieldCtx, nvars: int, i: int) -> "MvPoly":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.from_code_terms(ctx, nvars, {exp: 1})

    @classmethod
    def const(cls, ctx: FieldCtx, nvars: int, value) -> "MvPoly":
        return cls.from_code_terms(ctx, nvars, {(0,) * nvars: ctx.elem(value).code})

    def total_degree(self) -> int:
        """Maximum exponent-vector sum; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_deglex_key)

    def is_monic(self) -> bool:
        return bool(self.terms) and self.terms[self.leading_monomial()] == 1

    def _check(self, other: "MvPoly"):
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise ValueError("field or arity mismatch")

    def __eq__(self, other):
        if not isinstance(other, MvPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.nvars == other.nvars and self.terms == other.terms

    def key(self) -> tuple:
        """Canonical hashable serialization (deterministic term order)."""
        return tuple(sorted(self.terms.items()))

    def __add__(self, other: "MvPoly") -> "MvPoly":
        self._check(other)
        ctx = self.ctx
        out = dict(self.terms)
        for exp, cb in other.terms.items():
            out[exp] = ctx.add(out.get(exp, 0), cb)
        return MvPoly.from_code_terms(ctx, self.nvars, out)

    def __mul__(self, other) -> "MvPoly":
        ctx = self.ctx
        if isinstance(other, (FqElem, int)):
            s = ctx.elem(other).code
            return MvPoly.from_code_terms(ctx, self.nvars, {e: ctx.mul(s, c) for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        mul, add = ctx.mul, ctx.add
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = add(out.get(exp, 0), mul(ca, cb))
        return MvPoly.from_code_terms(ctx, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MvPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = MvPoly.const(self.ctx, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def map_coeffs(self, fn) -> "MvPoly":
        return MvPoly.from_code_terms(self.ctx, self.nvars, {e: fn(c) for e, c in self.terms.items()})


def enumerate_monic_uni(ctx: FieldCtx, n: int, original: bool = False) -> Iterator[UniPoly]:
    """All monic univariate polynomials of degree n, optionally with f(0)=0,
    with (f_1, ..., f_{n-1}) in lexicographic order, f_1 slowest."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    free = n - (1 if original and n > 0 else 0)
    check_budget(ctx.q**free if n > 0 else 1, f"enumerating monic degree-{n} polynomials")
    if n == 0:
        if not original:
            yield UniPoly.const(ctx, 1)
        return
    lows = range(1) if original else range(ctx.q)
    for low in lows:
        for mid in itertools.product(range(ctx.q), repeat=n - 1):
            yield UniPoly.from_codes(ctx, (low,) + mid + (1,))


def enumerate_monic_mv(ctx: FieldCtx, r: int, n: int, original: bool = False) -> Iterator[MvPoly]:
    """All monic r-variate polynomials of total degree n (deg-lex leading
    coefficient 1), optionally with vanishing constant term."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    check_budget(count_monic(ctx.q, r, n, original), f"enumerating monic {r}-variate degree-{n} polynomials")
    if n == 0:
        if not original:
            yield MvPoly.const(ctx, r, 1)
        return
    monos = _deglex_monomials(r, n)
    top = [m for m in monos if sum(m) == n]
    origin = (0,) * r
    for i, lead in enumerate(top):
        rest = monos[i + 1 :]
        if original:
            rest = [m for m in rest if m != origin]
        for codes in itertools.product(range(ctx.q), repeat=len(rest)):
            terms = {lead: 1}
            for exp, code in zip(rest, codes):
                if code:
                    terms[exp] = code
            yield MvPoly.from_code_terms(ctx, r, terms)


def original_shift(f: UniPoly, a) -> UniPoly:
    """The shift conjugating f by translation with a, renormalized to keep
    the result original.  A group action: shifting by a then b equals
    shifting by a+b, and it respects decompositions."""
    if not (f.is_monic() and f.is_original()):
        raise ValueError("f not monic original")
    return _shift(f, f.ctx.elem(a))


def count_decompositions(f: UniPoly) -> list[Decomposition]:
    """All decompositions of f by exhaustive search over the splits of deg f,
    one ``UniPoly`` division at a time (the reference for ``classify_p2``)."""
    ctx = f.ctx
    n = f.degree
    out = []
    for e in divisors(n):
        if e < 2 or n // e < 2:
            continue
        for h in enumerate_monic_uni(ctx, n // e, original=True):
            g = _left_component(f, h, e)
            if g is not None:
                out.append(Decomposition(g, h))
    return out


def _left_component(f: UniPoly, h: UniPoly, e: int) -> Optional[UniPoly]:
    # the unique monic original g of degree e with g(h) = f, if any: the
    # coefficients of g are the h-adic digits of f, lowest first
    codes = []
    rem = f
    for _ in range(e + 1):
        rem, digit = rem.divmod(h)
        if digit.degree > 0:
            return None
        codes.append(digit.c[0] if digit.c else 0)
    if not rem.is_zero():
        return None
    g = UniPoly.from_codes(f.ctx, codes)
    if g.degree != e or not g.is_monic() or not g.is_original():
        return None
    return g if g(h) == f else None
