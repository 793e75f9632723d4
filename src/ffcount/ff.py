"""Finite fields with explicit moduli, and exact polynomial arithmetic over them.

Elements of F_{p^d} are stored as integer codes in [0, p^d): the base-p
digits of the code are the coordinates with respect to the power basis of
the generator (the residue class of x modulo the field's modulus).  Codes
0..p-1 are therefore exactly the prime subfield.  F_p is the integers mod p,
with no table.  F_{p^d}, d > 1, multiplies through discrete-log tables built
once per field, powers of the smallest code of order q - 1 (found by square
and multiply), each from the last by the F_p-linear map "multiply by it" on
the digits, and adds digitwise mod p: a plain XOR when p = 2, otherwise Zech
logarithms (g^i + 1 = g^zech[i]) and negation (-1 = g^((q-1)/2)) tables.

The default modulus for F_{p^d} is deterministic: the monic irreducible
degree-d polynomial over F_p whose non-leading coefficient vector, read as
a base-p integer (constant coefficient least significant), is smallest.
A modulus is checked by trial division, and codes are multiplied before the
log tables exist, in ``UniPoly`` over F_p, the module's one polynomial
arithmetic.  All counts produced by this package are modulus-independent;
that is tested, not assumed.

``check_budget`` is the package's one budget gate, and the only reader of
``FFCOUNT_BUDGET``: ``field_make`` checks an extension field's q log-table
entries (``check_log_tables``) before it builds them, and the oracle sizes
its own work through it the same way.
"""

from __future__ import annotations

import itertools
import operator
import os
from functools import lru_cache
from typing import Iterator, Optional, Union

from .series import is_prime, smallest_prime_factor


class BudgetExceeded(Exception):
    """An enumeration would need more items than the configured budget."""

    def __init__(self, required: int, budget: int, what: str):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} requires {required} items, exceeding the budget of {budget}"
            " (override with FFCOUNT_BUDGET)"
        )


def check_budget(required: int, what: str) -> None:
    """Raise ``BudgetExceeded`` when ``what`` needs more than ``FFCOUNT_BUDGET``
    items (default 2^26).  Every budget check in the package goes through
    here, before the work it sizes starts."""
    budget = int(os.environ.get("FFCOUNT_BUDGET") or 1 << 26)
    if required > budget:
        raise BudgetExceeded(required, budget, what)


def check_log_tables(q: int) -> None:
    """Check the q entries of F_q's log tables against the budget, from q
    alone, before the field is built."""
    check_budget(q, f"log tables of F_{q}")


def _is_irreducible_mod_p(f: tuple[int, ...], p: int) -> bool:
    # trial division by every monic polynomial of degree 1 to deg f / 2
    fp = field_make(p, 1)
    f = UniPoly.from_codes(fp, f)
    return f.degree >= 1 and all(
        f.divmod(UniPoly.from_codes(fp, tail + (1,)))[1].c
        for e in range(1, f.degree // 2 + 1)
        for tail in itertools.product(range(p), repeat=e)
    )


class FieldCtx:
    """F_{p^d}; its modulus and its log, exp, Zech and negation tables exist only when d > 1."""

    __slots__ = ("p", "d", "q", "modulus", "_exp", "_log", "_pow_p", "_zech", "_neg")

    def __init__(self, p: int, d: int, modulus: Optional[tuple[int, ...]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        if d == 1:
            if modulus is not None:
                raise ValueError("prime fields carry no modulus")
        else:
            if modulus is None:
                raise ValueError("extension fields need a modulus; use field_make")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != d + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree d")
            if not _is_irreducible_mod_p(modulus, p):
                raise ValueError("modulus is reducible")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus
        self._pow_p = tuple(p**i for i in range(d))
        self._exp = self._log = self._zech = self._neg = None
        if d > 1:
            self._build_log_tables()

    # -- element codes ------------------------------------------------

    def digits(self, code: int) -> tuple[int, ...]:
        p = self.p
        return tuple((code // w) % p for w in self._pow_p)

    def encode(self, digits) -> int:
        p = self.p
        return sum((c % p) * w for c, w in zip(digits, self._pow_p))

    def _raw_mul(self, a: int, b: int) -> int:
        # the product of the coordinate polynomials, reduced by the modulus
        fp = field_make(self.p, 1)
        prod = UniPoly.from_codes(fp, self.digits(a)) * UniPoly.from_codes(fp, self.digits(b))
        return self.encode(prod.divmod(UniPoly.from_codes(fp, self.modulus))[1].c)

    def _raw_pow(self, a: int, e: int) -> int:
        # square and multiply on _raw_mul, before the log tables exist
        result = 1
        while e:
            if e & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return result

    def _build_log_tables(self):
        q, p = self.q, self.p
        order = q - 1
        primes, m = [], order
        while m > 1:
            primes.append(smallest_prime_factor(m))
            while m % primes[-1] == 0:
                m //= primes[-1]
        # the generator is the smallest code of order q - 1: none of its
        # powers (q - 1) / l, l a prime factor of q - 1, is 1
        gen = next(c for c in range(1, q) if all(self._raw_pow(c, order // l) != 1 for l in primes))
        # multiplying by gen is F_p-linear on the base-p digits: the image of
        # a code sums its digits times the images of the basis codes p^j, as
        # integers in bit fields wide enough not to carry, reduced field by field
        width = (self.d * (p - 1) ** 2).bit_length()
        fields, mask = range(0, width * self.d, width), (1 << width) - 1
        images = [self.digits(self._raw_mul(gen, w)) for w in self._pow_p]
        images = [sum(c << k for c, k in zip(image, fields)) for image in images]
        exp, digits = [1] * order, self.digits(1)
        for i in range(1, order):
            image = sum(map(operator.mul, digits, images))
            digits = [(image >> k & mask) % p for k in fields]
            exp[i] = sum(map(operator.mul, digits, self._pow_p))
        log = [0] * q
        for i, code in enumerate(exp):
            log[code] = i
        self._exp = tuple(exp)
        self._log = tuple(log)
        if p > 2:
            # adding 1 changes only the lowest base-p digit
            one_plus = [c - c % p + (c + 1) % p for c in exp]
            self._zech = tuple(log[c] if c else -1 for c in one_plus)  # -1 where g^i = -1
            minus = exp[order // 2 :] + exp[: order // 2]  # -g^i = g^(i + (q-1)/2)
            self._neg = (0, *map(minus.__getitem__, log[1:]))

    # -- arithmetic on codes -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.d == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        # a + b = a (1 + b / a) = g^(log a + zech[log b - log a])
        order = self.q - 1
        log_a = self._log[a]
        z = self._zech[(self._log[b] - log_a) % order]
        return 0 if z < 0 else self._exp[(log_a + z) % order]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.d == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.d == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        order = self.q - 1
        return self._exp[(self._log[a] + self._log[b]) % order]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero divisor")
            return 1 if e == 0 else 0
        if self.d == 1:
            return pow(a, e, self.p)
        order = self.q - 1
        return self._exp[(self._log[a] * e) % order]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    # -- elements -------------------------------------------------------

    def elem(self, value: Union[int, tuple, list, "FqElem"]) -> "FqElem":
        """Element from an integer (mod p) or a coordinate tuple."""
        if isinstance(value, FqElem):
            if value.ctx is not self:
                raise ValueError("field mismatch")
            return value
        if isinstance(value, (tuple, list)):
            if len(value) != self.d:
                raise ValueError(f"expected {self.d} coordinates")
            return FqElem(self, self.encode(value))
        return FqElem(self, self.from_int(value))

    def from_code(self, code: int) -> "FqElem":
        if not 0 <= code < self.q:
            raise ValueError("code out of range")
        return FqElem(self, code)

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def elements(self) -> Iterator["FqElem"]:
        for code in range(self.q):
            yield FqElem(self, code)

    def nonzero_elements(self) -> Iterator["FqElem"]:
        for code in range(1, self.q):
            yield FqElem(self, code)

    # -- identity -------------------------------------------------------

    def _key(self):
        return (self.p, self.d, self.modulus)

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.modulus is None:
            return f"F_{self.q}"
        mod = UniPoly.from_codes(field_make(self.p, 1), self.modulus)
        return f"F_{self.q}<{mod}>"


@lru_cache(maxsize=None)
def _default_field(p: int, d: int) -> FieldCtx:
    if d == 1:
        return FieldCtx(p, 1)
    for val in range(p**d):
        tail = tuple((val // p**i) % p for i in range(d))
        cand = tail + (1,)
        if _is_irreducible_mod_p(cand, p):
            return FieldCtx(p, d, cand)
    raise AssertionError("no irreducible modulus found")  # cannot happen


def field_make(p: int, d: int, modulus=None) -> FieldCtx:
    """F_{p^d}; the deterministic smallest modulus unless one is supplied."""
    if d > 1:
        check_log_tables(p**d)
    if modulus is None:
        return _default_field(p, d)
    return FieldCtx(p, d, tuple(modulus))


def field_from_q(q: int) -> FieldCtx:
    from .series import factor_prime_power

    p, d = factor_prime_power(q)
    return field_make(p, d)


class FqElem:
    """An element of a FieldCtx, identified by its integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coords(self) -> tuple[int, ...]:
        return self.ctx.digits(self.code)

    def is_zero(self) -> bool:
        return self.code == 0

    def _coerce(self, other) -> Optional["FqElem"]:
        if isinstance(other, FqElem):
            if other.ctx != self.ctx:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return FqElem(self.ctx, self.ctx.from_int(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.add(self.code, other.code))

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.neg(self.code))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.sub(self.code, other.code))

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.mul(self.code, other.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.mul(self.code, self.ctx.inv(other.code)))

    def __pow__(self, e: int):
        return FqElem(self.ctx, self.ctx.pow(self.code, e))

    def inv(self) -> "FqElem":
        return FqElem(self.ctx, self.ctx.inv(self.code))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.ctx == other.ctx and self.code == other.code

    def __hash__(self):
        return hash((self.ctx, self.code))

    def __str__(self):
        if self.ctx.d == 1:
            return str(self.code)
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"FqElem({self}, q={self.ctx.q})"


# -- univariate polynomials -------------------------------------------


class UniPoly:
    """Univariate polynomial over a FieldCtx; coefficient index = exponent."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = []
        for x in coeffs:
            if isinstance(x, FqElem):
                if x.ctx != ctx:
                    raise ValueError("field mismatch")
                cs.append(x.code)
            elif isinstance(x, int):
                cs.append(ctx.from_int(x))
            else:
                raise TypeError("coefficients must be FqElem or int")
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.c = tuple(cs)

    @classmethod
    def from_codes(cls, ctx: FieldCtx, codes) -> "UniPoly":
        out = cls.__new__(cls)
        cs = list(codes)
        while cs and cs[-1] == 0:
            cs.pop()
        out.ctx = ctx
        out.c = tuple(cs)
        return out

    @classmethod
    def x(cls, ctx: FieldCtx) -> "UniPoly":
        return cls.from_codes(ctx, (0, 1))

    @classmethod
    def monomial(cls, ctx: FieldCtx, k: int) -> "UniPoly":
        return cls.from_codes(ctx, (0,) * k + (1,))

    @classmethod
    def const(cls, ctx: FieldCtx, value) -> "UniPoly":
        return cls(ctx, [value])

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def is_monic(self) -> bool:
        return bool(self.c) and self.c[-1] == 1

    def is_original(self) -> bool:
        return not self.c or self.c[0] == 0

    def coeff(self, k: int) -> FqElem:
        code = self.c[k] if 0 <= k < len(self.c) else 0
        return FqElem(self.ctx, code)

    def _check(self, other: "UniPoly"):
        if self.ctx != other.ctx:
            raise ValueError("field mismatch")

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.c == other.c

    def __hash__(self):
        return hash((self.ctx, self.c))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        ctx = self.ctx
        n = max(len(self.c), len(other.c))
        a, b = self.c, other.c
        return UniPoly.from_codes(
            ctx,
            (
                ctx.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                for i in range(n)
            ),
        )

    def __neg__(self) -> "UniPoly":
        ctx = self.ctx
        return UniPoly.from_codes(ctx, (ctx.neg(x) for x in self.c))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        ctx = self.ctx
        if isinstance(other, (FqElem, int)):
            s = ctx.elem(other).code
            return UniPoly.from_codes(ctx, (ctx.mul(s, x) for x in self.c))
        self._check(other)
        if not self.c or not other.c:
            return UniPoly.from_codes(ctx, ())
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, ca in enumerate(self.c):
            if ca:
                for j, cb in enumerate(other.c):
                    if cb:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(ca, cb))
        return UniPoly.from_codes(ctx, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        ctx = self.ctx
        if e and e % ctx.p == 0:
            # in characteristic p, f^p = phi(f)(x^p), phi the coefficientwise p-th power
            return (self ** (e // ctx.p)).map_coeffs(ctx.frobenius).compose(UniPoly.monomial(ctx, ctx.p))
        result = UniPoly.const(self.ctx, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("zero divisor")
        ctx = self.ctx
        rem = list(self.c)
        db = other.degree
        inv_lead = ctx.inv(other.c[-1])
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i] == 0:
                continue
            f = ctx.mul(rem[i], inv_lead)
            quot[i - db] = f
            for j, cb in enumerate(other.c):
                if cb:
                    rem[i - db + j] = ctx.sub(rem[i - db + j], ctx.mul(f, cb))
        return UniPoly.from_codes(ctx, quot), UniPoly.from_codes(ctx, rem)

    def derivative(self) -> "UniPoly":
        ctx = self.ctx
        out = []
        for k in range(1, len(self.c)):
            out.append(ctx.mul(ctx.from_int(k), self.c[k]))
        return UniPoly.from_codes(ctx, out)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        self._check(inner)
        ctx = self.ctx
        if len(inner.c) > 1 and not any(inner.c[:-1]):
            # a monomial c x^k, k >= 1: coefficient i moves to exponent i k
            k, c = inner.degree, inner.c[-1]
            out = [0] * (k * self.degree + 1) if self.c else []
            for i, code in enumerate(self.c):
                out[i * k] = ctx.mul(code, ctx.pow(c, i))
            return UniPoly.from_codes(ctx, out)
        if len(self.c) > 1 and not any(self.c[:-1]):
            return inner ** self.degree * FqElem(ctx, self.c[-1])  # a monomial outer: one power
        result = UniPoly.from_codes(ctx, ())
        for code in reversed(self.c):
            result = result * inner + UniPoly.from_codes(ctx, (code,))
        return result

    def eval(self, point: FqElem) -> FqElem:
        ctx = self.ctx
        acc = 0
        for code in reversed(self.c):
            acc = ctx.add(ctx.mul(acc, point.code), code)
        return FqElem(ctx, acc)

    def __call__(self, arg):
        if isinstance(arg, UniPoly):
            return self.compose(arg)
        return self.eval(self.ctx.elem(arg))

    def map_coeffs(self, fn) -> "UniPoly":
        """Apply a code->code map (e.g. Frobenius) to every coefficient."""
        return UniPoly.from_codes(self.ctx, (fn(x) for x in self.c))

    def __str__(self):
        if not self.c:
            return "0"
        ctx = self.ctx
        parts = []
        for k in range(self.degree, -1, -1):
            code = self.c[k]
            if code == 0:
                continue
            coeff = FqElem(ctx, code)
            if k == 0:
                body = str(coeff)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if code == 1 else f"{coeff}{var}"
            parts.append(body)
        return "+".join(parts)

    def __repr__(self):
        return f"UniPoly({self}, q={self.ctx.q})"


# -- embeddings ----------------------------------------------------------


@lru_cache(maxsize=None)
def field_embed(base: FieldCtx, k: int) -> tuple[FieldCtx, tuple[int, ...]]:
    """F_{p^{dk}} together with an embedding of ``base`` into it, as a code
    table: ``table[c]`` is the image of code c.  The base generator goes to
    the smallest root of the base modulus found by exhaustive search."""
    if k < 1:
        raise ValueError("extension factor must be >= 1")
    if k == 1:
        return base, tuple(range(base.q))
    ext = field_make(base.p, base.d * k)
    if base.d == 1:
        return ext, tuple(range(base.p))
    # F_p codes are the same in every extension, so the base modulus and
    # the digits of a base code are polynomials over ext as they stand
    modulus = UniPoly.from_codes(ext, base.modulus)
    root = next((x for x in ext.elements() if modulus.eval(x).is_zero()), None)
    if root is None:
        raise RuntimeError(f"the modulus of {base} has no root in {ext}")
    digits = (UniPoly.from_codes(ext, base.digits(code)) for code in range(base.q))
    return ext, tuple(poly.eval(root).code for poly in digits)


# -- monomials and monic counts -------------------------------------------


def _deglex_monomials(r: int, n: int) -> list[tuple[int, ...]]:
    """All monomials in r variables of total degree <= n, deg-lex descending."""
    monos = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            monos.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    for total in range(n, -1, -1):
        rec((), total, r)
    return monos


def count_monic(q: int, r: int, n: int, original: bool = False) -> int:
    """Number of monic (optionally original) r-variate polynomials of total
    degree n over a field with q elements, by direct position counting."""
    from math import comb

    if n == 0:
        return 0 if original else 1
    below = comb(r + n, r) - 1  # monomials other than the deg-lex largest one
    top = comb(r + n - 1, r - 1)  # monomials of total degree exactly n
    total = 0
    for i in range(top):
        free = below - i  # monomials deg-lex smaller than the i-th leading choice
        total += q ** (free - (1 if original else 0))
    return total
