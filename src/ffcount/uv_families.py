"""Explicit collision families: distinct decompositions of one polynomial.

A decomposition of f is a pair (g, h) of monic original polynomials of
degree >= 2 with g(h) = f; a collision is a set of at least two distinct
decompositions.  This module constructs every family with a known closed
form: the two monomial/Dickson families behind distinct-degree collisions,
Frobenius collisions in characteristic p, and the additive/multiplicative
families that exhaust degree p^2 together with a classifier for that degree.
The classifier builds those families once per field and looks each shift of
f up in them.

Everything is built over a concrete ``FieldCtx`` and verified by exact
polynomial composition; constructors raise on parameter sets outside their
validity conditions rather than returning unverifiable families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .ff import FieldCtx, FqElem, UniPoly, enumerate_monic_uni
from .series import divisors


@dataclass(frozen=True)
class Decomposition:
    """A pair (g, h) with g(h) = f; both components monic original, degree >= 2."""

    g: UniPoly
    h: UniPoly

    def __post_init__(self):
        for side in (self.g, self.h):
            if side.degree < 2:
                raise ValueError("decomposition components need degree >= 2")
            if not (side.is_monic() and side.is_original()):
                raise ValueError("decomposition components must be monic original")

    def compose(self) -> UniPoly:
        return self.g(self.h)


@dataclass
class CollisionFamily:
    """A composed polynomial together with its constructed decompositions."""

    f: UniPoly
    decompositions: list[Decomposition]
    label: str
    params: dict = field(default_factory=dict)

    def verify(self) -> bool:
        """Every decomposition composes to f and all pairs are distinct."""
        seen = set()
        for dec in self.decompositions:
            if dec.compose() != self.f:
                return False
            key = (dec.g.c, dec.h.c)
            if key in seen:
                return False
            seen.add(key)
        return True


def _shift(f: UniPoly, a: FqElem) -> UniPoly:
    # (x - f(a)) o f o (x + a); monic original for any monic f
    ctx = f.ctx
    x_plus_a = UniPoly(ctx, [a, 1])
    shifted = f(x_plus_a)
    return shifted - UniPoly(ctx, [f.eval(ctx.elem(a))])


def original_shift(f: UniPoly, a) -> UniPoly:
    """The shift conjugating f by translation with a, renormalized to keep
    the result original.  A group action: shifting by a then b equals
    shifting by a+b, and it respects decompositions."""
    if not (f.is_monic() and f.is_original()):
        raise ValueError("f not monic original")
    return _shift(f, f.ctx.elem(a))


def shift_pair(g: UniPoly, h: UniPoly, a) -> tuple[UniPoly, UniPoly]:
    """Shift a composition pair: (g, h) goes to (g shifted by h(a), h shifted
    by a), so that the shifted pair composes to the shifted composition."""
    a = g.ctx.elem(a)
    return _shift(g, h.eval(a)), _shift(h, a)


def frobenius_map(poly: UniPoly) -> UniPoly:
    """Coefficientwise p-th power (the variable stays fixed)."""
    ctx = poly.ctx
    return poly.map_coeffs(ctx.frobenius)


# -- Dickson polynomials ------------------------------------------------


def dickson(ctx: FieldCtx, m: int, z) -> UniPoly:
    """Degree-m Dickson polynomial with parameter z: the unique polynomial
    sending y + z/y to y^m + (z/y)^m.  Recurrence T_0 = 2, T_1 = x,
    T_j = x T_{j-1} - z T_{j-2}."""
    if m < 0:
        raise ValueError("need m >= 0")
    z = ctx.elem(z)
    prev = UniPoly(ctx, [2])
    if m == 0:
        return prev
    cur = UniPoly.x(ctx)
    for _ in range(m - 1):
        prev, cur = cur, UniPoly.x(ctx) * cur - z * prev
    return cur


# -- distinct-degree families -------------------------------------------


def ritt_family_first(ell: int, k: int, w: UniPoly, a) -> CollisionFamily:
    """The monomial-twist family: x^l and x^k w^l (x shifted) commute past
    each other.  Needs 1 <= k < l, gcd(l, k) = 1, w monic, the
    nondegeneracy k*w + l*x*w' != 0, and l coprime to the characteristic.
    """
    ctx = w.ctx
    p = ctx.p
    a = ctx.elem(a)
    if not w.is_monic():
        raise ValueError("w must be monic")
    if not 1 <= k < ell:
        raise ValueError("need 1 <= k < l")
    s = w.degree
    m = s * ell + k
    if math.gcd(ell, m) != 1:
        raise ValueError("need gcd(l, sl + k) = 1")
    if ell % p == 0:
        raise ValueError("wild left component")
    x = UniPoly.x(ctx)
    nondegen = k * w + ell * (x * w.derivative())
    if nondegen.is_zero():
        raise ValueError("degenerate first-case parameters")
    if m < 2:
        raise ValueError("degenerate first-case parameters: left degree below 2")
    w_of_xl = w(UniPoly.monomial(ctx, ell))
    f = UniPoly.monomial(ctx, k * ell) * w_of_xl**ell
    g1, h1 = UniPoly.monomial(ctx, k) * w**ell, UniPoly.monomial(ctx, ell)
    g2, h2 = UniPoly.monomial(ctx, ell), UniPoly.monomial(ctx, k) * w_of_xl
    decs = [
        Decomposition(*shift_pair(g1, h1, a)),
        Decomposition(*shift_pair(g2, h2, a)),
    ]
    return CollisionFamily(
        _shift(f, a), decs, "Ritt1", {"l": ell, "k": k, "w": w, "a": a}
    )


def ritt_family_second(ell: int, m: int, z, a) -> CollisionFamily:
    """The Dickson family: T_m(x, z^l) o T_l(x, z) = T_l(x, z^m) o T_m(x, z),
    shifted to be original.  Needs gcd(l, m) = 1, m > l >= 2, and n = l*m
    coprime to the characteristic."""
    ctx = z.ctx if isinstance(z, FqElem) else None
    if ctx is None:
        raise TypeError("z must be a field element")
    z = ctx.elem(z)
    a = ctx.elem(a)
    if z.is_zero():
        raise ValueError("z must be nonzero")
    if not (m > ell >= 2):
        raise ValueError("need m > l >= 2")
    if math.gcd(ell, m) != 1:
        raise ValueError("need gcd(l, m) = 1")
    n = ell * m
    if n % ctx.p == 0:
        raise ValueError("degree divisible by the characteristic")
    f = dickson(ctx, n, z)
    g1, h1 = dickson(ctx, m, z**ell), dickson(ctx, ell, z)
    g2, h2 = dickson(ctx, ell, z**m), dickson(ctx, m, z)
    decs = [
        Decomposition(*shift_pair(g1, h1, a)),
        Decomposition(*shift_pair(g2, h2, a)),
    ]
    return CollisionFamily(
        _shift(f, a), decs, "Ritt2", {"l": ell, "m": m, "z": z, "a": a}
    )


def frobenius_family(h: UniPoly) -> CollisionFamily:
    """The characteristic-p collision x^p o h = phi(h) o x^p, phi the
    coefficientwise p-th power.  Rejected for h = x^p, whose composition
    x^(p^2) has only one decomposition."""
    ctx = h.ctx
    p = ctx.p
    if h.degree < 2 or not (h.is_monic() and h.is_original()):
        raise ValueError("h must be monic original of degree >= 2")
    xp = UniPoly.monomial(ctx, p)
    if h == xp:
        raise ValueError("not a collision")
    f = xp(h)
    decs = [Decomposition(xp, h), Decomposition(frobenius_map(h), xp)]
    return CollisionFamily(f, decs, "Frobenius", {"h": h})


# -- degree r^2 families (r a power of the characteristic) ----------------


def _check_p_power(ctx: FieldCtx, r: int) -> None:
    m = r
    while m % ctx.p == 0:
        m //= ctx.p
    if m != 1 or r < 2:
        raise ValueError(f"{r} is not a positive power of the characteristic {ctx.p}")


def s_family(ctx: FieldCtx, u, s, eps: int, m: int, r: int) -> CollisionFamily:
    """The simply-original family at degree r^2: for every root t of
    t^(r+1) - eps*u*t + u, the pair (x(x^l - u s^r / t)^m, x(x^l - s t)^m)
    composes to f = x(x^(l(r+1)) - eps*u*s^r*x^l + u*s^(r+1))^m, where
    l = (r-1)/m.  Roots are found by exhaustive search, so the number of
    decompositions equals the number of roots in the field (possibly zero).
    """
    _check_p_power(ctx, r)
    u, s = ctx.elem(u), ctx.elem(s)
    if u.is_zero() or s.is_zero():
        raise ValueError("u and s must be nonzero")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if m < 1 or (r - 1) % m != 0:
        raise ValueError("m must divide r - 1")
    ell = (r - 1) // m
    eps_e = ctx.elem(eps)
    x = UniPoly.x(ctx)
    inner = (
        UniPoly.monomial(ctx, ell * (r + 1))
        - UniPoly.monomial(ctx, ell) * (eps_e * u * s**r)
        + UniPoly(ctx, [u * s ** (r + 1)])
    )
    f = x * inner**m
    roots = [
        t for t in ctx.nonzero_elements() if (t ** (r + 1) - eps_e * u * t + u).is_zero()
    ]
    decs = []
    for t in roots:
        g = x * (UniPoly.monomial(ctx, ell) - UniPoly(ctx, [u * s**r / t])) ** m
        h = x * (UniPoly.monomial(ctx, ell) - UniPoly(ctx, [s * t])) ** m
        decs.append(Decomposition(g, h))
    return CollisionFamily(
        f, decs, "S", {"u": u, "s": s, "eps": eps, "m": m, "r": r, "roots": roots}
    )


def m_family(ctx: FieldCtx, a, b, m: int, r: int) -> CollisionFamily:
    """The multiply-original 2-collision at degree r^2, built from parameters
    (a, b, m) with b nonzero, a outside {0, b^r}, 1 < m < r-1 and m coprime
    to the characteristic.  The starred data a* = b^r - a, m* = r - m gives
    the second decomposition; swapping stars is an involution fixing f."""
    _check_p_power(ctx, r)
    a, b = ctx.elem(a), ctx.elem(b)
    if b.is_zero():
        raise ValueError("b must be nonzero")
    if a.is_zero() or a == b**r:
        raise ValueError("a must avoid 0 and b^r")
    if not (1 < m < r - 1):
        raise ValueError("need 1 < m < r - 1")
    if m % ctx.p == 0:
        raise ValueError("m must be coprime to the characteristic")
    m_star = r - m
    a_star = b**r - a
    x = UniPoly.x(ctx)
    xb = x - UniPoly(ctx, [b])
    binv_r = (b**r).inv()
    xr = UniPoly.monomial(ctx, r)

    f = (
        (x * xb) ** (m * m_star)
        * (x**m + (xb**m - x**m) * (a_star * binv_r)) ** m
        * (x**m_star + (xb**m_star - x**m_star) * (a * binv_r)) ** m_star
    )
    g = x**m * (x - UniPoly(ctx, [a])) ** m_star
    h = xr + (x**m_star * xb**m - xr) * (a_star * binv_r)
    g_star = x**m_star * (x - UniPoly(ctx, [a_star])) ** m
    h_star = xr + (x**m * xb**m_star - xr) * (a * binv_r)
    decs = [Decomposition(g, h), Decomposition(g_star, h_star)]
    return CollisionFamily(
        f, decs, "M",
        {"a": a, "b": b, "m": m, "r": r, "a_star": a_star, "m_star": m_star},
    )


# -- classification at degree p^2 -----------------------------------------


def count_decompositions(f: UniPoly) -> list[Decomposition]:
    """All decompositions of f by exhaustive search over the splits of deg f."""
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


@lru_cache(maxsize=None)
def _family_index(ctx: FieldCtx) -> dict[tuple[int, ...], dict[str, dict]]:
    # codes of every S or M family polynomial of degree p^2 with two or more
    # decompositions -> {label: the first parameters that build it, in the
    # order m, eps, u, s for S and m, b, a for M}
    p = ctx.p
    index: dict[tuple[int, ...], dict[str, dict]] = {}

    def add(fam: CollisionFamily, **params) -> None:
        if len(fam.decompositions) >= 2:
            by_label = index.setdefault(fam.f.c, {})
            if fam.label not in by_label:
                by_label[fam.label] = dict(params, t_count=len(fam.decompositions))

    for m in divisors(p - 1):
        for eps in (0, 1):
            for u in ctx.nonzero_elements():
                for s in ctx.nonzero_elements():
                    add(s_family(ctx, u, s, eps, m, p), u=u, s=s, eps=eps, m=m)
    for m in range(2, p - 1):
        for b in ctx.nonzero_elements():
            for a in ctx.elements():
                if not (a.is_zero() or a == b**p):
                    add(m_family(ctx, a, b, m, p), a=a, b=b, m=m)
    return index


def classify_p2(f: UniPoly) -> tuple[str, dict]:
    """Classify a monic original f of degree p^2 by its collision type.

    Returns one of:
      - ("none", ...) when f has at most one decomposition;
      - ("F", ...) for Frobenius compositions (f a polynomial in x^p);
      - ("S", ...) when some shift of f lands in the simply-original family
        with at least two roots (witness carries the root count);
      - ("M", ...) when some shift lands in the multiply-original family.
    The three collision cases are mutually exclusive; the witness shift is
    the smallest one in the field's element order.  The S and M families of
    the field are built once, on the first call, and every shift of f is
    looked up in them.
    """
    ctx = f.ctx
    p = ctx.p
    if f.degree != p * p:
        raise ValueError(f"degree must be {p * p}")
    if not (f.is_monic() and f.is_original()):
        raise ValueError("f must be monic original")
    decs = count_decompositions(f)
    if len(decs) <= 1:
        return "none", {"decompositions": len(decs)}

    is_frob = all(c == 0 for e, c in enumerate(f.c) if e % p)
    index = _family_index(ctx)
    witness = {}
    for w in ctx.elements():
        for label, params in index.get(_shift(f, w).c, {}).items():
            if label not in witness:
                witness[label] = {"w": w, **params}
    hits = (["F"] if is_frob else []) + [label for label in ("S", "M") if label in witness]
    if len(hits) != 1:
        raise RuntimeError(f"classification not exclusive for {f}: {hits}")
    return hits[0], {"decompositions": len(decs), **witness.get(hits[0], {})}


def frobenius_collision_count(p: int, q: int, n: int) -> int:
    """Number of Frobenius collisions among decomposable monic original
    degree-n polynomials over F_q: q^(p-1) - 1 at n = p^2 (the composition
    x^(p^2) is no collision), q^(n/p - 1) for other n divisible by p."""
    if n % p != 0:
        raise ValueError("n must be divisible by p")
    if n == p * p:
        return q ** (p - 1) - 1
    return q ** (n // p - 1)
