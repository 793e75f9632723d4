"""Explicit collision families: distinct decompositions of one polynomial.

A decomposition of f is a pair (g, h) of monic original polynomials of
degree >= 2 with g(h) = f; a collision is a set of at least two distinct
decompositions.  This module constructs every family with a known closed
form: the two monomial/Dickson families behind distinct-degree collisions,
Frobenius collisions in characteristic p, and the additive/multiplicative
families that exhaust degree p^2 together with a classifier for that degree.

The classifier works on numpy code arrays, many polynomials at once.  Once
per field it builds, from parameter columns, a sorted key index of every S
and M family polynomial with two or more decompositions, in the oracle's
packed keys, sorted by ``oracle._sort`` and searched by ``oracle._locate``.  On each block of
f columns it divides every f by every right component h directly (its
decomposition count, independent of any census) and takes every shift
f(x + w) - f(w) by Taylor's formula, which it looks up in the index.
``classify_p2`` is the one-column case of ``classify_census``, which
classifies every collision of a degree-p^2 census in one call.  The tests
check it against an exhaustive ``UniPoly`` reference (``tests/reference.py``).

Everything is built over a concrete ``FieldCtx`` and verified by exact
polynomial composition; constructors raise on parameter sets outside their
validity conditions rather than returning unverifiable families, and check
f's deg f + 1 coefficients against the budget before building anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .ff import FieldCtx, FqElem, UniPoly, check_budget
from .oracle import (
    _CHUNK_ROWS, CensusReport, _check_tables, _code_dtype, _field_ops, _locate, _monic_rows, _mul, _pack,
    _run_starts, _sort,
)
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


def _check_degree(n: int, label: str) -> None:
    """Size a family's composition, n + 1 coefficients, before it is built."""
    check_budget(n + 1, f"the degree-{n} {label} composition")


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
    _check_degree(ell * m, "Ritt1")
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
    _check_degree(n, "Ritt2")
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
    _check_degree(p * h.degree, "Frobenius")
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
    _check_degree(r * r, "S")
    ell = (r - 1) // m
    eps_e = ctx.elem(eps)
    x = UniPoly.x(ctx)
    inner = (
        UniPoly.monomial(ctx, ell * (r + 1))
        - UniPoly.monomial(ctx, ell) * (eps_e * u * s**r)
        + UniPoly(ctx, [u * s ** (r + 1)])
    )
    f = x * inner**m
    eps_u = (eps_e * u).code
    roots = [  # t^(r+1) + u = eps u t, on codes
        FqElem(ctx, t) for t in range(1, ctx.q) if ctx.add(ctx.pow(t, r + 1), u.code) == ctx.mul(eps_u, t)
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
    _check_degree(r * r, "M")
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


# The classifier works on numpy code arrays: a polynomial of degree n is a
# column of n + 1 field codes, constant first, and every kernel takes many
# columns at once.  Field arithmetic is the oracle's ``_field_ops``.


def _arith(ctx: FieldCtx):
    """``(dtype, add, mul)``: addition and multiplication of code arrays of
    F_q, broadcasting, each returning a new array of codes; their operands
    are cast to ``dtype``, the oracle's for one product plus one code."""
    import numpy as np

    add_into, times, mod = _field_ops(ctx)
    dtype = _code_dtype(ctx, 1)

    def add(a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype), np.asarray(b, dtype))
        return mod(add_into(a.copy(), b), 1)

    def mul(a, b):
        return mod(times(np.asarray(a, dtype), np.asarray(b, dtype)), 1)

    return dtype, add, mul


def _power(mul, a, e: int):
    """a^e, e >= 1, by square and multiply with ``mul``: of a code array
    with ``_arith``'s, of polynomial columns with ``_poly_mul``."""
    out = None
    while e:
        if e & 1:
            out = a if out is None else mul(out, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return out


def _poly_mul(ctx: FieldCtx, P, Q):
    # columnwise product of constant-first code arrays, by the oracle's
    # product kernel, whose slots run from the leading coefficient down
    return _mul(ctx, 1, len(P) - 1, len(Q) - 1, P[::-1], Q[::-1])[::-1]


# the parameters of each family in ``classify_p2``'s witness, in order; the
# first two are field elements, the rest integers
_PARAMS = {"S": ("u", "s", "eps", "m", "t_count"), "M": ("a", "b", "m", "t_count")}


def _s_families(ctx: FieldCtx):
    """Codes (p^2 + 1, N) and parameters (5, N), rows as in ``_PARAMS``, of
    every ``s_family`` at r = p with two or more decompositions, in the
    search order m, eps, u, s.  f = x A^m with A = x^(l(p+1)) + c1 x^l + c0,
    c1 = -eps u s^p and c0 = u s^(p+1); the term c1^b c0^c of A^m with
    a + b + c = m sits at exponent 1 + l((p+1)a + b), one term per exponent.
    The decompositions are the roots t of t^(p+1) - eps u t + u in F_q."""
    import numpy as np

    p, q = ctx.p, ctx.q
    dtype, add, mul = _arith(ctx)
    nz = np.arange(1, q)
    minus_u = mul(p - 1, nz)
    s_p = _power(mul, nz, p)
    # the roots t of t^(p+1) - eps u t + u, per eps and u (rows; t in columns)
    t_top = mul(s_p, nz)
    t_counts = [np.count_nonzero(add(add(t_top, mul(eps * minus_u[:, None], nz)), nz[:, None]) == 0, axis=1)
                for eps in (0, 1)]
    columns = []  # per eps: u, s (u outer) where u has two or more roots, c0, c1
    for eps, t_count in enumerate(t_counts):
        u = np.repeat(nz[t_count >= 2], q - 1)
        s = np.tile(nz, len(u) // (q - 1))
        columns.append((u, s, mul(u, t_top[s - 1]), mul(eps * minus_u[u - 1], s_p[s - 1])))
    codes, params = [], []
    for m in divisors(p - 1):
        ell = (p - 1) // m
        for eps, (u, s, c0, c1) in enumerate(columns):
            c0_k, c1_k = [np.ones_like(u)], [np.ones_like(u)]  # k = 0..m
            for _ in range(m):
                c0_k.append(mul(c0_k[-1], c0))
                c1_k.append(mul(c1_k[-1], c1))
            F = np.zeros((p * p + 1, len(u)), dtype=dtype)
            for a in range(m + 1):
                for b in range(m - a + 1):
                    coef = math.factorial(m) // (math.factorial(a) * math.factorial(b) * math.factorial(m - a - b))
                    F[1 + ell * ((p + 1) * a + b)] = mul(coef % p, mul(c1_k[b], c0_k[m - a - b]))
            codes.append(F)
            params.append(np.stack([u, s, np.full_like(u, eps), np.full_like(u, m), t_counts[eps][u - 1]]))
    return np.hstack(codes), np.hstack(params)


def _m_families(ctx: FieldCtx):
    """Codes (p^2 + 1, N) and parameters (4, N), rows as in ``_PARAMS``, of
    every ``m_family`` at r = p, in the search order m, b, a; each has two
    decompositions.  With m* = p - m, A = (b^p - a) / b^p and B = a / b^p,
    f = (x (x - b))^(m m*) (A (x - b)^m + (1 - A) x^m)^m
    (B (x - b)^m* + (1 - B) x^m*)^m*."""
    import numpy as np

    p, q = ctx.p, ctx.q
    dtype, add, mul = _arith(ctx)
    codes, params = [np.zeros((p * p + 1, 0), dtype=dtype)], [np.zeros((4, 0), dtype=np.intp)]
    if p < 5:  # no m with 1 < m < p - 1
        return codes[0], params[0]
    b = np.repeat(np.arange(1, q), q)
    a = np.tile(np.arange(q), q - 1)
    b_p = _power(mul, b, p)
    keep = (a != 0) & (a != b_p)
    a, b, b_p = a[keep], b[keep], b_p[keep]
    inv = _power(mul, b_p, q - 2)
    minus_b = mul(p - 1, b)
    x_xb = np.stack([np.zeros_like(b), minus_b, np.ones_like(b)]).astype(dtype)  # x^2 - b x
    xb = x_xb[1:]  # x - b
    times = partial(_poly_mul, ctx)

    def factor(c, k):
        # c (x - b)^k + (1 - c) x^k: monic, since (x - b)^k is
        out = mul(c, _power(times, xb, k))
        out[k] = 1
        return out

    for m in range(2, p - 1):
        m_star = p - m
        f = times(_power(times, x_xb, m * m_star), times(
            _power(times, factor(mul(add(b_p, mul(p - 1, a)), inv), m), m),
            _power(times, factor(mul(a, inv), m_star), m_star)))
        codes.append(f.astype(dtype))
        params.append(np.stack([a, b, np.full_like(a, m), np.full_like(a, 2)]))
    return np.hstack(codes), np.hstack(params)


@lru_cache(maxsize=None)
def _family_index(ctx: FieldCtx) -> dict:
    """The S and M families of degree p^2 over ctx with two or more
    decompositions, built once per field: {label: (keys, params)}, the
    sorted distinct (k, R) packed keys (``oracle._pack``, sorted by
    ``oracle._sort``) of their coefficients (slots 1..p^2 - 1) and, per key,
    the parameters (rows as in ``_PARAMS``) first in the search order, m,
    eps, u, s for S and m, b, a for M."""
    p, q = ctx.p, ctx.q
    n = p * p
    check_budget(2 * len(divisors(p - 1)) * q * q + max(p - 3, 0) * q * q,
                 f"degree-{n} collision families over F_{q}")
    _check_tables(q, ctx.d)
    index = {}
    for label, (codes, params) in (("S", _s_families(ctx)), ("M", _m_families(ctx))):
        keys = _pack(codes[1:n], q)
        order = _sort(keys)  # stable: equal keys keep the search order
        first = _run_starts(keys)
        index[label] = keys[:, first], params[:, order[first]]
    return index


@lru_cache(maxsize=None)
def _right_components(ctx: FieldCtx):
    """-h_1 .. -h_{p-1} of every monic original h of degree p (h_0 = 0,
    h_p = 1), with (h_1, ..., h_{p-1}) in lexicographic order, h_1 slowest,
    built once per field: a (p - 1, q^(p-1)) code array."""
    p = ctx.p
    _, _, mul = _arith(ctx)
    hs = _monic_rows(ctx.q, 1, p, original=True)[::-1]  # constant first
    return mul(p - 1, hs[1:p])


def _decompositions(ctx: FieldCtx, F):
    """The number of decompositions of every column of F, (p^2 + 1, m)
    codes: of the monic original h of degree p with f = g(h), that is, with
    every h-adic remainder of f constant.  Each pair (f, h) is divided by h
    in place p times by synthetic division (the quotient's coefficients
    replace the top ones), which reads off f's h-adic digits lowest first,
    and leaves at the first remainder that is not constant; most leave
    after the first."""
    import numpy as np

    p = ctx.p
    add_into, times, mod = _field_ops(ctx)
    neg_h = _right_components(ctx)
    m, n_h = F.shape[1], neg_h.shape[1]
    A = np.repeat(F.astype(neg_h.dtype), n_h, axis=1)  # column f * n_h + h
    neg_h, pairs = np.tile(neg_h, m), np.arange(m * n_h)
    while len(A) > 1:
        for i in range(len(A) - 1, p - 1, -1):
            mod(add_into(A[i - p + 1 : i], times(A[i], neg_h)), 1)
        keep = ~A[1:p].any(axis=0)
        A, neg_h, pairs = A[p:, keep], neg_h[:, keep], pairs[keep]
    return np.bincount(pairs // n_h, minlength=m)


@lru_cache(maxsize=None)
def _taylor_weights(ctx: FieldCtx):
    """The weights of f(x + w) by Taylor's formula, built once per field:
    slot k is sum_j f_j C(j, k) w^(j-k).  A list whose entry j - 1, for j
    from 1 to p^2 - 1, is the (j, q, 1) code array of C(j, k) w^(j-k) for
    k from 1 to j, w in code order; j = p^2 has none, as every C(p^2, k)
    with 0 < k < p^2 vanishes mod p."""
    import numpy as np

    p = ctx.p
    n = p * p
    _, _, mul = _arith(ctx)
    powers = [np.ones(ctx.q, dtype=np.intp), np.arange(ctx.q)]  # w^0, w^1, with 0^0 = 1
    while len(powers) < n:
        powers.append(mul(powers[-1], powers[1]))
    dtype = _code_dtype(ctx, n - 1)  # a slot sums one product per j
    weights = [[mul(math.comb(j, k) % p, powers[j - k]) for k in range(1, j + 1)] for j in range(1, n)]
    return [np.stack(W)[:, :, None].astype(dtype) for W in weights]


def _shifts(ctx: FieldCtx, F):
    """Slots 1..n - 1 of f(x + w) - f(w) for every w in code order and every
    column f of F, (n + 1, m) codes: a (n - 1, q, m) code array, summed
    from ``_taylor_weights`` (slot 0 is f(w), and slot n stays f_n)."""
    import numpy as np

    add_into, times, mod = _field_ops(ctx)
    weights = _taylor_weights(ctx)
    dtype = _code_dtype(ctx, len(weights))
    F = F.astype(dtype, copy=False)
    S = np.zeros((len(F) - 2, ctx.q, F.shape[1]), dtype=dtype)
    for j, W in enumerate(weights, 1):
        add_into(S[:j], times(W, F[j]))
    return mod(S, len(weights))


def _classify(ctx: FieldCtx, F) -> list[tuple[str, dict]]:
    """``classify_p2`` of every column of F, (p^2 + 1, m) codes of monic
    original polynomials of degree p^2, in blocks of whole columns of about
    ``_CHUNK_ROWS`` (f, h) pairs each."""
    import numpy as np

    p, q = ctx.p, ctx.q
    n, m, n_h = p * p, F.shape[1], q ** (p - 1)
    check_budget(m * n_h, f"right components of {m} polynomials of degree {n} over F_{q}")
    _check_tables(q, ctx.d)
    index = _family_index(ctx)
    decs = np.empty(m, dtype=np.intp)
    hits = {label: (np.full(m, -1), np.zeros(m, dtype=np.intp)) for label in index}
    step = max(1, _CHUNK_ROWS // n_h)
    for lo in range(0, m, step):
        block = F[:, lo : lo + step]
        cols = np.arange(block.shape[1])
        decs[lo : lo + step] = _decompositions(ctx, block)
        shifts = _pack(_shifts(ctx, block).reshape(n - 1, -1), q)
        for label, (keys, _) in index.items():
            if not keys.shape[1]:
                continue
            at, found = (a.reshape(q, -1) for a in _locate(keys, shifts))
            w = found.argmax(axis=0)  # the smallest shift that lands in the family
            hits[label][0][lo : lo + step] = np.where(found[w, cols], w, -1)
            hits[label][1][lo : lo + step] = at[w, cols]
    frob = ~F[[i for i in range(n + 1) if i % p]].any(axis=0)
    out = []
    for col, count in enumerate(decs.tolist()):
        if count <= 1:
            out.append(("none", {"decompositions": count}))
            continue
        labels = (["F"] if frob[col] else []) + [label for label in ("S", "M") if hits[label][0][col] >= 0]
        if len(labels) != 1:
            f = UniPoly.from_codes(ctx, F[:, col].tolist())
            raise RuntimeError(f"classification not exclusive for {f}: {labels}")
        info = {"decompositions": count}
        label = labels[0]
        if label != "F":
            w, at = hits[label][0][col], hits[label][1][col]
            values = index[label][1][:, at].tolist()
            info["w"] = ctx.from_code(int(w))
            for i, (name, value) in enumerate(zip(_PARAMS[label], values)):
                info[name] = ctx.from_code(value) if i < 2 else value
        out.append((label, info))
    return out


def classify_p2(f: UniPoly) -> tuple[str, dict]:
    """Classify a monic original f of degree p^2 by its collision type.

    Returns one of:
      - ("none", ...) when f has at most one decomposition;
      - ("F", ...) for Frobenius compositions (f a polynomial in x^p);
      - ("S", ...) when some shift of f lands in the simply-original family
        with at least two roots (witness carries the root count);
      - ("M", ...) when some shift lands in the multiply-original family.
    The three collision cases are mutually exclusive; the witness shift is
    the smallest one in the field's element order, with the first
    parameters in the search order (m, eps, u, s for S; m, b, a for M).
    The S and M families of the field are built once, on the first call.
    f is divided by all q^(p-1) right components at once, which gives its
    decomposition count, and all q shifts of f, taken by Taylor's formula,
    are looked up in the families.  This is the one-column case of
    ``classify_census``.
    """
    import numpy as np

    ctx = f.ctx
    p = ctx.p
    if f.degree != p * p:
        raise ValueError(f"degree must be {p * p}")
    if not (f.is_monic() and f.is_original()):
        raise ValueError("f must be monic original")
    return _classify(ctx, np.array(f.c)[:, None])[0]


def classify_census(rep: CensusReport) -> list[tuple[str, dict]]:
    """``classify_p2`` of every collision of a degree-p^2 census, in the
    order of ``rep.collisions`` (that of ``rep.details``), in one call.  The
    decomposition counts come from division, not from the census, so they
    check it."""
    ctx = rep.ctx
    if rep.n != ctx.p**2:
        raise ValueError(f"census degree must be {ctx.p**2}")
    return _classify(ctx, rep.collisions.codes.T)


def frobenius_collision_count(p: int, q: int, n: int) -> int:
    """Number of Frobenius collisions among decomposable monic original
    degree-n polynomials over F_q: q^(p-1) - 1 at n = p^2 (the composition
    x^(p^2) is no collision), q^(n/p - 1) for other n divisible by p."""
    if n % p != 0:
        raise ValueError("n must be divisible by p")
    if n == p * p:
        return q ** (p - 1) - 1
    return q ** (n // p - 1)
