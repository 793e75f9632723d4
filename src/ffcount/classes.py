"""The polynomial classes, and which function serves each one.

``CLASSES`` maps a class name to its exact count (a ``QPoly`` in q, or its
value at a given q), its ``CountReport`` (main term and certified bound)
and its oracle count by enumeration; a class may lack any of the three.
The lookups below make the only checks on class names and on the power
exponent s, and the CLI takes its class choices from the table.

Every entry looks its function up when called (``mv_counts.red_exact``, not
the function object), so a module attribute rebound after import, such as a
tracing wrapper, is the one that runs.  Oracle entries call only ``oracle``
code and ``ff.count_monic``, which counts monic polynomials by their
coefficient positions: the formula layer never reaches the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import mv_counts, oracle
from .ff import FieldCtx, count_monic
from .qrat import QPoly


def _irreducible(ctx: FieldCtx, r: int, n: int) -> int:
    """Monic degree-n polynomials that are not reducible; none at n = 0."""
    return 0 if n == 0 else count_monic(ctx.q, r, n) - len(oracle._reducible_keys(ctx, r, n))


def _abs_irreducible(ctx: FieldCtx, r: int, n: int) -> int:
    """Irreducible minus relatively irreducible.  The reducible products are
    sized first, then ``_rel_irreducible_keys`` sizes its extension fields,
    and only then is anything built."""
    if n:
        oracle._reducible_products(ctx, r, n)
    relative = len(oracle._rel_irreducible_keys(ctx, r, n))
    return _irreducible(ctx, r, n) - relative


@dataclass(frozen=True)
class PolyClass:
    """The functions serving one class, or None: ``exact(r, n, s, q)`` gives
    a QPoly when q is None and its integer value at q otherwise,
    ``report(r, n, s)`` a CountReport, ``oracle(r, n, ctx, s)`` an int.  Each
    takes s, which is None unless ``needs_s``."""

    exact: Optional[Callable]
    report: Optional[Callable]
    oracle: Optional[Callable]
    needs_s: bool = False


CLASSES: dict[str, PolyClass] = {
    "all": PolyClass(lambda r, n, s, q: mv_counts.p_count(r, n, q), None, None),
    "reducible": PolyClass(
        lambda r, n, s, q: mv_counts.red_exact(r, n, q),
        lambda r, n, s: mv_counts.red_approx(r, n),
        lambda r, n, ctx, s: 1 if n == 0 else len(oracle._reducible_keys(ctx, r, n)),
    ),
    "irreducible": PolyClass(
        lambda r, n, s, q: mv_counts.irr_exact(r, n, q=q),
        None,
        lambda r, n, ctx, s: _irreducible(ctx, r, n),
    ),
    "powerful": PolyClass(
        lambda r, n, s, q: mv_counts.powerful_exact(r, n, s, q=q),
        lambda r, n, s: mv_counts.powerful_approx(r, n, s),
        lambda r, n, ctx, s: len(oracle._powerful_keys(ctx, r, n, s)),
        needs_s=True,
    ),
    "powerfree": PolyClass(
        lambda r, n, s, q: mv_counts.powerfree_exact(r, n, s, q),
        None,
        lambda r, n, ctx, s: count_monic(ctx.q, r, n) - len(oracle._powerful_keys(ctx, r, n, s)),
        needs_s=True,
    ),
    "rel_irreducible": PolyClass(
        lambda r, n, s, q: mv_counts.relirr_exact(r, n, q),
        lambda r, n, s: mv_counts.relirr_approx(r, n),
        lambda r, n, ctx, s: len(oracle._rel_irreducible_keys(ctx, r, n)),
    ),
    "abs_irreducible": PolyClass(
        lambda r, n, s, q: mv_counts.absirr_exact(r, n, q),
        None,
        lambda r, n, ctx, s: _abs_irreducible(ctx, r, n),
    ),
    "decomposable_mv": PolyClass(
        None,
        lambda r, n, s: mv_counts.mv_decomp_approx(r, n),
        lambda r, n, ctx, s: oracle.oracle_mv_decomp(r, n, ctx),
    ),
}


def _lookup(cls: str, s: Optional[int], what: str) -> Callable:
    """Field ``what`` of a class's entry, once the class name and s are
    checked: a ``needs_s`` class requires an integer s >= 2, any other class
    rejects any s."""
    entry = CLASSES.get(cls)
    if entry is None:
        raise ValueError(f"unknown class {cls!r}")
    if entry.needs_s:
        if not isinstance(s, int) or s < 2:
            raise ValueError(f"class {cls!r} needs an integer power exponent s >= 2")
    elif s is not None:
        raise ValueError(f"class {cls!r} takes no power exponent")
    fn = getattr(entry, what)
    if fn is None:
        raise ValueError(f"class {cls!r} has no {what} function")
    return fn


def exact_count(cls: str, r: int, n: int, s: Optional[int] = None,
                q: Optional[int] = None) -> Union[QPoly, int]:
    """The exact count of a class: symbolic, or computed in the integers at
    a prime power q."""
    return _lookup(cls, s, "exact")(r, n, s, q)


def count_report(cls: str, r: int, n: int, s: Optional[int] = None) -> mv_counts.CountReport:
    """The main term and certified error bound of a class."""
    return _lookup(cls, s, "report")(r, n, s)


def _oracle(cls: str, r: int, n: int, s: Optional[int]) -> Callable:
    """A class's oracle function, once the class, s, r and n are checked,
    so a caller can reject a query before it builds the field."""
    fn = _lookup(cls, s, "oracle")
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    return fn


def oracle_count(cls: str, r: int, n: int, ctx: FieldCtx, s: Optional[int] = None) -> int:
    """The exact count of a class over ``ctx`` by exhaustive enumeration."""
    return _oracle(cls, r, n, s)(r, n, ctx, s)
