import itertools
import random

import pytest

import ffcount.uv_families as uf
from ffcount.ff import UniPoly, enumerate_monic_uni, field_from_q, field_make
from ffcount.oracle import oracle_decomp_census

rng = random.Random(0xC0111DE)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F7 = field_make(7, 1)


def rand_elem(ctx):
    return ctx.from_code(rng.randrange(ctx.q))


def rand_monic(ctx, deg, original=False):
    codes = [0 if original else rng.randrange(ctx.q)]
    codes += [rng.randrange(ctx.q) for _ in range(deg - 1)] + [1]
    return UniPoly.from_codes(ctx, codes)


# -- original shift -------------------------------------------------------


def test_shift_examples():
    f = UniPoly(F3, [0, 0, 1])
    assert uf.original_shift(f, 0) == f
    assert uf.original_shift(f, 1) == UniPoly(F3, [0, 2, 1])  # x^2+2x


def test_shift_requires_monic_original():
    with pytest.raises(ValueError, match="monic original"):
        uf.original_shift(UniPoly(F3, [1, 0, 1]), 1)


def test_shift_group_action_and_pair_compatibility():
    for ctx in (F3, F4, F5):
        for _ in range(25):
            f = rand_monic(ctx, rng.randint(2, 5), original=True)
            a, b = rand_elem(ctx), rand_elem(ctx)
            assert uf.original_shift(uf.original_shift(f, a), b) == uf.original_shift(
                f, a + b
            )
            g = rand_monic(ctx, rng.randint(2, 3), original=True)
            h = rand_monic(ctx, rng.randint(2, 3), original=True)
            sg, sh = uf.shift_pair(g, h, a)
            assert sg(sh) == uf.original_shift(g(h), a)
            assert sg.is_monic() and sg.is_original()


# -- Dickson polynomials ---------------------------------------------------


def test_dickson_small():
    assert uf.dickson(F7, 0, 1) == UniPoly(F7, [2])
    assert uf.dickson(F7, 1, 1) == UniPoly.x(F7)
    assert uf.dickson(F7, 2, 1) == UniPoly(F7, [-2, 0, 1])


def test_dickson_commuting_composition():
    T2 = uf.dickson(F7, 2, 1)
    T3 = uf.dickson(F7, 3, 1)
    T6 = uf.dickson(F7, 6, 1)
    assert T3(T2) == T6 == T2(T3)
    assert T6 == UniPoly(F7, [-2, 0, 9, 0, -6, 0, 1])


def test_dickson_semigroup_property():
    for ctx in (F5, F7):
        for _ in range(10):
            z = ctx.from_code(rng.randrange(1, ctx.q))
            m, ell = rng.randint(1, 8), rng.randint(1, 8)
            lhs = uf.dickson(ctx, m, z**ell)(uf.dickson(ctx, ell, z))
            assert lhs == uf.dickson(ctx, ell * m, z)
            assert uf.dickson(ctx, ell, z**m)(uf.dickson(ctx, m, z)) == lhs


def test_dickson_functional_equation():
    # T_m(y + z/y) = y^m + (z/y)^m for every nonzero y
    for ctx in (F5, F7, F4):
        for m in range(9):
            for zc in range(1, ctx.q):
                z = ctx.from_code(zc)
                T = uf.dickson(ctx, m, z)
                for yc in range(1, ctx.q):
                    y = ctx.from_code(yc)
                    assert T.eval(y + z / y) == y**m + (z / y) ** m


# -- the two distinct-degree families --------------------------------------


def test_ritt_first_example():
    fam = uf.ritt_family_first(2, 1, UniPoly(F5, [1, 1]), F5.elem(0))
    assert fam.f == UniPoly(F5, [0, 0, 1, 0, 2, 0, 1])  # x^2 (x^2+1)^2
    pairs = {(str(d.g), str(d.h)) for d in fam.decompositions}
    assert pairs == {("x^3+2x^2+x", "x^2"), ("x^2", "x^3+x")}
    assert fam.verify()


def test_ritt_first_monomial_w():
    fam = uf.ritt_family_first(3, 2, UniPoly(F5, [1]), F5.elem(0))
    assert fam.f == UniPoly.monomial(F5, 6)
    assert fam.verify()


def test_ritt_first_rejects():
    with pytest.raises(ValueError, match="wild left"):
        uf.ritt_family_first(2, 1, UniPoly(F2, [1, 1]), F2.elem(0))
    with pytest.raises(ValueError, match="gcd"):
        uf.ritt_family_first(4, 2, UniPoly(F5, [1]), F5.elem(0))
    with pytest.raises(ValueError, match="degenerate"):
        uf.ritt_family_first(2, 1, UniPoly(F5, [1]), F5.elem(0))  # left degree 1
    # k*w + l*x*w' vanishes when w = x^s and p | sl + k: here 2x + 3x = 0
    with pytest.raises(ValueError, match="degenerate"):
        uf.ritt_family_first(3, 2, UniPoly(F5, [0, 1]), F5.elem(0))


def test_ritt_first_shifted_still_collides():
    for _ in range(20):
        ctx = rng.choice((F3, F5, F7))
        ell = rng.choice([e for e in (2, 3, 5) if e % ctx.p])
        k = rng.choice([k for k in range(1, ell) if True])
        w = rand_monic(ctx, rng.randint(0, 3)) if rng.random() < 0.9 else UniPoly(ctx, [1])
        if w.degree == 0 and k == 1:
            continue
        a = rand_elem(ctx)
        try:
            fam = uf.ritt_family_first(ell, k, w, a)
        except ValueError:
            continue
        assert fam.verify()


def test_monomial_twist_identity_raw():
    # x^l o (x^k w(x^l)) = (x^k w^l) o x^l for any monic w, without the
    # family's validity conditions
    for ctx in (F2, F3, F5):
        for _ in range(15):
            ell, k = rng.randint(1, 4), rng.randint(1, 4)
            w = rand_monic(ctx, rng.randint(0, 3))
            xl = UniPoly.monomial(ctx, ell)
            lhs = xl(UniPoly.monomial(ctx, k) * w(xl))
            rhs = (UniPoly.monomial(ctx, k) * w**ell)(xl)
            assert lhs == rhs


def test_ritt_second_example():
    fam = uf.ritt_family_second(2, 3, F7.elem(1), F7.elem(0))
    T6 = uf.dickson(F7, 6, F7.elem(1))
    assert fam.f == uf._shift(T6, F7.elem(0))
    assert fam.verify()


def test_ritt_second_rejects_wild_degree():
    with pytest.raises(ValueError, match="characteristic"):
        uf.ritt_family_second(2, 3, F3.elem(1), F3.elem(0))
    with pytest.raises(ValueError, match="gcd"):
        uf.ritt_family_second(2, 4, F5.elem(1), F5.elem(0))


# -- Frobenius collisions ----------------------------------------------------


def test_frobenius_example():
    fam = uf.frobenius_family(UniPoly(F2, [0, 1, 1]))
    assert fam.f == UniPoly(F2, [0, 0, 1, 0, 1])
    assert len(fam.decompositions) == 2 and fam.verify()


def test_frobenius_rejects_xp():
    with pytest.raises(ValueError, match="not a collision"):
        uf.frobenius_family(UniPoly(F2, [0, 0, 1]))


def test_frobenius_monomial_h_other_degree():
    fam = uf.frobenius_family(UniPoly(F2, [0, 0, 0, 1]))  # h = x^3, f = x^6
    assert fam.verify()


def test_frobenius_nontrivial_coefficient_map():
    h = UniPoly(F4, [0, F4.from_code(2), 1])
    fam = uf.frobenius_family(h)
    assert fam.verify()
    # the right-side factor is phi(h), not h itself
    assert fam.decompositions[1].g != h


# -- degree r^2 families -----------------------------------------------------


def test_s_family_f4_example():
    fam = uf.s_family(F4, 1, 1, 0, 1, 2)
    assert fam.f == UniPoly(F4, [0, 1, 0, 0, 1])
    assert len(fam.decompositions) == 3
    assert fam.verify()


def test_s_family_f2_single_root():
    fam = uf.s_family(F2, 1, 1, 0, 1, 2)
    assert len(fam.decompositions) == 1
    assert fam.verify()


def test_s_family_root_count_bound():
    for _ in range(40):
        ctx = rng.choice((F2, F3, F4, F5, F7))
        p = ctx.p
        r = rng.choice([r for r in (p, p * p) if r * r <= 100])
        m = rng.choice([m for m in range(1, r) if (r - 1) % m == 0])
        u = ctx.from_code(rng.randrange(1, ctx.q))
        s = ctx.from_code(rng.randrange(1, ctx.q))
        fam = uf.s_family(ctx, u, s, rng.choice((0, 1)), m, r)
        assert len(fam.decompositions) <= r + 1
        assert fam.verify()


def test_m_family_example_and_involution():
    fam = uf.m_family(F5, 2, 1, 2, 5)
    assert fam.params["a_star"] == F5.elem(4)
    assert fam.params["m_star"] == 3
    g, h = fam.decompositions[0].g, fam.decompositions[0].h
    x = UniPoly.x(F5)
    assert g == x**2 * (x - UniPoly(F5, [2])) ** 3
    assert h == x**5 + (x**3 * (x - UniPoly(F5, [1])) ** 2 - x**5) * F5.elem(4)
    assert fam.verify()
    swapped = uf.m_family(F5, 4, 1, 3, 5)
    assert swapped.f == fam.f
    assert {(d.g, d.h) for d in swapped.decompositions} == {
        (d.g, d.h) for d in fam.decompositions
    }


def test_m_family_r4_has_no_admissible_m():
    F16 = field_make(2, 4)
    b = F16.from_code(2)
    a = F16.from_code(3)
    for m in range(2, 3):  # the only candidate in 1 < m < 3
        with pytest.raises(ValueError):
            uf.m_family(F16, a, b, m, 4)


def test_m_family_guards():
    with pytest.raises(ValueError, match="avoid"):
        uf.m_family(F5, 1, 1, 2, 5)  # a = b^r
    with pytest.raises(ValueError, match="1 < m"):
        uf.m_family(F5, 2, 1, 4, 5)
    with pytest.raises(ValueError, match="coprime"):
        uf.m_family(F5, 2, 1, 5, 25)  # guard fires before any construction
    with pytest.raises(ValueError, match="power of the characteristic"):
        uf.m_family(F5, 2, 1, 2, 6)


# -- classification ----------------------------------------------------------


def test_classify_examples():
    assert uf.classify_p2(UniPoly(F2, [0, 0, 1, 0, 1]))[0] == "F"
    assert uf.classify_p2(UniPoly(F2, [0, 0, 0, 0, 1]))[0] == "none"
    label, info = uf.classify_p2(UniPoly(F4, [0, 1, 0, 0, 1]))
    assert label == "S" and info["t_count"] == 3
    # the witness is the smallest shift with the first parameters in the
    # search order (m, eps, u, s for S; m, b, a for M), keys in that order
    F9 = field_make(3, 2)
    label, info = uf.classify_p2(UniPoly.from_codes(F9, [0, 0, 1, 3, 7, 8, 8, 0, 0, 1]))
    assert label == "S"
    assert [(k, getattr(v, "code", v)) for k, v in info.items()] == [
        ("decompositions", 2), ("w", 3), ("u", 4), ("s", 2), ("eps", 1), ("m", 2), ("t_count", 2)]
    f = UniPoly(F5, [0, 0, 0, 2, 0, 4, 0, 4, 0, 1, 0, 0, 0, 3, 0, 0, 0, 1, 0, 4, 0, 0, 0, 0, 0, 1])
    label, info = uf.classify_p2(f)
    assert label == "M"
    assert [(k, getattr(v, "code", v)) for k, v in info.items()] == [
        ("decompositions", 2), ("w", 1), ("a", 4), ("b", 3), ("m", 2), ("t_count", 2)]


def test_classify_m_case():
    # each f is a shift of an M family; the witness rebuilds the family that
    # its own shift of f lands in
    for a, b, w in ((2, 1, 0), (2, 1, 3), (1, 2, 1), (4, 3, 2), (3, 4, 4)):
        f = uf.original_shift(uf.m_family(F5, a, b, 2, 5).f, w)
        label, info = uf.classify_p2(f)
        assert label == "M" and info["t_count"] == 2, (a, b, w)
        fam = uf.m_family(F5, info["a"], info["b"], info["m"], 5)
        assert fam.f == uf.original_shift(f, info["w"]), (a, b, w)


@pytest.mark.parametrize("q", [3, 4, 8])  # F_2's one collision is Frobenius
def test_s_witnesses_rebuild_their_family(q):
    ctx = field_from_q(q)
    p = ctx.p
    seen = 0
    for key, by_split in oracle_decomp_census(p * p, ctx).details.items():
        if sum(by_split.values()) < 2:
            continue
        f = UniPoly.from_codes(ctx, list(key))
        label, info = uf.classify_p2(f)
        if label != "S":
            continue
        seen += 1
        fam = uf.s_family(ctx, info["u"], info["s"], info["eps"], info["m"], p)
        assert fam.f == uf.original_shift(f, info["w"]), key
        assert len(fam.decompositions) == info["t_count"], key
    assert seen, q


def test_classify_requires_degree_p_squared():
    with pytest.raises(ValueError, match="degree"):
        uf.classify_p2(UniPoly(F2, [0, 1, 1]))


@pytest.mark.parametrize("n, q", [(4, 2), (6, 2), (8, 2), (9, 2), (12, 2), (4, 3), (6, 3),
                                  (8, 3), (9, 3), (4, 4), (6, 4), (4, 5), (4, 8)])
def test_count_decompositions_matches_census(n, q):
    ctx = field_from_q(q)
    details = oracle_decomp_census(n, ctx).details
    for key, by_split in details.items():
        f = UniPoly.from_codes(ctx, list(key))
        assert len(uf.count_decompositions(f)) == sum(by_split.values()), key
    outside = (f for f in enumerate_monic_uni(ctx, n, original=True) if bytes(f.c) not in details)
    for f in itertools.islice(outside, 5):
        assert uf.count_decompositions(f) == [], f


def test_tame_uniqueness_from_census():
    # p does not divide deg g: the pair is determined by f and deg g
    for n, ctx in [(6, F5), (4, F3), (9, F2)]:
        rep = oracle_decomp_census(n, ctx)
        for by_split in rep.details.values():
            for e, count in by_split.items():
                if e % ctx.p:
                    assert count == 1


def test_frobenius_collision_count_helper():
    assert uf.frobenius_collision_count(2, 2, 4) == 1
    assert uf.frobenius_collision_count(2, 4, 4) == 3
    assert uf.frobenius_collision_count(3, 3, 9) == 8
    assert uf.frobenius_collision_count(2, 2, 8) == 8
