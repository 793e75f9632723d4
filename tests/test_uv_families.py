import functools
import itertools
import random
import time

import numpy as np
import pytest

import ffcount.oracle as orc
import ffcount.uv_counts as uc
import ffcount.uv_families as uf
from ffcount.ff import BudgetExceeded, UniPoly, field_from_q, field_make
from ffcount.oracle import oracle_decomp_census
from ffcount.series import divisors
from reference import count_decompositions, enumerate_monic_uni, original_shift

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
    assert original_shift(f, 0) == f
    assert original_shift(f, 1) == UniPoly(F3, [0, 2, 1])  # x^2+2x


def test_shift_requires_monic_original():
    with pytest.raises(ValueError, match="monic original"):
        original_shift(UniPoly(F3, [1, 0, 1]), 1)


def test_shift_group_action_and_pair_compatibility():
    for ctx in (F3, F4, F5):
        for _ in range(25):
            f = rand_monic(ctx, rng.randint(2, 5), original=True)
            a, b = rand_elem(ctx), rand_elem(ctx)
            assert original_shift(original_shift(f, a), b) == original_shift(
                f, a + b
            )
            g = rand_monic(ctx, rng.randint(2, 3), original=True)
            h = rand_monic(ctx, rng.randint(2, 3), original=True)
            sg, sh = uf.shift_pair(g, h, a)
            assert sg(sh) == original_shift(g(h), a)
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
        f = original_shift(uf.m_family(F5, a, b, 2, 5).f, w)
        label, info = uf.classify_p2(f)
        assert label == "M" and info["t_count"] == 2, (a, b, w)
        fam = uf.m_family(F5, info["a"], info["b"], info["m"], 5)
        assert fam.f == original_shift(f, info["w"]), (a, b, w)


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
        assert fam.f == original_shift(f, info["w"]), key
        assert len(fam.decompositions) == info["t_count"], key
    assert seen, q


def test_classify_over_f7_under_the_default_budget(monkeypatch):
    # q^(p-1) = 117,649 right components per f
    monkeypatch.delenv("FFCOUNT_BUDGET", raising=False)
    s_fam = max((uf.s_family(F7, u, s, eps, m, 7) for m in (1, 2, 3, 6) for eps in (0, 1)
                 for u in range(1, 7) for s in (2, 5)), key=lambda fam: len(fam.decompositions))
    assert len(s_fam.decompositions) >= 2
    for fam, w in ((s_fam, 4), (uf.m_family(F7, 2, 3, 3, 7), 5)):
        f = original_shift(fam.f, w)
        label, info = uf.classify_p2(f)
        assert label == fam.label and info["decompositions"] == len(fam.decompositions)
        if label == "S":
            rebuilt = uf.s_family(F7, info["u"], info["s"], info["eps"], info["m"], 7)
        else:
            rebuilt = uf.m_family(F7, info["a"], info["b"], info["m"], 7)
        assert rebuilt.f == original_shift(f, info["w"])


@pytest.mark.parametrize("q", [4, 9, 5])
def test_shifts_are_the_original_shifts(q):
    ctx = field_from_q(q)
    n = ctx.p**2
    fs = [rand_monic(ctx, n, original=True) for _ in range(6)]
    shifts = uf._shifts(ctx, np.array([f.c for f in fs]).T)
    assert shifts.shape == (n - 1, q, len(fs))
    for col, f in enumerate(fs):
        for w in range(q):
            assert shifts[:, w, col].tolist() == list(original_shift(f, ctx.from_code(w)).c[1:n]), (f, w)


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
        assert len(count_decompositions(f)) == sum(by_split.values()), key
    outside = (f for f in enumerate_monic_uni(ctx, n, original=True) if bytes(f.c) not in details)
    for f in itertools.islice(outside, 5):
        assert count_decompositions(f) == [], f


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


# -- the classifier against the UniPoly reference ------------------------------
#
# The reference is the Python classifier that the array kernels replaced: it
# builds every S and M family with the UniPoly constructors, keeps the first
# parameters per family polynomial in the search order, and shifts f one w
# at a time with UniPoly.compose.


@functools.lru_cache(maxsize=None)
def _reference_index(ctx):
    p = ctx.p
    index = {}

    def add(fam, **params):
        if len(fam.decompositions) >= 2:
            by_label = index.setdefault(fam.f.c, {})
            if fam.label not in by_label:
                by_label[fam.label] = dict(params, t_count=len(fam.decompositions))

    for m in divisors(p - 1):
        for eps in (0, 1):
            for u in ctx.nonzero_elements():
                for s in ctx.nonzero_elements():
                    add(uf.s_family(ctx, u, s, eps, m, p), u=u, s=s, eps=eps, m=m)
    for m in range(2, p - 1):
        for b in ctx.nonzero_elements():
            for a in ctx.elements():
                if not (a.is_zero() or a == b**p):
                    add(uf.m_family(ctx, a, b, m, p), a=a, b=b, m=m)
    return index


def _reference_classify(f, decompositions):
    """The UniPoly classifier, given f's decomposition count (the
    reference's own count, ``count_decompositions``, is checked against the
    census in ``test_count_decompositions_matches_census``)."""
    ctx = f.ctx
    if decompositions <= 1:
        return "none", {"decompositions": decompositions}
    is_frob = all(c == 0 for e, c in enumerate(f.c) if e % ctx.p)
    index = _reference_index(ctx)
    witness = {}
    for w in ctx.elements():
        for label, params in index.get(original_shift(f, w).c, {}).items():
            if label not in witness:
                witness[label] = {"w": w, **params}
    hits = (["F"] if is_frob else []) + [label for label in ("S", "M") if label in witness]
    assert len(hits) == 1, (f, hits)
    return hits[0], {"decompositions": decompositions, **witness.get(hits[0], {})}


def _as_codes(info):
    return [(k, getattr(v, "code", v)) for k, v in info.items()]


@functools.lru_cache(maxsize=None)
def _census_and_classes(q):
    ctx = field_from_q(q)
    rep = oracle_decomp_census(ctx.p**2, ctx)
    return rep, uf.classify_census(rep)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 16, 9, 5])
def test_classifier_matches_unipoly_reference(q):
    rep, classes = _census_and_classes(q)
    ctx = rep.ctx
    counts = rep.collisions.counts.sum(axis=1).tolist()
    assert len(classes) == len(counts) > 0
    for codes, count, (label, info) in zip(rep.collisions.codes.tolist(), counts, classes):
        f = UniPoly.from_codes(ctx, codes)
        want_label, want = _reference_classify(f, count)
        assert (label, _as_codes(info)) == (want_label, _as_codes(want)), codes
    # the one-column case is the same code path
    for codes, (label, info) in list(zip(rep.collisions.codes.tolist(), classes))[:20]:
        got_label, got = uf.classify_p2(UniPoly.from_codes(ctx, codes))
        assert (got_label, _as_codes(got)) == (label, _as_codes(info))


def test_classify_none_and_non_collisions_agree_with_count_decompositions():
    for ctx in (F3, F4, field_make(2, 3)):
        for f in itertools.islice(enumerate_monic_uni(ctx, ctx.p**2, original=True), 0, None, 7):
            label, info = uf.classify_p2(f)
            count = len(count_decompositions(f))
            assert info["decompositions"] == count, f
            assert (label == "none") == (count <= 1), f


@pytest.mark.parametrize("q", [27, 32, 64, 128, 256])
def test_classify_census_beyond_the_reference(q):
    rep, classes = _census_and_classes(q)
    ctx = rep.ctx
    counts = rep.collisions.counts.sum(axis=1).tolist()
    assert len(classes) == sum(v for k, v in rep.collision_histogram.items() if k >= 2)
    seen = 0
    for codes, count, (label, info) in zip(rep.collisions.codes.tolist(), counts, classes):
        assert info["decompositions"] == count, codes
        if label == "S":
            assert info["t_count"] == count, codes
            if seen < 10:  # the witness rebuilds its family from the shift
                seen += 1
                fam = uf.s_family(ctx, info["u"], info["s"], info["eps"], info["m"], ctx.p)
                assert fam.f == original_shift(UniPoly.from_codes(ctx, codes), info["w"]), codes
        else:
            assert label == "F" and count == 2, codes
    assert seen == 10


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256, 3, 9, 27, 5])
def test_d_p2_terms_are_the_per_label_sums(q):
    # a third route to the degree-p^2 count: sum decompositions - 1 over the
    # collisions of each label
    rep, classes = _census_and_classes(q)
    sums = dict.fromkeys("FSM", 0)
    for label, info in classes:
        sums[label] += info["decompositions"] - 1
    ctx = rep.ctx
    assert sums == uc.d_p2_terms(ctx.p, ctx.d), q
    assert rep.total == q ** (2 * ctx.p - 2) - sum(sums.values())


def test_classify_f5_in_seconds():
    rep = oracle_decomp_census(25, F5)
    uf._family_index.cache_clear()
    uf._right_components.cache_clear()
    uf._taylor_weights.cache_clear()
    start = time.perf_counter()
    classes = uf.classify_census(rep)
    elapsed = time.perf_counter() - start
    assert len(classes) == 720 and elapsed < 5.0, elapsed


def test_classifier_is_budgeted_before_it_builds(monkeypatch):
    # m collisions over F_9 need m * 9^2 (f, h) pairs; nothing of the
    # classifier may be built, or even looked up, before that is checked
    rep = _census_and_classes(9)[0]
    required = len(rep.collisions.codes) * 81
    caches = (uf._family_index, uf._right_components, uf._taylor_weights, orc._field_ops)
    before = [cached.cache_info() for cached in caches]
    monkeypatch.setenv("FFCOUNT_BUDGET", str(required - 1))
    with pytest.raises(BudgetExceeded, match="right components") as exc:
        uf.classify_census(rep)
    assert exc.value.required == required
    assert [cached.cache_info() for cached in caches] == before
    monkeypatch.setenv("FFCOUNT_BUDGET", str(required))
    got = uf.classify_census(rep)
    assert [(l, _as_codes(i)) for l, i in got] == [(l, _as_codes(i)) for l, i in _census_and_classes(9)[1]]


def test_family_index_f256_in_a_second():
    F256 = field_make(2, 8)
    uf._family_index.cache_clear()
    start = time.perf_counter()
    index = uf._family_index(F256)
    elapsed = time.perf_counter() - start
    keys, params = index["S"]
    # one S family per (eps, u, s) whose u has two or more roots t
    assert keys.shape[1] > 10_000 and index["M"][0].shape[1] == 0
    assert elapsed < 1.0, elapsed


def test_classifier_with_multiword_keys(monkeypatch):
    # three digits per word, so every key spans several uint64 words and
    # the shifts are found in the index by a binary search on all of them
    want = {q: _census_and_classes(q)[1] for q in (9, 5)}
    monkeypatch.setattr(orc, "_digits_per_word", lambda q: 3)
    uf._family_index.cache_clear()
    try:
        for q, classes in want.items():
            got = uf.classify_census(_census_and_classes(q)[0])
            assert [(l, _as_codes(i)) for l, i in got] == [(l, _as_codes(i)) for l, i in classes]
            assert len(uf._family_index(field_from_q(q))["S"][0]) > 1
    finally:
        uf._family_index.cache_clear()
