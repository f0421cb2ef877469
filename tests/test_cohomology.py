"""Normalized 2-cohomology, the cocycle <-> crossed-system dictionary, gauge
maps, Hopf-module decomposition, and splitting/lifting through nilpotent
kernels."""

import importlib.util
import itertools
import os
import random

import pytest

import hopfcross.cohomology
import hopfcross.comodule
from hopfcross.algebra import (
    MAX_VIOLATIONS,
    FAlgebra,
    coaction_violations,
    convolution_invert,
    group_hopf_algebra,
    induced_algebra,
    ti,
)
from hopfcross.cli import parse_presentation
from hopfcross.cohomology import (
    AugmentedAlgebra,
    AugmentedCleftExtension,
    HModuleStructure,
    HopfModule,
    NormalizedCochain,
    classify_cleft_extension,
    colinear_splitting_nilpotent,
    crossed_system_from_cocycle,
    differential,
    hh2,
    hopf_module_decompose,
    ideal_power_chain,
    lift_comodule_algebra_map,
    quotient_comodule_algebra,
    reaugment_section,
    split_extension,
    sub_comodule_algebra,
)
from hopfcross.comodule import (
    ComoduleAlgebra,
    CrossedSystem,
    Section,
    _normalized_section,
    crossed_product,
    find_section,
    graded_bridge,
    induced_coaction,
)
from hopfcross.errors import (
    CocycleViolationError,
    KernelNotNilpotentError,
    NotConvolutionInvertibleError,
    NotHopfModuleError,
    NotSquareZeroError,
    ShapeMismatchError,
    ValidationError,
)
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    Matrix,
    PrimeField,
    Rationals,
    _dense_vec,
    _native,
    basis_vec,
)
from hopfcross.standard import dual_numbers, sweedler
from tests.oracles import (
    NotAlgebraMapError,
    counit_times_identity,
    decompose,
    embed_cochain,
    embed_plus,
    evaluate,
    gauge_iso,
    module_act,
    product_field,
    regular_comodule,
    rho_terms,
    trivial_sigma,
    vadd,
    vzero,
)

F3 = PrimeField(3)
Q = Rationals()


def trivial_setup(field, n=3):
    """H = field[Z/n], B = field[x]/(x^2), trivial action of H on B+."""
    h = group_hopf_algebra(GroupTable.cyclic(n), field)
    b = dual_numbers(field)
    aug = AugmentedAlgebra(b, (field.one, field.zero))
    act = HModuleStructure(h, aug, Matrix.from_cols(field, [basis_vec(field, 1, 0)] * n))
    return h, b, aug, act


def cochain2(field, values, dh):
    """A 2-cochain on a one-dimensional B+ from a flat tuple of dh^2 scalars."""
    return NormalizedCochain(2, Matrix(field, [values]))


def cochain1(field, values):
    return NormalizedCochain(1, Matrix(field, [values]))


def regular_hopf_module(h):
    f = h.field
    dh = h.dim
    act_cols = []
    for m in range(dh):
        for g in range(dh):
            v = [f.zero] * dh
            for k, c in h.mult_basis(m, g).items():
                v[k] = c
            act_cols.append(tuple(v))
    return HopfModule(h, Matrix.from_cols(f, act_cols), regular_comodule(h).coaction)


def eps_on_crossed_product(aug, h):
    out = []
    for i in range(aug.algebra.dim):
        for g in range(h.dim):
            out.append(aug.augmentation[i] * h.counit[g])
    return tuple(out)


# ---------------------------------------------------------------------------
# augmented algebras


def test_augmented_algebra_square_zero_flag():
    aug = AugmentedAlgebra(dual_numbers(Q), (Q.one, Q.zero))
    assert aug.square_zero and aug.plus_dim == 1
    aug2 = AugmentedAlgebra(product_field(Q), (Q.one, Q.zero))
    assert not aug2.square_zero  # the idempotent q spans B+ and q^2 = q


def test_square_zero_is_computed_only_where_it_is_read(monkeypatch):
    calls = []
    real = FAlgebra.sparse_mult

    def spy(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(FAlgebra, "sparse_mult", spy)
    aug = AugmentedAlgebra(dual_numbers(Q), (Q.one, Q.zero))
    assert calls == []
    assert aug.square_zero and len(calls) == 1


def test_the_plus_basis_is_computed_only_where_it_is_read(monkeypatch):
    calls = []
    real = Matrix.rref

    def spy(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "rref", spy)
    aug = AugmentedAlgebra(dual_numbers(Q), (Q.one, Q.zero))
    assert calls == [] and aug.plus_dim == 1
    c, plus = aug.decompose({0: Q.from_int(5), 1: Q.from_int(7)})
    assert (c, plus) == (Q.from_int(5), {0: Q.from_int(7)})
    # the plus basis and its coordinates are read off eps, with no elimination
    aug.decompose({0: Q.one, 1: Q.one})
    assert aug.plus_basis == [{1: Q.one}] and calls == []


def test_augmented_algebra_rejects_non_multiplicative():
    cases = [
        ((1, 1), r"not multiplicative at \(1, 1\)"),
        # unital is checked first, then the pairs in order
        ((2, 0), "does not send 1 to 1"),
        ((2, 1), "does not send 1 to 1"),
    ]
    for field in (Q, F3):
        for aug, message in cases:
            with pytest.raises(ValidationError, match=message):
                AugmentedAlgebra(dual_numbers(field), tuple(field.from_int(c) for c in aug))


def test_decompose_roundtrip():
    aug = AugmentedAlgebra(dual_numbers(Q), (Q.one, Q.zero))
    v = (Q.from_int(5), Q.from_int(7))
    c, plus = decompose(aug, v)
    assert c == Q.from_int(5)
    rebuilt = tuple(a + b for a, b in zip(embed_plus(aug, plus),
                                          (c * x for x in aug.algebra.one())))
    assert rebuilt == v
    assert aug.decompose(_native(v, Q)) == (c, _native(plus, Q))


# ---------------------------------------------------------------------------
# differentials and HH^2


def test_d2_after_d1_vanishes_on_random_cochains():
    h, _, _, act = trivial_setup(F3)
    rng = random.Random(0)
    for _ in range(100):
        vals = tuple(F3.from_int(rng.randrange(3)) for _ in range(3))
        t = cochain1(F3, vals)
        assert differential(differential(t, act), act).matrix.is_zero()


def test_hh2_matches_brute_force_over_f3():
    # oracle: exhaustive count over all 3^9 2-cochains and 3^3 1-cochains
    h, _, _, act = trivial_setup(F3)
    grp = GroupTable.cyclic(3)
    elems = range(3)
    cocycles = 0
    normalized_cocycles = 0
    for flat in itertools.product(range(3), repeat=9):
        s = {(g, t): flat[3 * g + t] for g in elems for t in elems}
        ok = all(
            (s[(u, l)] - s[(grp.mul(g, u), l)] + s[(g, grp.mul(u, l))] - s[(g, u)]) % 3 == 0
            for g in elems for u in elems for l in elems
        )
        if ok:
            cocycles += 1
            if all(s[(0, g)] == 0 and s[(g, 0)] == 0 for g in elems):
                normalized_cocycles += 1
    coboundaries = set()
    for tv in itertools.product(range(3), repeat=3):
        if tv[0] != 0:
            continue  # normalized 1-cochains
        coboundaries.add(tuple(
            (tv[t] - tv[grp.mul(g, t)] + tv[g]) % 3 for g in elems for t in elems
        ))
    def log3(n):
        k = 0
        while n > 1:
            n //= 3
            k += 1
        return k
    brute_dim = log3(normalized_cocycles) - log3(len(coboundaries))
    res = hh2(h, act)
    assert res.dimension == brute_dim == 1


def test_hh2_semisimple_case_is_zero():
    h, _, _, act = trivial_setup(Q)
    assert hh2(h, act).dimension == 0


def test_decide_separates_classes_exhaustively():
    h, _, _, act = trivial_setup(F3)
    res = hh2(h, act)
    rep = res.representative_cochains()[0]
    seen = set()
    d1 = differential
    for tv in itertools.product(range(3), repeat=2):
        t = cochain1(F3, (F3.zero, F3.from_int(tv[0]), F3.from_int(tv[1])))
        dt = d1(t, act).matrix
        for c in range(3):
            s = NormalizedCochain(2, rep.matrix.scale(F3.from_int(c)) + dt)
            coords = res.decide(s)
            assert coords == (c,)  # a native scalar over F3
            seen.add(coords)
    assert len(seen) == 3


def test_decide_rejects_non_cocycle():
    h, _, _, act = trivial_setup(F3)
    res = hh2(h, act)
    bad = cochain2(F3, tuple(F3.from_int(v) for v in (0, 0, 0, 0, 1, 0, 0, 0, 0)), 3)
    if differential(bad, act).matrix.is_zero():
        pytest.skip("chosen cochain happens to be a cocycle")
    with pytest.raises(CocycleViolationError):
        res.decide(bad)
    # decide tests the rows hh2 built, which fit only a dim B+ x dim H^2 cochain
    with pytest.raises(ShapeMismatchError):
        res.decide(cochain2(F3, (F3.zero,) * 4, 2))


def test_decide_rejects_a_cochain_of_the_wrong_shape():
    # dim B+ = 1 and dim H = 3: a 2-cochain is 1 x 9, and the same nine
    # entries as a 9 x 1 matrix are not one
    act, s = corpus_payload("f3z3-hmodule.json")
    res = hh2(act.hopf, act)
    assert res.decide(s) == (1,)  # a native scalar over F3
    with pytest.raises(ShapeMismatchError):
        res.decide(NormalizedCochain(2, s.matrix.transpose()))
    with pytest.raises(ShapeMismatchError):
        res.decide(NormalizedCochain(1, Matrix.zeros(F3, 1, 9)))


def test_crossed_system_from_cocycle_rejects_a_degree_1_cochain():
    # the zero 1-cochain is normalized and a 1-cocycle, so only its shape
    # tells it from a 2-cochain; a nonzero one fails the same check first
    act, _ = corpus_payload("f3z3-hmodule.json")
    for t in (Matrix.zeros(F3, 1, 3), Matrix(F3, [(F3.zero, F3.one, F3.zero)])):
        with pytest.raises(ShapeMismatchError):
            crossed_system_from_cocycle(act, NormalizedCochain(1, t))


# ---------------------------------------------------------------------------
# cocycles <-> crossed systems


def test_cocycle_to_crossed_system_and_back():
    h, _, aug, act = trivial_setup(F3)
    res = hh2(h, act)
    s = res.representative_cochains()[0]
    system = crossed_system_from_cocycle(act, s)
    cp = crossed_product(system)
    ext = AugmentedCleftExtension(cp, eps_on_crossed_product(aug, h))
    cls = classify_cleft_extension(ext)
    assert cls.class_coords == res.decide(s)
    assert cls.hh2_result.dimension == 1


def test_cocycle_violation_rejected():
    h, _, _, act = trivial_setup(F3)
    bad = cochain2(F3, tuple(F3.from_int(v) for v in (0, 0, 0, 0, 1, 0, 0, 0, 0)), 3)
    with pytest.raises(CocycleViolationError):
        crossed_system_from_cocycle(act, bad)


def test_unnormalized_cochain_rejected():
    h, _, _, act = trivial_setup(F3)
    bad = cochain2(F3, tuple(F3.from_int(v) for v in (1, 0, 0, 0, 0, 0, 0, 0, 0)), 3)
    with pytest.raises(CocycleViolationError):
        crossed_system_from_cocycle(act, bad)


def test_non_square_zero_base_rejected():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    aug = AugmentedAlgebra(product_field(Q), (Q.one, Q.zero))
    act = HModuleStructure(h, aug, Matrix.from_cols(Q, [basis_vec(Q, 1, 0)] * 2))
    zero = NormalizedCochain(2, Matrix.zeros(Q, 1, 4))
    with pytest.raises(NotSquareZeroError):
        crossed_system_from_cocycle(act, zero)


def test_classify_rejects_non_square_zero_coinvariants():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    b = product_field(Q)
    meas_cols = []
    for g in range(2):
        for i in range(2):
            meas_cols.append(tuple(h.counit[g] * c for c in basis_vec(Q, 2, i)))
    system = CrossedSystem(h, b, Matrix.from_cols(Q, meas_cols),
                           trivial_sigma(h, b), trivial_sigma(h, b))
    cp = crossed_product(system)
    eps = tuple(e * h.counit[g] for e in (Q.one, Q.zero) for g in range(2))
    with pytest.raises(NotSquareZeroError):
        classify_cleft_extension(AugmentedCleftExtension(cp, eps))


# ---------------------------------------------------------------------------
# gauge isomorphisms


def test_gauge_between_cohomologous_systems():
    h, _, aug, act = trivial_setup(F3)
    res = hh2(h, act)
    s = res.representative_cochains()[0]
    for tv in itertools.product(range(3), repeat=2):
        t = cochain1(F3, (F3.zero, F3.from_int(tv[0]), F3.from_int(tv[1])))
        s2 = NormalizedCochain(2, s.matrix - differential(t, act).matrix)
        source = crossed_system_from_cocycle(act, s)
        target = crossed_system_from_cocycle(act, s2)
        iso = gauge_iso(embed_cochain(aug, t), source, target)
        assert iso.is_invertible()


def test_gauge_fails_across_distinct_classes():
    h, _, aug, act = trivial_setup(F3)
    res = hh2(h, act)
    s = res.representative_cochains()[0]
    source = crossed_system_from_cocycle(act, s)
    zero = NormalizedCochain(2, Matrix.zeros(F3, 1, 9))
    target = crossed_system_from_cocycle(act, zero)
    for tv in itertools.product(range(3), repeat=2):
        t = cochain1(F3, (F3.zero, F3.from_int(tv[0]), F3.from_int(tv[1])))
        with pytest.raises(NotAlgebraMapError):
            gauge_iso(embed_cochain(aug, t), source, target)


def test_gauge_compares_distinct_hopf_objects_by_their_constants():
    # two trivial_setup calls build equal Hopf algebras as distinct objects;
    # the gauge checks that they agree by their structure constants
    h, _, aug, act = trivial_setup(F3)
    _, _, _, again = trivial_setup(F3)
    s = hh2(h, act).representative_cochains()[0]
    t = cochain1(F3, (F3.zero, F3.one, F3.from_int(2)))
    source = crossed_system_from_cocycle(act, s)
    target = crossed_system_from_cocycle(again, NormalizedCochain(
        2, s.matrix - differential(t, again).matrix))
    assert target.hopf is not source.hopf
    assert gauge_iso(embed_cochain(aug, t), source, target).is_invertible()
    # over k[Z/2] the constants differ, and the gauge is refused
    _, _, _, z2 = trivial_setup(F3, n=2)
    other = crossed_system_from_cocycle(z2, NormalizedCochain(2, Matrix.zeros(F3, 1, 4)))
    with pytest.raises(ShapeMismatchError, match="different Hopf algebras"):
        gauge_iso(embed_cochain(aug, t), source, other)


def test_gauge_equivalence_matches_class_equality_exhaustively():
    # over F3 with dim B+ = 1 every normalized 2-cocycle is c.rep + dt;
    # f_t exists between two cocycles exactly when their classes agree
    h, _, aug, act = trivial_setup(F3)
    res = hh2(h, act)
    rep = res.representative_cochains()[0]
    cocycles = []
    for c in range(3):
        for tv in itertools.product(range(3), repeat=2):
            t = cochain1(F3, (F3.zero, F3.from_int(tv[0]), F3.from_int(tv[1])))
            mat = rep.matrix.scale(F3.from_int(c)) + differential(t, act).matrix
            cocycles.append((c, tv, NormalizedCochain(2, mat)))
    for (c1, tv1, s1), (c2, tv2, s2) in itertools.product(cocycles[:6], cocycles[:6]):
        source = crossed_system_from_cocycle(act, s1)
        target = crossed_system_from_cocycle(act, s2)
        # the connecting cochain, if any, is t1 - t2
        diff = tuple((a - b) % 3 for a, b in zip((0,) + tv1, (0,) + tv2))
        t = cochain1(F3, tuple(F3.from_int(v) for v in diff))
        if c1 == c2:
            gauge_iso(embed_cochain(aug, t), source, target)
        else:
            with pytest.raises(NotAlgebraMapError):
                gauge_iso(embed_cochain(aug, t), source, target)


# ---------------------------------------------------------------------------
# split extensions


def test_split_extension_zero_class():
    h, b, aug, act = trivial_setup(F3)
    zero = NormalizedCochain(2, Matrix.zeros(F3, 1, 9))
    system = crossed_system_from_cocycle(act, zero)
    cp = crossed_product(system)
    ext = AugmentedCleftExtension(cp, eps_on_crossed_product(aug, h))
    res = split_extension(ext)
    assert res.split
    psi = res.splitting
    a = cp.algebra
    assert psi.apply(h.unit) == a.one()


def test_split_extension_nonzero_class_obstruction():
    h, _, aug, act = trivial_setup(F3)
    res = hh2(h, act)
    s = res.representative_cochains()[0]
    system = crossed_system_from_cocycle(act, s)
    cp = crossed_product(system)
    ext = AugmentedCleftExtension(cp, eps_on_crossed_product(aug, h))
    out = split_extension(ext)
    assert not out.split
    assert any(c for c in out.obstruction)


def test_split_extension_coboundary_class_splits():
    # a nonzero cocycle that is a coboundary still splits
    h, _, aug, act = trivial_setup(F3)
    t = cochain1(F3, (F3.zero, F3.one, F3.zero))
    s = differential(t, act)
    assert not s.matrix.is_zero()
    system = crossed_system_from_cocycle(act, s)
    cp = crossed_product(system)
    ext = AugmentedCleftExtension(cp, eps_on_crossed_product(aug, h))
    out = split_extension(ext)
    assert out.split


# ---------------------------------------------------------------------------
# Hopf modules


def test_regular_hopf_module_decomposes():
    for field in (Q, F3):
        h = group_hopf_algebra(GroupTable.cyclic(3), field)
        dec = hopf_module_decompose(regular_hopf_module(h))
        assert len(dec.coinvariant_basis) == 1
        assert dec.iso.is_invertible()


def test_broken_compatibility_rejected():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    mod = regular_hopf_module(h)
    # trivialize the action but keep the regular coaction: compatibility dies
    cols = []
    for m in range(2):
        for g in range(2):
            cols.append(tuple(h.counit[g] * c for c in basis_vec(Q, 2, m)))
    broken = HopfModule(h, Matrix.from_cols(Q, cols), mod.coaction)
    with pytest.raises(NotHopfModuleError):
        hopf_module_decompose(broken)


def test_broken_hopf_module_coaction_witnesses():
    # doubling the coaction keeps the compatibility law, which is linear in
    # rho, but breaks counitality and coassociativity
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    mod = regular_hopf_module(h)
    doubled = HopfModule(h, mod.action, mod.coaction.scale(2 * Q.one))
    assert doubled.validate() == [
        (kind, (m,)) for m in range(2)
        for kind in ("coaction-not-counital", "coaction-not-coassociative")
    ]


def test_dimension_multiple_of_hopf_dimension():
    h = group_hopf_algebra(GroupTable.cyclic(3), F3)
    dec = hopf_module_decompose(regular_hopf_module(h))
    assert len(dec.coinvariant_basis) * h.dim == 3


# ---------------------------------------------------------------------------
# colinear splitting through nilpotent kernels


def test_colinear_splitting_of_crossed_product():
    h, b, aug, act = trivial_setup(F3)
    res = hh2(h, act)
    s = res.representative_cochains()[0]
    system = crossed_system_from_cocycle(act, s)
    cp = crossed_product(system)
    pi = counit_times_identity(aug, h)
    sec = colinear_splitting_nilpotent(cp, pi)
    assert sec.phi.apply(h.unit) == cp.algebra.one()
    assert pi * sec.phi == Matrix.identity(F3, h.dim)


def test_colinear_splitting_deeper_nilpotency():
    # B = Q[x]/(x^2) gives kernel with I^2 = 0; a rank check on the chain
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    b = dual_numbers(Q)
    aug = AugmentedAlgebra(b, (Q.one, Q.zero))
    meas_cols = []
    for g in range(2):
        for i in range(2):
            meas_cols.append(tuple(h.counit[g] * c for c in basis_vec(Q, 2, i)))
    system = CrossedSystem(h, b, Matrix.from_cols(Q, meas_cols),
                           trivial_sigma(h, b), trivial_sigma(h, b))
    cp = crossed_product(system)
    pi = counit_times_identity(aug, h)
    sec = colinear_splitting_nilpotent(cp, pi)
    assert pi * sec.phi == Matrix.identity(Q, 2)


def test_non_nilpotent_kernel_rejected():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    b = product_field(Q)
    aug = AugmentedAlgebra(b, (Q.one, Q.zero))
    meas_cols = []
    for g in range(2):
        for i in range(2):
            meas_cols.append(tuple(h.counit[g] * c for c in basis_vec(Q, 2, i)))
    system = CrossedSystem(h, b, Matrix.from_cols(Q, meas_cols),
                           trivial_sigma(h, b), trivial_sigma(h, b))
    cp = crossed_product(system)
    pi = counit_times_identity(aug, h)
    with pytest.raises(KernelNotNilpotentError):
        colinear_splitting_nilpotent(cp, pi)


def test_ideal_power_chain_rejects_an_ideal_with_an_idempotent():
    # A = span(1, e, v) with e^2 = e and ev = ve = v^2 = 0, I = span(e, v):
    # V = span(v) lifts a basis of I/I^2 and I V = 0, yet I^2 = I^3 = span(e).
    # So I^(k+1) = I^k V may stand in for the power chain only once I is known
    # to be nilpotent, and the chain must see the stabilization.
    product = {(0, j): {j: Q.one} for j in range(3)}
    product.update({(j, 0): {j: Q.one} for j in range(3)})
    product[(1, 1)] = {1: Q.one}
    a = FAlgebra(Q, ("1", "e", "v"), product, basis_vec(Q, 3, 0))
    with pytest.raises(KernelNotNilpotentError, match="stabilized above zero"):
        ideal_power_chain(a, [{1: Q.one}, {2: Q.one}])


# ---------------------------------------------------------------------------
# lifting comodule algebra maps


def test_lift_through_split_extension():
    h, b, aug, act = trivial_setup(F3)
    zero = NormalizedCochain(2, Matrix.zeros(F3, 1, 9))
    system = crossed_system_from_cocycle(act, zero)
    cp = crossed_product(system)
    varpi = counit_times_identity(aug, h)
    target = regular_comodule(h)
    psi = Matrix.identity(F3, h.dim)
    res = lift_comodule_algebra_map(cp, target, varpi, psi)
    assert res.lifted
    assert varpi * res.lift == psi


def test_lift_obstructed_by_nonzero_class():
    h, _, aug, act = trivial_setup(F3)
    res2 = hh2(h, act)
    s = res2.representative_cochains()[0]
    system = crossed_system_from_cocycle(act, s)
    cp = crossed_product(system)
    varpi = counit_times_identity(aug, h)
    target = regular_comodule(h)
    psi = Matrix.identity(F3, h.dim)
    res = lift_comodule_algebra_map(cp, target, varpi, psi)
    assert not res.lifted
    assert res.obstruction_step == 1
    assert any(c for c in res.obstruction)


def test_lift_over_rationals():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    b = dual_numbers(Q)
    aug = AugmentedAlgebra(b, (Q.one, Q.zero))
    act = HModuleStructure(h, aug, Matrix.from_cols(Q, [basis_vec(Q, 1, 0)] * 2))
    zero = NormalizedCochain(2, Matrix.zeros(Q, 1, 4))
    system = crossed_system_from_cocycle(act, zero)
    cp = crossed_product(system)
    varpi = counit_times_identity(aug, h)
    res = lift_comodule_algebra_map(cp, regular_comodule(h), varpi,
                                    Matrix.identity(Q, 2))
    assert res.lifted


def test_lift_pulls_back_where_psi_does_not_span_the_lower_stage(monkeypatch):
    # C = F3[x]/(x^3) (x) F3[Z/3] onto D = H: J = x C has J^2 != 0, so the
    # stages are C/J, C/J^2 and C.  At the last step psi's image spans 3 of
    # the 6 dimensions of C/J^2, and the pull-back is a proper subalgebra
    h = group_hopf_algebra(GroupTable.cyclic(3), F3)
    o = F3.one
    b = FAlgebra(F3, ("1", "x", "x2"),
                 {(i, j): {i + j: o} for i in range(3) for j in range(3) if i + j < 3},
                 basis_vec(F3, 3, 0))
    aug = AugmentedAlgebra(b, basis_vec(F3, 3, 0))
    meas = Matrix.from_cols(F3, [tuple(h.counit[g] * c for c in basis_vec(F3, 3, i))
                                 for g in range(3) for i in range(3)])
    cp = crossed_product(CrossedSystem(h, b, meas, trivial_sigma(h, b), trivial_sigma(h, b)))
    varpi = counit_times_identity(aug, h)
    pulled = []

    def recorded(ca, span_vectors):
        out = sub_comodule_algebra(ca, span_vectors)
        pulled.append((ca.algebra.dim, out[0].algebra.dim))
        return out

    monkeypatch.setattr(hopfcross.cohomology, "sub_comodule_algebra", recorded)
    psi = Matrix.identity(F3, 3)
    res = lift_comodule_algebra_map(cp, regular_comodule(h), varpi, psi)
    assert res.lifted and varpi * res.lift == psi
    # the pull-back inside C/J^2 is all of it, so that stage is used as it
    # is and no subalgebra is built; inside C it is proper
    assert pulled == [(9, 6)]


# ---------------------------------------------------------------------------
# quotient and sub comodule algebras


def test_quotient_by_the_zero_ideal_keeps_the_structure():
    h, _, aug, act = trivial_setup(F3)
    s = hh2(h, act).representative_cochains()[0]
    cp = crossed_product(crossed_system_from_cocycle(act, s))
    quot, proj = quotient_comodule_algebra(cp, [])
    assert quot.algebra.product == cp.algebra.product
    assert quot.algebra.unit == cp.algebra.unit
    assert quot.coaction == cp.coaction
    assert proj == Matrix.identity(F3, cp.algebra.dim)


def test_sub_comodule_algebra_rejects_a_span_not_closed_under_the_product():
    h = group_hopf_algebra(GroupTable.cyclic(3), F3)
    with pytest.raises(ValidationError, match="not closed"):
        sub_comodule_algebra(regular_comodule(h), [{0: 1}, {1: 1}])


def test_sub_comodule_algebra_accepts_a_span_holding_no_basis_vector():
    # A = Q[Z/2] (x) Q[Z/2] coacting on its second leg, read in the basis
    # a'_i = a_i + a_3 (i < 3), a'_3 = a_3: the comodule subalgebra 1 (x) H =
    # span(a_0, a_1) = span(a'_0 - a'_3, a'_1 - a'_3) holds no a'_x
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    # Q[Z/2 x Z/2] on the basis ti(x, y, 2), the tensor square of Q[Z/2]
    a = group_hopf_algebra(GroupTable(["e", "b", "a", "ab"], [[x ^ y for y in range(4)]
                                                             for x in range(4)]), Q).as_algebra()
    ca = ComoduleAlgebra(a, h, Matrix.from_cols(Q, [basis_vec(Q, 8, ti(x, x % 2, 2))
                                                   for x in range(4)]))
    new = [vadd(basis_vec(Q, 4, i), basis_vec(Q, 4, 3)) for i in range(3)] + [basis_vec(Q, 4, 3)]
    to_new = Matrix.from_cols(Q, new).inverse().apply_sparse
    new = [_native(v, Q) for v in new]
    changed = ComoduleAlgebra(induced_algebra(a, new, to_new, ("a0", "a1", "a2", "a3")), h,
                              induced_coaction(ca, new, to_new))
    sub, inc = sub_comodule_algebra(changed, [{0: Q.one, 3: -Q.one}, {1: Q.one, 3: -Q.one}])
    assert inc == Matrix.from_cols(Q, [(1, 0, 0, -1), (0, 1, 0, -1)])
    assert sub.coaction == Matrix.from_cols(Q, [basis_vec(Q, 4, ti(0, 0, 2)),
                                                basis_vec(Q, 4, ti(1, 1, 2))])
    assert sub.algebra.mult_basis(1, 1) == {0: 1}


CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")


def corpus_payload(name):
    return parse_presentation(os.path.join(CORPUS, name)).payload


def ref_module_laws(module):
    """The dense module laws HopfModule checked before its native ones."""
    h, f = module.hopf, module.field
    dm, dh = module.dim, h.dim
    for m in range(dm):
        em = basis_vec(f, dm, m)
        if module_act(module, em, h.unit) != em:
            yield ("module-not-unital", (m,))
        for g in range(dh):
            for t in range(dh):
                lhs = module_act(module, module.action.col(ti(m, g, dh)),
                                          basis_vec(f, dh, t))
                gh = [f.zero] * dh
                for k, c in h.mult_basis(g, t).items():
                    gh[k] = c
                if lhs != module_act(module, em, tuple(gh)):
                    yield ("module-not-associative", (m, g, t))


def ref_compatibility_laws(module):
    """The dense rho(m a) = rho(m) rho(a) HopfModule checked before its
    native one, on (x, t)-keyed sums of field scalars."""
    h, f = module.hopf, module.field
    dm, dh = module.dim, h.dim
    for m in range(dm):
        rm = rho_terms(module, m)
        for g in range(dh):
            lhs = {}
            for x, c in enumerate(module.action.col(ti(m, g, dh))):
                if c:
                    for key, d in rho_terms(module, x).items():
                        lhs[key] = lhs.get(key, f.zero) + c * d
            rhs = {}
            for (x, t), c in rm.items():
                for (g1, g2), d in h.delta_basis(g).items():
                    mv = module.action.col(ti(x, g1, dh))
                    for k, u in h.mult_basis(t, g2).items():
                        for y, e in enumerate(mv):
                            if e:
                                rhs[(y, k)] = rhs.get((y, k), f.zero) + c * d * u * e
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                yield ("hopf-module-compatibility", (m, g))


def ref_hopf_module_witnesses(module):
    laws = itertools.chain(ref_module_laws(module),
                           coaction_violations(module.rho_basis, module.hopf, module.dim),
                           ref_compatibility_laws(module))
    return list(itertools.islice(laws, MAX_VIOLATIONS))


def bumped(m, i, j):
    """m with one added to its (i, j) entry."""
    rows = [list(r) for r in m.data]
    rows[i][j] = rows[i][j] + m.field.one
    return Matrix(m.field, rows, m.cols)


def test_hopf_module_laws_match_the_dense_oracle():
    # the native module and compatibility laws give the dense laws'
    # witnesses in their order, on valid modules and on every module one
    # entry away (seeded picks), and the decomposition map is the dense one
    modules = [regular_hopf_module(group_hopf_algebra(GroupTable.cyclic(3), F3)),
               regular_hopf_module(group_hopf_algebra(GroupTable.cyclic(2), Q)),
               regular_hopf_module(sweedler(Q)),
               regular_hopf_module(group_hopf_algebra(GroupTable.symmetric(3), F3))]
    rng = random.Random(36)
    for module in modules:
        f, h = module.field, module.hopf
        dm, dh = module.dim, h.dim
        assert module.validate() == ref_hopf_module_witnesses(module) == []
        dec = hopf_module_decompose(module)
        ref_iso = Matrix.from_cols(f, [
            module_act(module, _dense_vec(f, v, dm), basis_vec(f, dh, t))
            for v in dec.coinvariant_basis for t in range(dh)])
        assert dec.iso == ref_iso
        mutants = [HopfModule(h, bumped(module.action, rng.randrange(dm),
                                        rng.randrange(dm * dh)), module.coaction)
                   for _ in range(8)]
        mutants += [HopfModule(h, module.action, bumped(module.coaction, rng.randrange(dm * dh),
                                                        rng.randrange(dm)))
                    for _ in range(4)]
        for mutant in mutants:
            assert list(mutant._module_laws()) == list(ref_module_laws(mutant))
            assert list(mutant._compatibility_laws()) == list(ref_compatibility_laws(mutant))
            witnesses = mutant.validate()
            assert witnesses and witnesses == ref_hopf_module_witnesses(mutant)


# -- closed-form inverses of the normalized and re-augmented sections -----------


def cleft_family():
    """perfbench's CleftFamily: sigma + d(t) crossed products over k[Z/3]."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                         "inputs.py"))
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.CleftFamily


def sectioned_inputs():
    """(comodule algebra, augmentation or None): f3z3-cleft.json, M2(Q) graded
    by Z/2 through graded_bridge, and CleftFamily members over F3, F5 and Q
    with zero and nonzero cocycle parts."""
    pres = parse_presentation(os.path.join(CORPUS, "f3z3-cleft.json"))
    out = [(pres.payload, pres.augmentation),
           (graded_bridge(corpus_payload("m2-z2-graded.json")), None)]
    family = cleft_family()
    for field in (F3, PrimeField(5), Q):
        members = family(field, 3)
        rng = random.Random(field.characteristic)
        for c in (0, 1, 2):
            member = parse_presentation(members.cleft_doc(rng, c)[0])
            out.append((member.payload, member.augmentation))
    return out


def test_closed_form_section_inverses_equal_the_solved_ones():
    for ca, aug in sectioned_inputs():
        h, a = ca.hopf, ca.algebra
        sec = find_section(ca)
        assert sec.phi.apply(h.unit) == a.one()
        assert sec.phi_inv == convolution_invert(h, a, sec.phi)
        if aug is not None:
            ext = AugmentedCleftExtension(ca, aug)
            re = reaugment_section(ext, sec)
            eps = _dense_vec(h.field, aug, a.dim)  # the parser's native row
            assert all(evaluate(h.field, eps, re.phi.col(g)) == h.counit[g]
                       for g in range(h.dim))
            assert re.phi_inv == convolution_invert(h, a, re.phi)


def test_a_section_without_an_inverse_is_refused():
    ca = parse_presentation(os.path.join(CORPUS, "f3z3-cleft.json")).payload
    h, a = ca.hopf, ca.algebra
    phi = find_section(ca).phi
    # phi(g1) = 0 has no inverse, whatever the other columns
    cut = Matrix.from_cols(F3, [phi.col(0), vzero(F3, a.dim), phi.col(2)])
    for bad in (Matrix.zeros(F3, a.dim, h.dim), cut):
        with pytest.raises(NotConvolutionInvertibleError):
            _normalized_section(ca, bad)


def test_a_corrupted_closed_form_partner_is_refused(monkeypatch):
    # each partner is read off a phi^-1 with e_0 added at g1
    pres = parse_presentation(os.path.join(CORPUS, "f3z3-cleft.json"))
    ca = pres.payload
    sec = find_section(ca)
    # h |-> phi^-1(h) phi(1): h |-> phi^-1(h) phi(1) is off at g1
    solved = hopfcross.comodule.convolution_invert
    monkeypatch.setattr(hopfcross.comodule, "convolution_invert",
                        lambda c, alg, f: bumped(solved(c, alg, f), 0, 1))
    with pytest.raises(NotConvolutionInvertibleError):
        _normalized_section(ca, sec.phi)
    monkeypatch.undo()
    # phi^-1 * (eps_A o phi)
    ext = AugmentedCleftExtension(ca, pres.augmentation)
    with pytest.raises(NotConvolutionInvertibleError):
        reaugment_section(ext, Section(sec.phi, bumped(sec.phi_inv, 0, 1), ca))
