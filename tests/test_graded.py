"""Group-graded algebras, Morita contexts (kept as test oracles), and crossed products."""

import itertools
import os
import random

import pytest

from hopfcross import comodule, graded
from hopfcross.algebra import (
    FAlgebra,
    algebra_map_violations,
    group_hopf_algebra,
    induced_algebra,
    relative_tensor,
    require_morphism,
    ti,
)
from hopfcross.cli import parse_presentation
from hopfcross.comodule import (
    CrossedSystem,
    check_crossed_system,
    coinvariants,
    crossed_product,
    graded_bridge,
)
from hopfcross.errors import NotCrossedProductError, ValidationError
from hopfcross.graded import (
    GradedAlgebra,
    GradingReport,
    check_grading,
    is_strongly_graded,
    recognize_group_crossed_product,
)
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    Matrix,
    PrimeField,
    QuotientSpace,
    Rationals,
    _basis_row,
    _dense_vec,
    _native,
    basis_vec,
)
from hopfcross.standard import dual_numbers, matrix2
from tests.oracles import (
    graded_over_group,
    measuring_basis,
    product_field,
    restrict,
    sigma_basis,
    trivial_group,
)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
Z2 = GroupTable.cyclic(2)


def matrix2_graded(field=Q):
    # diagonal part in degree 0, antidiagonal part in degree 1
    return GradedAlgebra(matrix2(field), Z2, (0, 0, 1, 1))


def matrix_graded(field, n):
    """M_n(k) on the e_ij, graded by Z/n with deg e_ij = j - i."""
    o = field.one
    pairs = [(i, j) for i in range(n) for j in range(n)]
    at = {ij: k for k, ij in enumerate(pairs)}
    product = {(x, y): {at[(i, l)]: o} for x, (i, j) in enumerate(pairs)
               for y, (k, l) in enumerate(pairs) if j == k}
    unit = tuple(o if i == j else field.zero for i, j in pairs)
    alg = FAlgebra(field, tuple("e%d%d" % ij for ij in pairs), product, unit)
    return GradedAlgebra(alg, GroupTable.cyclic(n), tuple((j - i) % n for i, j in pairs))


def dual_numbers_graded(field=Q, square=None):
    return GradedAlgebra(dual_numbers(field, square), Z2, (0, 1))


def group_algebra_graded(grp, field=Q):
    """k-Gamma graded by itself: deg g = g."""
    n = grp.order
    o = field.one
    product = {(i, j): {grp.mul(i, j): o} for i in range(n) for j in range(n)}
    alg = FAlgebra(field, grp.elements, product, basis_vec(field, n, grp.identity))
    return GradedAlgebra(alg, grp, tuple(range(n)))


# -- check_grading ----------------------------------------------------------


def test_group_algebra_grading_passes():
    s3 = GroupTable.symmetric(3)
    assert check_grading(group_algebra_graded(s3)).ok


def test_matrix2_grading_passes():
    assert check_grading(matrix2_graded()).ok


def test_mislabeled_degree_fails_with_witness():
    # e12 marked degree 0: e21 * e12 = e11 then lands outside A_{1*0}
    ga = GradedAlgebra(matrix2(Q), Z2, (0, 0, 0, 1))
    report = check_grading(ga)
    assert not report.ok
    assert any(v[0] == "product-leaves-component" for v in report.violations)


def test_unit_outside_neutral_component_fails():
    ga = GradedAlgebra(product_field(Q), Z2, (0, 1))
    report = check_grading(ga)
    assert ("unit-outside-neutral-component", (1,)) in report.violations


# -- is_strongly_graded, and the Morita context kept as a test oracle -------
#
# A strong grading gives a strict Morita context (A_e, A_e, A_g, A_{g^-1})
# for each g, with bijective product maps A_g (x)_B A_{g^-1} -> B.  The
# functions below build those maps on hopfcross.algebra.relative_tensor, the
# builder the Galois map uses; strongly-graded re-checks its verdict with
# the Galois map instead.


class RefMoritaReport:
    """The two product maps out of A_g (x)_B A_{g^-1} and their ranks."""

    def __init__(self, g, mu_fwd, mu_bwd, fwd_surjective, bwd_surjective,
                 fwd_bijective, bwd_bijective):
        self.g = g
        self.mu_fwd = mu_fwd
        self.mu_bwd = mu_bwd
        self.fwd_surjective = fwd_surjective
        self.bwd_surjective = bwd_surjective
        self.fwd_bijective = fwd_bijective
        self.bwd_bijective = bwd_bijective


def ref_relative_tensor_over_neutral(ga, g, h):
    """A_g (x)_B A_h for B = A_e, with the product map mu into A_gh:
    (quotient, mu), mu in A_gh component coordinates.  ga must be a grading
    (check_grading passes)."""
    a = ga.algebra
    grp = ga.group
    f = a.field
    at = {k: u for u, k in enumerate(ga.component_indices(grp.mul(g, h)))}
    neutral = [_basis_row(f, i) for i in ga.component_indices(grp.identity)]
    quot, cols = relative_tensor(a, neutral, ga.component_indices(g), ga.component_indices(h),
                                 lambda x, y: {at[k]: c for k, c in
                                               a.sparse_mult(_basis_row(f, x),
                                                             _basis_row(f, y)).items()})
    return quot, Matrix.from_sparse_cols(a.field, len(at), cols)


def ref_morita_context(ga, g):
    """The product maps A_g (x)_B A_{g^-1} -> B and A_{g^-1} (x)_B A_g -> B
    for B = A_e; ga must be a grading (check_grading passes)."""
    grp = ga.group
    ginv = grp.inv[g]
    e = grp.identity
    _, mu_f = ref_relative_tensor_over_neutral(ga, g, ginv)
    _, mu_b = ref_relative_tensor_over_neutral(ga, ginv, g)
    db = ga.component_dim(e)
    fwd_surj = mu_f.rank() == db
    bwd_surj = mu_b.rank() == db
    fwd_bij = fwd_surj and mu_f.cols == db
    bwd_bij = bwd_surj and mu_b.cols == db
    if fwd_surj and bwd_surj and not (fwd_bij and bwd_bij):
        # Lemma-level consequence: a strict Morita context here is bijective
        raise ValidationError("strict Morita context with non-bijective product maps")
    return RefMoritaReport(grp.elements[g], mu_f, mu_b, fwd_surj, bwd_surj, fwd_bij, bwd_bij)



def test_matrix2_strongly_graded_all_pairs():
    ok, table = is_strongly_graded(matrix2_graded())
    assert ok
    assert all(table.values()) and len(table) == 4


def test_dual_numbers_not_strongly_graded():
    ok, table = is_strongly_graded(dual_numbers_graded())
    assert not ok
    assert table[("g", "g")] is False  # x * x = 0 misses A_1


def test_trivial_group_strongly_graded():
    ga = GradedAlgebra(matrix2(Q), trivial_group(), (0, 0, 0, 0))
    ok, _ = is_strongly_graded(ga)
    assert ok


def test_matrix2_morita_maps_bijective():
    rep = ref_morita_context(matrix2_graded(), 1)
    assert rep.fwd_bijective and rep.bwd_bijective
    # A_g (x)_B A_g has dimension 4 before the relations, 2 after
    assert rep.mu_fwd.cols == 2 and rep.mu_fwd.rows == 2


def test_dual_numbers_morita_maps_zero():
    rep = ref_morita_context(dual_numbers_graded(), 1)
    assert not rep.fwd_surjective and not rep.bwd_surjective
    assert all(not c for row in rep.mu_fwd.data for c in row)


def test_neutral_morita_context_is_product():
    rep = ref_morita_context(matrix2_graded(), 0)
    assert rep.fwd_bijective and rep.bwd_bijective


def test_strongly_graded_implies_all_pairs_bijective():
    # mu_{g,g^-1} surjective forces bijectivity of every mu_{g,h}
    ga = matrix2_graded()
    ok, _ = is_strongly_graded(ga)
    assert ok
    for g in range(2):
        for h in range(2):
            quot, mu = ref_relative_tensor_over_neutral(ga, g, h)
            assert mu.rank() == ga.component_dim(Z2.mul(g, h)) == quot.dim


def ref_dense_relative_tensor_over_neutral(ga, g, h):
    """(A_g (x)_B A_h, mu into A_gh) from the middle-B relations and dense
    basis products: the builder before algebra.relative_tensor."""
    a = ga.algebra
    f = a.field
    e = ga.group.identity
    gi = ga.component_indices(g)
    hi = ga.component_indices(h)
    dg, dh = len(gi), len(hi)
    relations = []
    for s, i in enumerate(gi):
        for bidx in ga.component_indices(e):
            xb = restrict(ga, g, a.mult(basis_vec(f, a.dim, i), basis_vec(f, a.dim, bidx)))
            for t, j in enumerate(hi):
                by = restrict(ga, h, a.mult(basis_vec(f, a.dim, bidx), basis_vec(f, a.dim, j)))
                rel = [f.zero] * (dg * dh)
                for s2, c in enumerate(xb):
                    rel[ti(s2, t, dh)] = rel[ti(s2, t, dh)] + c
                for t2, c in enumerate(by):
                    rel[ti(s, t2, dh)] = rel[ti(s, t2, dh)] - c
                relations.append(_native(rel, f))
    quot = QuotientSpace(f, dg * dh, relations)
    gh = ga.group.mul(g, h)
    cols = []
    for t in range(quot.dim):
        amb = _dense_vec(f, quot.lift(_basis_row(f, t)), dg * dh)
        acc = [f.zero] * ga.component_dim(gh)
        for flat, c in enumerate(amb):
            if c:
                s, u = divmod(flat, dh)
                prod = a.mult(basis_vec(f, a.dim, gi[s]), basis_vec(f, a.dim, hi[u]))
                for idx, val in enumerate(restrict(ga, gh, prod)):
                    acc[idx] = acc[idx] + c * val
        cols.append(tuple(acc))
    mu = Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, ga.component_dim(gh), 0)
    return quot, mu


def morita_oracle_cases():
    from tests.test_comodule import twisted_crossed_product

    cases = []
    for name in sorted(os.listdir(CORPUS)):
        payload = parse_presentation(os.path.join(CORPUS, name)).payload
        if isinstance(payload, GradedAlgebra):
            cases.append((name, payload))
    for field in (F3, F5, Q):
        for seed in (1, 2):
            ga, _ = graded_over_group(twisted_crossed_product(field, 3, seed),
                                      GroupTable.cyclic(3))
            cases.append(("crossed %r seed %d" % (field, seed), ga))
    for field in (Q, F3):
        cases.append(("k[S3] %r" % (field,), group_algebra_graded(GroupTable.symmetric(3), field)))
    cases.append(("M3 by Z/3 over F5", matrix_graded(F5, 3)))
    return cases


def test_relative_tensor_over_neutral_matches_the_builder_it_replaced():
    names = set()
    for name, ga in morita_oracle_cases():
        names.add(name)
        for g in range(ga.group.order):
            for h in range(ga.group.order):
                quot, mu = ref_dense_relative_tensor_over_neutral(ga, g, h)
                got_quot, got_mu = ref_relative_tensor_over_neutral(ga, g, h)
                assert got_quot.dim == quot.dim, (name, g, h)
                assert got_mu == mu, (name, g, h)
                assert got_mu.rank() == mu.rank(), (name, g, h)
    assert {"kx2-graded.json", "m2-z2-graded.json"} <= names


# -- the group crossed product engine, kept as a test oracle ----------------
#
# recognize_group_crossed_product goes through the Hopf crossed product over
# k[Gamma] in hopfcross.comodule.  The functions below are the group-side
# engine it replaced: per-g automorphisms of B and a unit-valued sigma on
# Gamma x Gamma, checked and multiplied out directly from (1.1)-(1.3).


class RefGroupCrossedSystem:
    """Per-g algebra automorphisms of B plus a unit-valued 2-cocycle sigma."""

    def __init__(self, base, group, action, sigma, sigma_inv):
        self.base = base
        self.group = group
        self.action = tuple(action)          # list of dB x dB matrices
        self.sigma = dict(sigma)             # (g, h) -> vector in B
        self.sigma_inv = dict(sigma_inv)


def ref_check_group_crossed_system(s):
    b = s.base
    grp = s.group
    f = b.field
    e = grp.identity
    violations = []
    one = b.one()
    for g in range(grp.order):
        act = s.action[g]
        for name, idx in algebra_map_violations(b, b, act.native_cols()):
            if name == "unit":
                violations.append(("action-not-unital-endomorphism", (g,)))
            else:
                violations.append(("action-not-multiplicative", (g,) + idx))
        if not act.is_invertible():
            violations.append(("action-not-bijective", (g,)))
    for (g, h), val in s.sigma.items():
        inv = s.sigma_inv[(g, h)]
        if b.mult(val, inv) != one or b.mult(inv, val) != one:
            violations.append(("sigma-not-a-unit", (g, h)))
    # (1.1)
    if s.action[e] != Matrix.identity(f, b.dim):
        violations.append(("neutral-action-not-identity", ()))
    for g in range(grp.order):
        if s.sigma[(g, e)] != one or s.sigma[(e, g)] != one:
            violations.append(("sigma-not-normalized", (g,)))
    # (1.2)
    for g in range(grp.order):
        for h in range(grp.order):
            gh = grp.mul(g, h)
            sig = s.sigma[(g, h)]
            for i in range(b.dim):
                bi = basis_vec(f, b.dim, i)
                lhs = b.mult(s.action[g].apply(s.action[h].apply(bi)), sig)
                rhs = b.mult(sig, s.action[gh].apply(bi))
                if lhs != rhs:
                    violations.append(("twisted-module-law", (g, h, i)))
    # (1.3)
    for g in range(grp.order):
        for h in range(grp.order):
            for l in range(grp.order):
                lhs = b.mult(s.action[g].apply(s.sigma[(h, l)]), s.sigma[(g, grp.mul(h, l))])
                rhs = b.mult(s.sigma[(g, h)], s.sigma[(grp.mul(g, h), l)])
                if lhs != rhs:
                    violations.append(("cocycle-law", (g, h, l)))
    return GradingReport(violations)


def ref_group_crossed_product(s):
    """B x|_sigma Gamma on the basis {b_i u_g}, index b-major."""
    report = ref_check_group_crossed_system(s)
    if not report.ok:
        raise ValidationError("invalid group crossed system: %r" % (report,))
    b = s.base
    grp = s.group
    f = b.field
    n = grp.order
    dim = b.dim * n
    labels = tuple("%s.u_%s" % (bl, grp.elements[g]) for bl in b.basis for g in range(n))
    product = {}
    for i in range(b.dim):
        for g in range(n):
            for j in range(b.dim):
                for h in range(n):
                    # b_i (g -> b_j) sigma(g, h) u_{gh}
                    acted = s.action[g].apply(basis_vec(f, b.dim, j))
                    coeff = b.mult(b.mult(basis_vec(f, b.dim, i), acted), s.sigma[(g, h)])
                    gh = grp.mul(g, h)
                    terms = {ti(k, gh, n): c for k, c in enumerate(coeff) if c}
                    if terms:
                        product[(ti(i, g, n), ti(j, h, n))] = terms
    unit = [f.zero] * dim
    for i, c in enumerate(b.unit):
        if c:
            unit[ti(i, grp.identity, n)] = c
    algebra = FAlgebra(f, labels, product, tuple(unit))
    degree = tuple(g for _ in range(b.dim) for g in range(n))
    ga = GradedAlgebra(algebra, grp, degree)
    grading = check_grading(ga)
    if not grading.ok:
        raise ValidationError("crossed product fails grading: %r" % (grading,))
    return ga


def over_group_algebra(s):
    """The same data as a crossed system over k[Gamma]: g . b = action[g] b
    and sigma(g (x) h) = sigma[(g, h)] on the group-like basis."""
    b, grp = s.base, s.group
    f = b.field
    n = grp.order
    measuring = Matrix.from_cols(f, [s.action[g].col(i) for g in range(n) for i in range(b.dim)])
    sigma, sigma_inv = (Matrix.from_cols(f, [table[(g, h)] for g in range(n) for h in range(n)])
                        for table in (s.sigma, s.sigma_inv))
    return CrossedSystem(group_hopf_algebra(grp, f), b, measuring, sigma, sigma_inv)


def graded_crossed_product(s):
    """B #_sigma k[Gamma] for the group data s, read as a Gamma-graded algebra."""
    return graded_over_group(crossed_product(over_group_algebra(s)), s.group)[0]


# -- group crossed systems ---------------------------------------------------


def scalar_system(field, c):
    """B = k, Gamma = Z/2, trivial action, sigma(g, g) = c."""
    base = FAlgebra(field, ("1",), {(0, 0): {0: field.one}}, (field.one,))
    ident = Matrix.identity(field, 1)
    one = (field.one,)
    sigma = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): (c,)}
    cinv = field.one / c
    sigma_inv = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): (cinv,)}
    return RefGroupCrossedSystem(base, Z2, (ident, ident), sigma, sigma_inv)


def permutation_system(field, grp, n, move):
    """B = k^n on its idempotents p_i, Gamma acting by g . p_i = p_move(g, i),
    sigma = 1."""
    base = FAlgebra(field, tuple("p%d" % i for i in range(n)),
                    {(i, i): {i: field.one} for i in range(n)}, (field.one,) * n)
    action = [Matrix.from_cols(field, [basis_vec(field, n, move(g, i)) for i in range(n)])
              for g in range(grp.order)]
    one = base.one()
    sigma = {(g, h): one for g in range(grp.order) for h in range(grp.order)}
    return RefGroupCrossedSystem(base, grp, action, sigma, dict(sigma))


def shift_system(field, n):
    """Z/n shifting the idempotents of k^n: the crossed product is M_n(k)
    graded by deg e_ij = j - i."""
    return permutation_system(field, GroupTable.cyclic(n), n, lambda g, i: (i + g) % n)


def s3_system(field):
    """S_3 permuting the idempotents of k^3, in the order of GroupTable.symmetric."""
    perms = sorted(itertools.permutations(range(3)))
    return permutation_system(field, GroupTable.symmetric(3), 3, lambda g, i: perms[g][i])


def swap_system(field):
    """B = k x k, Gamma = Z/2 with the swap action, sigma = 1."""
    return shift_system(field, 2)


def test_trivial_system_passes():
    assert check_crossed_system(over_group_algebra(scalar_system(Q, Q.one))) == []


def test_scalar_cocycle_passes():
    c = Q.from_int(5)
    assert check_crossed_system(over_group_algebra(scalar_system(Q, c))) == []


def test_unnormalized_sigma_fails():
    violations = check_crossed_system(over_group_algebra(_unnormalized_sigma()))
    assert ("sigma-not-normalized", (1,)) in violations


def test_swap_system_passes():
    assert check_crossed_system(over_group_algebra(swap_system(Q))) == []


@pytest.mark.parametrize("system", [
    scalar_system(Q, Q.one), scalar_system(Q, Q.from_int(3)), scalar_system(F5, F5.from_int(2)),
    swap_system(Q), shift_system(Q, 3), shift_system(F3, 3), shift_system(Q, 4), s3_system(F5),
], ids=lambda s: "dimB%d-%s" % (s.base.dim, "-".join(s.group.elements)))
def test_crossed_product_over_group_algebra_matches_the_oracle(system):
    # graded_over_group lists the product degree by degree: the oracle is
    # moved to that homogeneous basis before the structure constants are
    # compared
    ga, change = graded_over_group(crossed_product(over_group_algebra(system)), system.group)
    ref = ref_group_crossed_product(system)
    homogeneous = [change.col(t) for t in range(change.cols)]
    for vec, g in zip(homogeneous, ga.degree):
        assert restrict(ref, g, vec)  # lies in the oracle's A_g
    moved = induced_algebra(ref.algebra, [_native(v, ref.field) for v in homogeneous],
                            change.inverse().apply_sparse, ga.algebra.basis)
    assert ga.algebra.canonical_constants() == moved.canonical_constants()


def _unnormalized_sigma():
    s = scalar_system(Q, Q.one)
    two = Q.from_int(2)
    s.sigma[(1, 0)] = (two,)
    s.sigma_inv[(1, 0)] = (Q.one / two,)
    return s


def _zero_sigma():
    s = scalar_system(Q, Q.one)
    s.sigma[(1, 1)] = (Q.zero,)
    s.sigma_inv[(1, 1)] = (Q.zero,)
    return s


def _non_multiplicative():
    # g sends p to 2p and q to q - p on B = k x k: unital, but g . p is not
    # an idempotent
    s = swap_system(Q)
    s.action = (s.action[0], Matrix(Q, [[Q.from_int(2), -Q.one], [Q.zero, Q.one]]))
    return s


def _non_bijective():
    # g sends B = k x k onto k 1, a unital algebra map that is not onto
    s = swap_system(Q)
    s.action = (s.action[0], Matrix(Q, [[Q.one, Q.zero], [Q.one, Q.zero]]))
    return s


@pytest.mark.parametrize("make, witness", [
    (_unnormalized_sigma, "sigma-not-normalized"),
    (_zero_sigma, "sigma-not-convolution-invertible"),
    (_non_multiplicative, "measuring-not-multiplicative"),
    (_non_bijective, "twisted-module-law"),
], ids=["unnormalized-sigma", "zero-sigma", "non-multiplicative-action",
        "non-bijective-action"])
def test_the_oracle_and_the_crossed_system_check_agree_on_corruptions(make, witness):
    s = make()
    violations = check_crossed_system(over_group_algebra(s))
    assert ref_check_group_crossed_system(s).ok == (violations == [])
    assert violations and violations[0][0] == witness


# -- crossed products over k[Gamma] -----------------------------------------


def test_scalar_crossed_product_is_quadratic_extension():
    c = Q.from_int(3)
    ga = graded_crossed_product(scalar_system(Q, c))
    a = ga.algebra
    assert a.dim == 2
    u = basis_vec(Q, 2, 1)  # the u_g basis vector
    assert a.mult(u, u) == (c, Q.zero)  # u^2 = c * 1
    ok, _ = is_strongly_graded(ga)
    assert ok


def test_trivial_crossed_product_is_group_algebra():
    ga = graded_crossed_product(scalar_system(Q, Q.one))
    a = ga.algebra
    u = basis_vec(Q, 2, 1)
    assert a.mult(u, u) == a.one()


def test_swap_crossed_product_isomorphic_to_matrix2():
    a = crossed_product(over_group_algebra(swap_system(Q))).algebra
    m2 = matrix2(Q)
    # candidate: p(x)u_1 -> e11, q(x)u_1 -> e22, p(x)u_g -> e12, q(x)u_g -> e21
    # basis order of a is b-major: p.u_1, p.u_g, q.u_1, q.u_g
    cols = [
        basis_vec(Q, 4, 0),  # e11
        basis_vec(Q, 4, 2),  # e12
        basis_vec(Q, 4, 1),  # e22
        basis_vec(Q, 4, 3),  # e21
    ]
    phi = Matrix.from_cols(Q, cols)
    assert phi.is_invertible()
    assert phi.apply(a.one()) == m2.one()
    for i in range(4):
        for j in range(4):
            ei, ej = basis_vec(Q, 4, i), basis_vec(Q, 4, j)
            assert phi.apply(a.mult(ei, ej)) == m2.mult(phi.apply(ei), phi.apply(ej))


def test_crossed_product_neutral_component_is_base():
    base = coinvariants(crossed_product(over_group_algebra(swap_system(Q)))).subalgebra
    ref = product_field(Q)
    assert base.canonical_constants() == ref.canonical_constants()


def test_invalid_system_rejected():
    with pytest.raises(ValidationError):
        crossed_product(over_group_algebra(_zero_sigma()))


# -- recognize_group_crossed_product ----------------------------------------


@pytest.mark.parametrize("ga", [GradedAlgebra(matrix2(Q), Z2, (0, 0, 0, 1)),
                                GradedAlgebra(product_field(Q), Z2, (0, 1))],
                         ids=["product-leaves-component", "unit-outside-neutral-component"])
def test_recognition_words_a_bad_grading_as_check_grading_does(ga):
    # the grading is checked by the comodule algebra built from it; the
    # message is the one check_grading gives
    with pytest.raises(ValidationError) as info:
        recognize_group_crossed_product(ga)
    assert str(info.value) == "input is not a graded algebra: %r" % (check_grading(ga),)


def test_recognize_matrix2():
    rec = recognize_group_crossed_product(matrix2_graded())
    # unit of the antidiagonal component: the swap matrix e12 + e21, as a
    # sparse native row
    assert rec.units[1] == {2: Q.one, 3: Q.one}
    # sigma(g, g) = swap^2 = identity
    assert sigma_basis(rec.system, 1, 1) == (Q.one, Q.one)
    # the action by g swaps the two diagonal idempotents
    assert measuring_basis(rec.system, 1, 0) == basis_vec(Q, 2, 1)
    assert rec.iso.is_invertible()


def test_recognize_dual_numbers_fails_definitively_over_q():
    # det(L_a) on A_g = kx is identically zero, certified by evaluation
    with pytest.raises(NotCrossedProductError) as exc:
        recognize_group_crossed_product(dual_numbers_graded())
    assert exc.value.definitive


def test_recognize_dual_numbers_fails_exhaustively_over_f3():
    f3 = PrimeField(3)
    with pytest.raises(NotCrossedProductError) as exc:
        recognize_group_crossed_product(dual_numbers_graded(f3))
    assert exc.value.definitive


def test_recognize_group_algebra_is_identity():
    s3 = GroupTable.symmetric(3)
    ga = group_algebra_graded(s3)
    rec = recognize_group_crossed_product(ga)
    assert rec.iso == Matrix.identity(Q, 6)
    one = rec.system.base.one()
    assert all(sigma_basis(rec.system, g, h) == one for g in range(6) for h in range(6))


def test_recognize_roundtrip_on_scalar_product():
    c = Q.from_int(7)
    ga = graded_crossed_product(scalar_system(Q, c))
    rec = recognize_group_crossed_product(ga)
    again = crossed_product(rec.system)
    assert rec.iso.apply(ga.algebra.one()) == again.algebra.one()
    # u^2 = c survives the roundtrip (sigma(g,g) must still be a unit times c)
    assert sigma_basis(rec.system, 1, 1) != (Q.zero,)


def test_recognize_one_sided_unit_is_not_definitive(monkeypatch):
    # a unit candidate without a two-sided inverse stops recognition with the
    # same non-definitive negative as a search that ran out of budget
    monkeypatch.setattr(graded, "_find_component_unit",
                        lambda ga, g, budget: ({2: Q.one}, True))
    with pytest.raises(NotCrossedProductError, match="one-sided") as exc:
        recognize_group_crossed_product(matrix2_graded())
    assert not exc.value.definitive


def test_theorem_consistency_three_verdicts_agree():
    """Unit-in-every-component <=> strongly graded + free components of rank
    dim B <=> recognition succeeds."""
    cases = [
        (matrix2_graded(), True),
        (dual_numbers_graded(), False),
        (group_algebra_graded(GroupTable.cyclic(3)), True),
        (graded_crossed_product(swap_system(Q)), True),
        (dual_numbers_graded(PrimeField(3)), False),
    ]
    for ga, expected in cases:
        strong, _ = is_strongly_graded(ga)
        db = ga.component_dim(ga.group.identity)
        free_ranks = all(
            ga.component_dim(g) == db for g in range(ga.group.order)
        )
        try:
            recognize_group_crossed_product(ga)
            recognized = True
        except NotCrossedProductError:
            recognized = False
        assert recognized == expected
        assert (strong and free_ranks) == expected


# -- recognition under a homogeneous change of basis -------------------------


def homogeneous_change(ga, rng):
    """ga on a new basis that keeps the grading: the basis is permuted, then
    each A_g gets a dense invertible change of basis of its own."""
    a = ga.algebra
    f = a.field
    order = list(range(a.dim))
    rng.shuffle(order)
    basis = [None] * a.dim
    for g in range(ga.group.order):
        slots = [k for k in range(a.dim) if ga.degree[order[k]] == g]
        while True:
            m = Matrix(f, [[f.from_int(rng.choice((-2, -1, 1, 2))) for _ in slots]
                           for _ in slots])
            if not slots or m.is_invertible():
                break
        for t, k in enumerate(slots):
            v = [f.zero] * a.dim
            for r, slot in enumerate(slots):
                v[order[slot]] = m.data[r][t]
            basis[k] = tuple(v)
    change = Matrix.from_cols(f, basis)
    alg = induced_algebra(a, [_native(v, f) for v in basis], change.inverse().apply_sparse,
                          tuple("v%d" % k for k in range(a.dim)))
    return GradedAlgebra(alg, ga.group, tuple(ga.degree[order[k]] for k in range(a.dim)))


def recognition_verdict(ga):
    try:
        return "found", recognize_group_crossed_product(ga)
    except NotCrossedProductError as e:
        return ("not-found", e.definitive), None


CHANGE_OF_BASIS_INPUTS = pytest.mark.parametrize("make", [
    matrix2_graded,
    lambda f: matrix_graded(f, 3),
    lambda f: group_algebra_graded(GroupTable.symmetric(3), f),
    dual_numbers_graded,
], ids=["M2-Z2", "M3-Z3", "kS3", "kx2"])


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
@CHANGE_OF_BASIS_INPUTS
def test_recognition_is_invariant_under_a_homogeneous_change_of_basis(make, field):
    ga = make(field)
    verdict, _ = recognition_verdict(ga)
    for seed in range(3):
        changed = homogeneous_change(ga, random.Random(seed))
        assert check_grading(changed).ok
        again, rec = recognition_verdict(changed)
        assert again == verdict
        if rec is not None:
            # A -> B #_sigma k[Gamma] is an isomorphism of k[Gamma]-comodule algebras
            src, dst = graded_bridge(changed), crossed_product(rec.system)
            require_morphism(rec.iso, "iso", bijective=True, algebra=(src.algebra, dst.algebra),
                             rho=(src.rho_basis, dst.rho_basis))


# -- the coinvariants of a grading, read off without elimination --------------

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")


def assert_neutral_coinvariants_are_the_eliminated_ones(ga):
    ca = graded_bridge(ga)
    read, eliminated = ca.coinvariants, coinvariants(ca)
    assert read.inclusion == eliminated.inclusion
    assert read.subalgebra.basis == eliminated.subalgebra.basis
    assert read.subalgebra.canonical_constants() == eliminated.subalgebra.canonical_constants()


@pytest.mark.parametrize("name", ["kx2-graded.json", "m2-z2-graded.json"])
def test_neutral_coinvariants_of_the_graded_corpus(name):
    assert_neutral_coinvariants_are_the_eliminated_ones(
        parse_presentation(os.path.join(CORPUS, name)).payload)


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
@CHANGE_OF_BASIS_INPUTS
def test_neutral_coinvariants_under_a_homogeneous_change_of_basis(make, field):
    ga = make(field)
    assert_neutral_coinvariants_are_the_eliminated_ones(ga)
    for seed in range(3):
        assert_neutral_coinvariants_are_the_eliminated_ones(
            homogeneous_change(ga, random.Random(seed)))


def test_recognition_eliminates_the_coaction_only_to_check_its_product(monkeypatch):
    eliminated = []
    real = comodule.coinvariants
    monkeypatch.setattr(comodule, "coinvariants", lambda ca: eliminated.append(ca) or real(ca))
    rec = recognize_group_crossed_product(matrix_graded(Q, 3))
    # none: B = A_e is read off the grading, and alpha certifies that the
    # coinvariants of the crossed product are B (x) 1
    assert eliminated == []
    assert rec.system.base.dim == 3
