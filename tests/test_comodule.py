"""Comodule algebras: coinvariants, Galois maps, crossed products, sections."""

import itertools
import os
import random

import pytest

from hopfcross import comodule
from hopfcross.algebra import (
    ComoduleCoalgebraData,
    FAlgebra,
    convolution_invert,
    group_hopf_algebra,
    ti,
)
from hopfcross.cli import parse_presentation
from hopfcross.cohomology import (
    AugmentedAlgebra,
    HModuleStructure,
    HopfModule,
    NormalizedCochain,
    crossed_system_from_cocycle,
    differential,
)
from hopfcross.comodule import (
    ComoduleAlgebra,
    CrossedSystem,
    check_crossed_system,
    coinvariants,
    colinear_map_space,
    crossed_product,
    find_section,
    galois_map,
    graded_bridge,
    section_to_crossed_system,
)
from hopfcross.errors import (
    InvalidComoduleAlgebraError,
    NoSectionFoundError,
    ValidationError,
)
from hopfcross.graded import GradedAlgebra, is_strongly_graded
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    Matrix,
    PrimeField,
    QuotientSpace,
    Rationals,
    _dense_vec,
    basis_vec,
)
from hopfcross.search import DEFAULT_BUDGET, find_invertible_combination
from hopfcross.standard import dual_numbers, kz2, matrix2, sweedler
from tests.oracles import product_field, rho_terms, sigma_basis, trivial_sigma

Q = Rationals()
F3 = PrimeField(3)
Z2 = GroupTable.cyclic(2)
CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")


def regular_comodule(h):
    """H coacting on itself by its coproduct."""
    f = h.field
    dh = h.dim
    cols = []
    for i in range(dh):
        v = [f.zero] * (dh * dh)
        for (j, k), c in h.delta_basis(i).items():
            v[ti(j, k, dh)] = c
        cols.append(tuple(v))
    return ComoduleAlgebra(h.as_algebra(), h, Matrix.from_cols(f, cols))


def trivial_comodule(alg, h):
    """rho(a) = a (x) 1."""
    f = alg.field
    dh = h.dim
    cols = []
    for i in range(alg.dim):
        v = [f.zero] * (alg.dim * dh)
        for t, c in enumerate(h.unit):
            if c:
                v[ti(i, t, dh)] = c
        cols.append(tuple(v))
    return ComoduleAlgebra(alg, h, Matrix.from_cols(f, cols))


def matrix2_comodule(field=Q):
    return graded_bridge(GradedAlgebra(matrix2(field), Z2, (0, 0, 1, 1)))


def dual_numbers_comodule(field=Q, square=None):
    return graded_bridge(GradedAlgebra(dual_numbers(field, square), Z2, (0, 1)))


def scalar_crossed_system(field, c):
    """H = k Z/2, B = k, trivial action, sigma(g, g) = c."""
    from hopfcross.algebra import FAlgebra

    h = group_hopf_algebra(Z2, field)
    base = FAlgebra(field, ("1",), {(0, 0): {0: field.one}}, (field.one,))
    measuring = Matrix(field, [[field.one, field.one]])
    o = field.one
    sigma = Matrix(field, [[o, o, o, c]])
    sigma_inv = Matrix(field, [[o, o, o, o / c]])
    return CrossedSystem(h, base, measuring, sigma, sigma_inv)


# -- validation and coinvariants ---------------------------------------------


def test_regular_comodule_is_valid():
    regular_comodule(sweedler(Q))  # the constructor checks the laws


def test_bad_coaction_rejected():
    h = group_hopf_algebra(Z2, Q)
    # rho(x) = x (x) 1 + x (x) g applies the counit to 2x, not x
    a = dual_numbers(Q)
    bad_x = (Q.zero, Q.zero, Q.one, Q.one)
    with pytest.raises(InvalidComoduleAlgebraError, match="not a comodule algebra") as e:
        ComoduleAlgebra(a, h, Matrix.from_cols(Q, [basis_vec(Q, 4, 0), bad_x]))
    assert e.value.violations == [("coaction-not-counital", (1,)),
                                  ("coaction-not-coassociative", (1,))]


def test_comodule_algebra_validation_stops_at_ten_witnesses():
    # doubling the coaction breaks counitality and coassociativity at every
    # basis element, the unit, and multiplicativity at every nonzero product
    ca = matrix2_comodule()
    with pytest.raises(InvalidComoduleAlgebraError) as e:
        ComoduleAlgebra(ca.algebra, ca.hopf, ca.coaction.scale(2 * Q.one))
    kinds = [kind for kind, _ in e.value.violations]
    assert kinds == (["coaction-not-counital", "coaction-not-coassociative"] * 4
                     + ["coaction-not-unital", "coaction-not-multiplicative"])


def test_a_comodule_algebra_reads_its_coaction_columns_once(monkeypatch):
    # construction (the comodule laws and rho as an algebra map),
    # coinvariants and the Galois map all read rho(e_i) through rho_basis
    ca = matrix2_comodule()
    reads = []
    for name in ("col", "native_cols"):
        read = getattr(Matrix, name)

        def counted(m, *args, read=read, name=name):
            if m is ca.coaction:
                reads.append(name)
            return read(m, *args)

        monkeypatch.setattr(Matrix, name, counted)
    fresh = ComoduleAlgebra(ca.algebra, ca.hopf, ca.coaction)
    assert coinvariants(fresh).dim == 2
    assert galois_map(fresh).bijective
    # one read, however often rho_basis is called; the check that rho is an
    # algebra map takes the columns that read kept
    assert reads == ["native_cols"]
    assert fresh.rho_basis(1) is fresh.rho_basis(1)
    # one reader of the coaction columns serves every right comodule
    assert (ComoduleAlgebra.rho_basis is HopfModule.rho_basis
            is ComoduleCoalgebraData.rho_basis)


def test_coinvariants_of_regular_comodule_is_scalars():
    coinv = coinvariants(regular_comodule(sweedler(Q)))
    assert coinv.dim == 1
    h = sweedler(Q)
    assert coinv.inclusion.apply(basis_vec(Q, 1, 0)) == h.one()


def test_coinvariants_of_graded_algebra_is_neutral_component():
    coinv = coinvariants(matrix2_comodule())
    assert coinv.dim == 2
    # spanned by the diagonal idempotents e11, e22
    for t in range(2):
        v = coinv.inclusion.apply(basis_vec(Q, 2, t))
        assert v[2] == Q.zero and v[3] == Q.zero


def test_coinvariants_of_trivial_coaction_is_everything():
    ca = trivial_comodule(matrix2(Q), group_hopf_algebra(Z2, Q))
    assert coinvariants(ca).dim == 4


# -- the Galois map ----------------------------------------------------------


def test_galois_map_matrix2_bijective():
    rep = galois_map(matrix2_comodule())
    assert rep.beta.cols == 8 and rep.beta.rows == 8
    assert rep.bijective


def test_galois_map_dual_numbers_not_bijective():
    rep = galois_map(dual_numbers_comodule())
    assert not rep.bijective


def ref_galois_inverse(ca, rep, section):
    """beta^-1 : A (x) H -> A (x)_B A, a (x) h |-> a phi^-1(h1) (x) phi(h2),
    built from a section and checked against rep.beta on both sides: the
    inverse galois_map built when handed a section, kept as an oracle."""
    a, h = ca.algebra, ca.hopf
    f = ca.field
    da, dh = a.dim, h.dim
    quot = rep.tensor_square
    phi, phi_inv = section.phi, section.phi_inv
    inv_cols = []
    for i in range(da):
        ei = basis_vec(f, da, i)
        for t in range(dh):
            amb = [f.zero] * (da * da)
            for (p, q), c in h.delta_basis(t).items():
                left = a.mult(ei, phi_inv.col(p))
                right = phi.col(q)
                for x, u in enumerate(left):
                    if not u:
                        continue
                    for y, v in enumerate(right):
                        if v:
                            amb[ti(x, y, da)] = amb[ti(x, y, da)] + c * u * v
            inv_cols.append(_dense_vec(f, quot.project(tuple(amb)), quot.dim))
    inverse = Matrix.from_cols(f, inv_cols)
    assert rep.beta * inverse == Matrix.identity(f, da * dh)
    assert inverse * rep.beta == Matrix.identity(f, quot.dim)
    return inverse


def test_galois_map_regular_with_identity_section():
    h = kz2(Q)
    ca = regular_comodule(h)
    sec = find_section(ca)
    rep = galois_map(ca)
    assert rep.bijective
    assert ref_galois_inverse(ca, rep, sec) is not R_NONE  # inverse materialized and verified


R_NONE = None


# -- galois_map against the builder it replaced -------------------------------


def ref_relative_tensor_square(ca, coinv):
    """A (x)_B A as a quotient of A (x) A by span{ab (x) a' - a (x) ba'}, for
    B = coinv: the builder galois_map used before algebra.relative_tensor."""
    a = ca.algebra
    f = ca.field
    da = a.dim
    relations = []
    for i in range(da):
        ei = basis_vec(f, da, i)
        for t in range(coinv.dim):
            b = coinv.inclusion.apply(basis_vec(f, coinv.dim, t))
            ab = a.mult(ei, b)
            for j in range(da):
                ba = a.mult(b, basis_vec(f, da, j))
                rel = [f.zero] * (da * da)
                for x, c in enumerate(ab):
                    rel[ti(x, j, da)] = rel[ti(x, j, da)] + c
                for y, c in enumerate(ba):
                    rel[ti(i, y, da)] = rel[ti(i, y, da)] - c
                relations.append(tuple(rel))
    return QuotientSpace(f, da * da, relations)


def ref_galois_map(ca):
    """(quotient, beta) with beta on the lift of each quotient basis vector,
    e_i (x) e_j |-> e_i rho(e_j) from dense basis products."""
    coinv = coinvariants(ca)
    a, h = ca.algebra, ca.hopf
    f = ca.field
    da, dh = a.dim, h.dim
    quot = ref_relative_tensor_square(ca, coinv)
    cols = []
    for t in range(quot.dim):
        amb = _dense_vec(f, quot.lift(basis_vec(f, quot.dim, t)), da * da)
        acc = [f.zero] * (da * dh)
        for flat, c in enumerate(amb):
            if not c:
                continue
            i, j = divmod(flat, da)
            for (x, s), d in rho_terms(ca, j).items():
                prod = a.mult(basis_vec(f, da, i), basis_vec(f, da, x))
                for y, e in enumerate(prod):
                    if e:
                        acc[ti(y, s, dh)] = acc[ti(y, s, dh)] + c * d * e
        cols.append(tuple(acc))
    beta = Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, da * dh, 0)
    return quot, beta


def corpus_comodule_algebras():
    """(name, comodule algebra) for every comodule algebra a corpus file
    holds, a graded algebra read as a k[G]-comodule algebra."""
    for name in sorted(os.listdir(CORPUS)):
        payload = parse_presentation(os.path.join(CORPUS, name)).payload
        if isinstance(payload, GradedAlgebra):
            payload = graded_bridge(payload)
        for part in payload if isinstance(payload, tuple) else (payload,):
            if isinstance(part, ComoduleAlgebra):
                yield name, part


def galois_oracle_cases():
    from tests.test_graded import group_algebra_graded

    cases = list(corpus_comodule_algebras())
    for field in (PrimeField(3), PrimeField(5), Q):
        for seed in (1, 2):
            cases.append(("crossed %r seed %d" % (field, seed),
                          twisted_crossed_product(field, 3, seed)))
    for field in (Q, F3):
        cases.append(("k[S3] %r" % (field,),
                      graded_bridge(group_algebra_graded(GroupTable.symmetric(3), field))))
    return cases


def test_galois_map_matches_the_builder_it_replaced():
    names = set()
    for name, ca in galois_oracle_cases():
        names.add(name)
        quot, beta = ref_galois_map(ca)
        rep = galois_map(ca)
        assert rep.tensor_square.dim == quot.dim, name
        assert rep.beta == beta, name
        assert rep.rank == beta.rank(), name
        assert rep.bijective == (quot.dim == beta.rows == rep.rank), name
    assert {"f3z3-cleft.json", "kx2-graded.json", "m2-z2-graded.json",
            "lift-split.json", "lift-obstructed.json"} <= names
    # a case that is not Galois
    assert not galois_map(graded_bridge(parse_presentation(
        os.path.join(CORPUS, "kx2-graded.json")).payload)).bijective


# -- graded_bridge ------------------------------------------------------------


def test_bridge_verdicts_agree_for_dual_numbers():
    ga = GradedAlgebra(dual_numbers(Q), Z2, (0, 1))
    strong, _ = is_strongly_graded(ga)
    assert not strong
    assert not galois_map(graded_bridge(ga)).bijective


def test_bridge_rejects_non_homogeneous_coaction():
    # a map that is not a valid coaction has too-small weight spaces; the
    # constructor rejects it before the bridge could look for a grading
    h = group_hopf_algebra(Z2, Q)
    a = product_field(Q)
    bad = Matrix.from_cols(Q, [basis_vec(Q, 4, 0), basis_vec(Q, 4, 1)])
    with pytest.raises(InvalidComoduleAlgebraError) as e:
        ComoduleAlgebra(a, h, bad)
    assert e.value.violations == [
        ("coaction-not-counital", (1,)), ("coaction-not-coassociative", (1,)),
        ("coaction-not-unital", ()), ("coaction-not-multiplicative", (0, 1)),
        ("coaction-not-multiplicative", (1, 0)), ("coaction-not-multiplicative", (1, 1))]


# -- crossed systems ----------------------------------------------------------


def test_scalar_crossed_system_passes():
    assert check_crossed_system(scalar_crossed_system(Q, Q.from_int(5))) == []


def test_trivial_sigma_smash_system_passes():
    h = group_hopf_algebra(Z2, Q)
    from hopfcross.algebra import FAlgebra

    base = FAlgebra(Q, ("1",), {(0, 0): {0: Q.one}}, (Q.one,))
    measuring = Matrix(Q, [[Q.one, Q.one]])
    sig = trivial_sigma(h, base)
    s = CrossedSystem(h, base, measuring, sig, sig)
    assert check_crossed_system(s) == []


def test_non_invertible_sigma_fails():
    s = scalar_crossed_system(Q, Q.one)
    z = Matrix(Q, [[Q.one, Q.one, Q.one, Q.zero]])
    bad = CrossedSystem(s.hopf, s.base, s.measuring, z, z)
    violations = check_crossed_system(bad)
    assert any(v[0] == "sigma-not-convolution-invertible" for v in violations)


def test_group_algebra_system_matches_graded_module():
    # the group data sigma(g, g) = c, read over k[Z/2], is this system, and
    # the group-side oracle accepts it too
    from tests.test_graded import (
        over_group_algebra,
        ref_check_group_crossed_system,
        scalar_system,
    )

    c = Q.from_int(5)
    s = scalar_crossed_system(Q, c)
    assert check_crossed_system(s) == []
    group_data = scalar_system(Q, c)
    again = over_group_algebra(group_data)
    assert (again.measuring, again.sigma, again.sigma_inv) == (s.measuring, s.sigma, s.sigma_inv)
    assert ref_check_group_crossed_system(group_data).ok


# -- crossed products ----------------------------------------------------------


def test_crossed_product_trivial_data_is_hopf_algebra():
    s = scalar_crossed_system(Q, Q.one)
    ca = crossed_product(s)
    h = group_hopf_algebra(Z2, Q)
    assert ca.algebra.canonical_constants()[1:] == h.as_algebra().canonical_constants()[1:]


def test_crossed_product_scalar_cocycle_gives_quadratic_extension():
    c = Q.from_int(3)
    ca = crossed_product(scalar_crossed_system(Q, c))
    a = ca.algebra
    u = basis_vec(Q, 2, 1)  # 1 (x) g
    assert a.mult(u, u) == (c, Q.zero)
    # matches the group-side oracle on the same data, and the same data read
    # over k[Z/2]
    from tests.test_graded import over_group_algebra, ref_group_crossed_product, scalar_system

    ga = ref_group_crossed_product(scalar_system(Q, c))
    assert a.canonical_constants()[1:] == ga.algebra.canonical_constants()[1:]
    again = crossed_product(over_group_algebra(scalar_system(Q, c))).algebra
    assert again.canonical_constants() == a.canonical_constants()


def test_crossed_product_coinvariants_are_base():
    for c in (Q.one, Q.from_int(2)):
        ca = crossed_product(scalar_crossed_system(Q, c))
        assert coinvariants(ca).dim == 1


# -- sections -----------------------------------------------------------------


def test_find_section_on_crossed_product():
    ca = crossed_product(scalar_crossed_system(Q, Q.from_int(3)))
    sec = find_section(ca)
    assert sec.phi.apply(ca.hopf.unit) == ca.algebra.one()


def test_a_section_reads_the_coinvariants_of_its_comodule_algebra():
    # B is computed once per comodule algebra, so the section search, the
    # Galois map and the crossed system all read the same object
    ca = crossed_product(scalar_crossed_system(Q, Q.from_int(3)))
    assert find_section(ca).comodule_algebra.coinvariants is ca.coinvariants


def test_find_section_matrix2():
    ca = matrix2_comodule()
    sec = find_section(ca)
    phi_g = sec.phi.col(1)
    # phi(g) lies in the antidiagonal component and is invertible
    assert phi_g[0] == Q.zero and phi_g[1] == Q.zero
    assert ca.algebra.left_mult_matrix(phi_g).is_invertible()


def test_find_section_dual_numbers_fails_definitively():
    with pytest.raises(NoSectionFoundError) as exc:
        find_section(dual_numbers_comodule())
    assert exc.value.definitive


def test_find_section_dual_numbers_fails_exhaustively_over_f3():
    f3 = PrimeField(3)
    with pytest.raises(NoSectionFoundError) as exc:
        find_section(dual_numbers_comodule(f3))
    assert exc.value.definitive


# The search tests Phi : B (x) H -> A, b (x) h |-> b phi(h); until the
# normal-basis test it tested the convolution operator g |-> phi * g.  The
# helpers below rebuild both families from the product and the coproduct,
# sharing no code with find_section.


def colinear_basis(ca):
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    return [Matrix.from_sparse_rows(f, [{j: c for j in range(dh) if (c := v.get(ti(x, j, dh)))}
                                        for x in range(da)], dh)
            for v in colinear_map_space(ca)]


def convolution_family(ca, phis):
    from tests.test_native_laws import convolution_left_operator
    hc = ca.hopf.as_coalgebra()
    return [convolution_left_operator(hc, ca.algebra, phi) for phi in phis]


def normal_basis_family(ca, phis):
    a, f = ca.algebra, ca.field
    coinv = coinvariants(ca)
    bs = [coinv.inclusion.apply(basis_vec(f, coinv.dim, t)) for t in range(coinv.dim)]
    return [Matrix.from_cols(f, [a.mult(b, phi.col(g)) for b in bs for g in range(phi.cols)])
            for phi in phis]


def combine(field, coeffs, mats):
    out = Matrix.zeros(field, mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats):
        if c:
            out = out + m.scale(c)
    return out


def twisted_crossed_product(field, n, seed=0):
    """B x|_sigma k[Z/n] for B = k[x]/(x^2) acted on trivially, with sigma
    the carry cocycle plus the coboundary of a seeded 1-cochain."""
    h = group_hopf_algebra(GroupTable.cyclic(n), field)
    aug = AugmentedAlgebra(dual_numbers(field), (field.one, field.zero))
    act = HModuleStructure(h, aug, Matrix.from_cols(field, [basis_vec(field, 1, 0)] * n))
    rng = random.Random(seed)
    t = Matrix(field, [[field.zero] + [field.from_int(rng.randrange(-2, 3)) for _ in range(n - 1)]])
    carry = Matrix(field, [[field.one if a + b >= n else field.zero
                            for a in range(n) for b in range(n)]])
    s = carry + differential(NormalizedCochain(1, t), act).matrix
    return crossed_product(crossed_system_from_cocycle(act, NormalizedCochain(2, s)))


def f3z3_cleft():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus",
                        "f3z3-cleft.json")
    return parse_presentation(path).payload


def spy_search(monkeypatch):
    """Record (mats, outcome) of each search find_section runs."""
    calls = []
    real = comodule.find_invertible_combination

    def spy(field, mats, budget):
        outcome = real(field, mats, budget)
        calls.append((mats, outcome))
        return outcome

    monkeypatch.setattr(comodule, "find_invertible_combination", spy)
    return calls


def assert_same_invertibility(ca, points):
    phis = colinear_basis(ca)
    conv, normal = convolution_family(ca, phis), normal_basis_family(ca, phis)
    verdicts = set()
    for c in points:
        nb = bool(combine(ca.field, c, normal).det())
        assert nb == bool(combine(ca.field, c, conv).det()), c
        verdicts.add(nb)
    assert verdicts == {False, True}


def test_normal_basis_determinant_agrees_with_the_convolution_operator():
    for ca in (f3z3_cleft(), twisted_crossed_product(F3, 3)):
        m = len(colinear_map_space(ca))
        assert 3 ** m == 729
        assert_same_invertibility(ca, itertools.product(F3.elements(), repeat=m))
    ca = twisted_crossed_product(Q, 4)
    rng = random.Random(11)
    m = len(colinear_map_space(ca))
    assert_same_invertibility(ca, [tuple(Q.from_int(rng.choice((-1, 0, 0, 1, 2))) for _ in range(m))
                                   for _ in range(200)])


def test_first_witness_matches_the_convolution_search(monkeypatch):
    calls = spy_search(monkeypatch)
    for field, n in ((F3, 3), (Q, 3), (Q, 4), (PrimeField(5), 5)):
        ca = twisted_crossed_product(field, n, seed=n)
        sec = find_section(ca)
        (mats, outcome), = calls
        calls.clear()
        # the grid certificate's degree bound is the matrix size, dim A
        assert {(m.rows, m.cols) for m in mats} == {(ca.algebra.dim, ca.algebra.dim)}
        oracle = find_invertible_combination(field, convolution_family(ca, colinear_basis(ca)))
        assert oracle.found
        assert (outcome.coeffs, outcome.definitive, outcome.tried) == (
            oracle.coeffs, oracle.definitive, oracle.tried)
        assert sec.phi.apply(ca.hopf.unit) == ca.algebra.one()


def test_a_bijective_normal_basis_map_without_convolution_inverse_is_definitive(monkeypatch):
    # k[x]/(x^2) graded by Z/2 with x odd: Phi is bijective at phi(g) = x,
    # but phi(g) phi(g) = 0, so A/B is not Galois and nothing is cleft
    calls = spy_search(monkeypatch)
    for field in (Q, F3):
        with pytest.raises(NoSectionFoundError, match="^no convolution-invertible") as exc:
            find_section(dual_numbers_comodule(field))
        assert exc.value.definitive
        (_, outcome), = calls
        calls.clear()
        assert outcome.found


def test_mismatched_dimensions_are_definitive_without_search(monkeypatch):
    # a trivial coaction has B = A, so dim B * dim H = 2 dim A
    calls = spy_search(monkeypatch)
    for alg in (matrix2(Q), dual_numbers(Q)):
        with pytest.raises(NoSectionFoundError, match="^no convolution-invertible") as exc:
            find_section(trivial_comodule(alg, kz2(Q)))
        assert exc.value.definitive
    assert not calls


def test_the_grid_certifies_absence_with_degree_dim_a():
    # A = Q{1, x, y, z} with every product of x, y, z zero, x even, y and z
    # odd: x Phi(h) = 0 in degree 1, so det Phi is identically zero.  The
    # ladder finds nothing; the grid of (dim A + 1)^4 points is affordable
    # and certifies absence, where the convolution operators' degree bound
    # dim A * dim H would need 9^4 > 4096 points and leave it open.
    unit = (Q.one, Q.zero, Q.zero, Q.zero)
    product = {}
    for j in range(4):
        product[(0, j)] = product[(j, 0)] = {j: Q.one}
    alg = FAlgebra(Q, ("1", "x", "y", "z"), product, unit)
    ca = graded_bridge(GradedAlgebra(alg, Z2, (0, 0, 1, 1)))
    with pytest.raises(NoSectionFoundError) as exc:
        find_section(ca)
    assert exc.value.definitive
    # the convolution family splits: searched whole it stays open, split
    # into its blocks it is decided
    from tests.test_search import oracle
    mats = convolution_family(ca, colinear_basis(ca))
    assert oracle(Q, mats, DEFAULT_BUDGET) == (None, False)
    outcome = find_invertible_combination(Q, mats)
    assert not outcome.found and outcome.definitive


def test_section_to_crossed_system_regular():
    h = kz2(Q)
    ca = regular_comodule(h)
    sec = find_section(ca)
    system, iso = section_to_crossed_system(sec)
    assert system.base.dim == 1
    assert iso.is_invertible()


def test_section_to_crossed_system_matrix2():
    ca = matrix2_comodule()
    sec = find_section(ca)
    system, iso = section_to_crossed_system(sec)
    assert system.base.dim == 2
    # sigma(g, g) is the unit of B = diagonal matrices
    assert sigma_basis(system, 1, 1) == system.base.one()
    assert iso.is_invertible()


def test_section_roundtrip_recovers_cocycle():
    c = Q.from_int(7)
    ca = crossed_product(scalar_crossed_system(Q, c))
    sec = find_section(ca)
    system, iso = section_to_crossed_system(sec)
    # the recovered sigma(g,g) must be c times a square unit of k; over the
    # roundtrip with phi = 1 (x) - it is exactly c
    val = sigma_basis(system, 1, 1)
    assert val != (Q.zero,)
    again = crossed_product(system)
    assert iso.apply(again.algebra.one()) == ca.algebra.one()


@pytest.mark.parametrize("make", [
    lambda: twisted_crossed_product(Q, 3, seed=5),
    lambda: twisted_crossed_product(PrimeField(3), 3, seed=5),
    lambda: regular_comodule(sweedler(Q)),
], ids=["Q[Z/3]", "F3[Z/3]", "sweedler-regular"])
def test_sigma_inverse_is_its_convolution_inverse(make):
    # section_to_crossed_system reads sigma^-1 off phi^-1; inverting sigma
    # over H (x) H gives the same map
    ca = make()
    system, _ = section_to_crossed_system(find_section(ca))
    from tests.test_algebra import tensor_coalgebra
    hc = ca.hopf.as_coalgebra()
    expected = convolution_invert(tensor_coalgebra(hc, hc), system.base, system.sigma)
    assert system.sigma_inv == expected


# -- three-way agreement --------------------------------------------------------


def test_cleftness_three_way_agreement():
    cases = [
        (matrix2_comodule(), True),
        (dual_numbers_comodule(), False),
        (regular_comodule(sweedler(Q)), True),
        (crossed_product(scalar_crossed_system(Q, Q.from_int(2))), True),
        (dual_numbers_comodule(PrimeField(3)), False),
    ]
    for ca, expected in cases:
        try:
            sec = find_section(ca)
            has_section = True
        except NoSectionFoundError as exc:
            assert exc.definitive
            has_section = False
            sec = None
        assert has_section == expected
        rep = galois_map(ca)
        assert rep.bijective == expected
        if expected:
            system, iso = section_to_crossed_system(sec)
            assert iso.is_invertible()
            assert ref_galois_inverse(ca, rep, sec) is not None
