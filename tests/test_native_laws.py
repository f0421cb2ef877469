"""The laws of the cleft layer on native ints against the dense loops they
replaced: the Hochschild differentials and the module laws of an H-action on
B+, the comodule-algebra laws of a coaction (checked there through the
tensor-product algebra A (x) H), and the crossed-system laws.  The ref_*
functions below are those dense loops on field scalars; each comparison is
of whole matrices or of whole ordered witness lists, over F3, F5 and Q, on
valid inputs and on copies with one entry bumped.

Convolution inverses are compared the same way: convolution_invert solves
one component of C at a time on native ints, ref_convolution_invert the
whole operator g |-> f * g on field scalars."""

import itertools
import os
import random
import sys
from fractions import Fraction

import pytest

from hopfcross import algebra, cohomology
from hopfcross.algebra import (
    MAX_VIOLATIONS,
    ComoduleCoalgebraData,
    FAlgebra,
    algebra_map_violations,
    coaction_violations,
    convolution_invert,
    dual_structure,
    group_hopf_algebra,
    induced_algebra,
    ti,
)
from hopfcross.cli import main, parse_presentation
from hopfcross.cohomology import (
    AugmentedAlgebra,
    AugmentedCleftExtension,
    HModuleStructure,
    NormalizedCochain,
    _differential_rows,
    crossed_system_from_cocycle,
    differential,
    hh2,
    split_extension,
)
from hopfcross.comodule import (
    ComoduleAlgebra,
    CrossedSystem,
    check_crossed_system,
    coaction_kernel,
    colinear_map_space,
    crossed_product,
    find_section,
    section_to_crossed_system,
)
from hopfcross.errors import NotConvolutionInvertibleError
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    Matrix,
    PrimeField,
    Rationals,
    _native,
    basis_vec,
    solve_linear,
)
from hopfcross.standard import dual_numbers, ks3, kz2, kz3, sweedler
from tests.oracles import (
    aug_eps,
    cocycle_system,
    decompose,
    delta2_basis,
    embed_plus,
    hmodule_act_basis,
    measure,
    measuring_basis,
    module_act,
    product_field,
    rho_terms,
    sigma_basis,
    vadd,
    vscale,
    vsub,
    vzero,
)
from tests.test_algebra import (
    _trivial_coaction_data,
    change_of_basis,
    convolution_unit,
    convolve,
    identity,
    tensor_coalgebra,
)
from tests.test_cohomology import cochain1, eps_on_crossed_product, trivial_setup

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = (("F3", F3), ("F5", F5), ("Q", Q))


# ---------------------------------------------------------------------------
# the dense oracles


def ref_differential(cochain, act):
    h = act.hopf
    f = h.field
    dh, dp = h.dim, act.plus_dim
    if cochain.degree == 1:
        t = cochain.matrix
        cols = []
        for g in range(dh):
            for u in range(dh):
                gh = [f.zero] * dh
                for k, c in h.mult_basis(g, u).items():
                    gh[k] = c
                val = module_act(act, basis_vec(f, dh, g), t.col(u))
                val = vsub(val, t.apply(tuple(gh)))
                val = vadd(val, vscale(h.counit[u], t.col(g)))
                cols.append(val)
        return NormalizedCochain(2, Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, dp, 0))
    s = cochain.matrix
    cols = []
    for g in range(dh):
        for u in range(dh):
            gu = [f.zero] * dh
            for k, c in h.mult_basis(g, u).items():
                gu[k] = c
            for l in range(dh):
                ul = [f.zero] * dh
                for k, c in h.mult_basis(u, l).items():
                    ul[k] = c
                val = module_act(act, basis_vec(f, dh, g), s.col(ti(u, l, dh)))
                acc = vzero(f, dp)
                for k, c in enumerate(gu):
                    if c:
                        acc = vadd(acc, vscale(c, s.col(ti(k, l, dh))))
                val = vsub(val, acc)
                acc = vzero(f, dp)
                for k, c in enumerate(ul):
                    if c:
                        acc = vadd(acc, vscale(c, s.col(ti(g, k, dh))))
                val = vadd(val, acc)
                val = vsub(val, vscale(h.counit[l], s.col(ti(g, u, dh))))
                cols.append(val)
    return NormalizedCochain(3, Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, dp, 0))


def ref_differential_matrix(act, degree):
    h = act.hopf
    f = h.field
    dh, dp = h.dim, act.plus_dim
    ncols = dh ** degree
    cols = []
    for j in range(ncols):
        for p in range(dp):
            flat = [f.zero] * (dp * ncols)
            flat[j * dp + p] = f.one
            c = NormalizedCochain(degree, Matrix.from_cols(
                f, [tuple(flat[k * dp:(k + 1) * dp]) for k in range(ncols)]))
            m = ref_differential(c, act).matrix
            cols.append(tuple(x for k in range(m.cols) for x in m.col(k)))
    out_len = dp * dh ** (degree + 1)
    return Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, out_len, 0)


def ref_module_violations(act):
    h = act.hopf
    f = h.field
    dp = act.plus_dim
    violations = []
    for p in range(dp):
        ep = basis_vec(f, dp, p)
        if module_act(act, h.unit, ep) != ep:
            violations.append(("action-not-unital", (p,)))
        for g in range(h.dim):
            for t in range(h.dim):
                lhs = module_act(act, basis_vec(f, h.dim, g), hmodule_act_basis(act, t, p))
                gh = [f.zero] * h.dim
                for k, c in h.mult_basis(g, t).items():
                    gh[k] = c
                if lhs != module_act(act, tuple(gh), ep):
                    violations.append(("action-not-associative", (g, t, p)))
    return violations


def ref_tensor_algebra(a, b):
    f = a.field
    da, db = a.dim, b.dim
    labels = tuple("%s(x)%s" % (x, y) for x in a.basis for y in b.basis)
    product = {}
    for (i1, i2) in [(i, j) for i in range(da) for j in range(da)]:
        pa = a.mult_basis(i1, i2)
        if not pa:
            continue
        for (j1, j2) in [(i, j) for i in range(db) for j in range(db)]:
            pb = b.mult_basis(j1, j2)
            if not pb:
                continue
            terms = {}
            for ka, ca in pa.items():
                for kb, cb in pb.items():
                    terms[ti(ka, kb, db)] = ca * cb
            product[(ti(i1, j1, db), ti(i2, j2, db))] = terms
    unit = [f.zero] * (da * db)
    for i, x in enumerate(a.unit):
        for j, y in enumerate(b.unit):
            if x and y:
                unit[ti(i, j, db)] = x * y
    return FAlgebra(f, labels, product, tuple(unit))


def ref_coaction_witnesses(ca):
    """Every witness of validate, uncapped, with rho checked through A (x) H."""
    a = ca.algebra
    rename = {"unit": "coaction-not-unital", "multiplicative": "coaction-not-multiplicative"}
    algebra_map = ((rename[name], idx) for name, idx in
                   algebra_map_violations(a, ref_tensor_algebra(a, ca.hopf), ca.coaction))
    return list(itertools.chain(coaction_violations(ca.rho_basis, ca.hopf, a.dim), algebra_map))


def ref_check_crossed_system(s):
    h, b = s.hopf, s.base
    f = b.field
    dh, db = h.dim, b.dim
    violations = []
    one = b.one()
    for g in range(dh):
        if measure(s, basis_vec(f, dh, g), one) != vscale(h.counit[g], one):
            violations.append(("measuring-not-unital", (g,)))
        for i in range(db):
            for j in range(db):
                bi, bj = basis_vec(f, db, i), basis_vec(f, db, j)
                lhs = measure(s, basis_vec(f, dh, g), b.mult(bi, bj))
                rhs = vzero(f, db)
                for (g1, g2), c in h.delta_basis(g).items():
                    rhs = vadd(rhs, vscale(c, b.mult(measuring_basis(s, g1, i),
                                                     measuring_basis(s, g2, j))))
                if lhs != rhs:
                    violations.append(("measuring-not-multiplicative", (g, i, j)))
    hc = h.as_coalgebra()
    hh = tensor_coalgebra(hc, hc)
    unit = convolution_unit(hh, b)
    if (convolve(hh, b, s.sigma, s.sigma_inv) != unit
            or convolve(hh, b, s.sigma_inv, s.sigma) != unit):
        violations.append(("sigma-not-convolution-invertible", ()))
    hunit = {t: c for t, c in enumerate(h.unit) if c}
    for g in range(dh):
        left = vzero(f, db)
        right = vzero(f, db)
        for t, c in hunit.items():
            left = vadd(left, vscale(c, sigma_basis(s, g, t)))
            right = vadd(right, vscale(c, sigma_basis(s, t, g)))
        target = vscale(h.counit[g], one)
        if left != target or right != target:
            violations.append(("sigma-not-normalized", (g,)))
        for i in range(db):
            acted = vzero(f, db)
            for t, c in hunit.items():
                acted = vadd(acted, vscale(c, measuring_basis(s, t, i)))
            if acted != basis_vec(f, db, i):
                violations.append(("neutral-action-not-identity", (i,)))
                break
    for g in range(dh):
        dg = h.delta_basis(g)
        for t in range(dh):
            dt = h.delta_basis(t)
            for i in range(db):
                lhs = vzero(f, db)
                rhs = vzero(f, db)
                for (g1, g2), c in dg.items():
                    for (t1, t2), d in dt.items():
                        inner = measuring_basis(s, t1, i)
                        lhs = vadd(lhs, vscale(c * d, b.mult(
                            measure(s, basis_vec(f, dh, g1), inner), sigma_basis(s, g2, t2))))
                        gh = [f.zero] * dh
                        for k, e in h.mult_basis(g2, t2).items():
                            gh[k] = e
                        rhs = vadd(rhs, vscale(c * d, b.mult(
                            sigma_basis(s, g1, t1), measure(s, tuple(gh), basis_vec(f, db, i)))))
                if lhs != rhs:
                    violations.append(("twisted-module-law", (g, t, i)))
    for g in range(dh):
        dg = h.delta_basis(g)
        for t in range(dh):
            dt = h.delta_basis(t)
            for l in range(dh):
                dl = h.delta_basis(l)
                lhs = vzero(f, db)
                for (g1, g2), c in dg.items():
                    for (t1, t2), d in dt.items():
                        for (l1, l2), e in dl.items():
                            inner = measure(s, basis_vec(f, dh, g1), sigma_basis(s, t1, l1))
                            second = vzero(f, db)
                            for k, u in h.mult_basis(t2, l2).items():
                                second = vadd(second, vscale(u, sigma_basis(s, g2, k)))
                            lhs = vadd(lhs, vscale(c * d * e, b.mult(inner, second)))
                rhs = vzero(f, db)
                for (g1, g2), c in dg.items():
                    for (t1, t2), d in dt.items():
                        second = vzero(f, db)
                        for k, u in h.mult_basis(g2, t2).items():
                            second = vadd(second, vscale(u, sigma_basis(s, k, l)))
                        rhs = vadd(rhs, vscale(c * d, b.mult(sigma_basis(s, g1, t1), second)))
                if lhs != rhs:
                    violations.append(("cocycle-law", (g, t, l)))
    return violations


def ref_crossed_product_table(s):
    """The product table of B x|_sigma H:
    (b_i (x) g)(b_j (x) t) = sum b_i (g1 . b_j) sigma(g2, t1) (x) g3 t2."""
    h, b = s.hopf, s.base
    f = b.field
    dh, db = h.dim, b.dim
    product = {}
    for i in range(db):
        bi = basis_vec(f, db, i)
        for g in range(dh):
            d2g = delta2_basis(h, g)
            for j in range(db):
                for t in range(dh):
                    acc = {}
                    for (g1, g2, g3), c in d2g.items():
                        left = b.mult(bi, measuring_basis(s, g1, j))
                        for (t1, t2), d in h.delta_basis(t).items():
                            bpart = b.mult(left, sigma_basis(s, g2, t1))
                            for k, u in h.mult_basis(g3, t2).items():
                                cu = c * d * u
                                for x, v in enumerate(bpart):
                                    if v:
                                        key = ti(x, k, dh)
                                        acc[key] = acc.get(key, f.zero) + cu * v
                    terms = {k: c for k, c in acc.items() if c}
                    if terms:
                        product[(ti(i, g, dh), ti(j, t, dh))] = terms
    return product


def convolution_left_operator(coalgebra, algebra, fmat):
    """The operator g |-> f*g on Hom(C, A), flattened at index (k, r) =
    coefficient of e_r in g(e_k)."""
    fld = algebra.field
    dc, da = coalgebra.dim, algebra.dim
    n = dc * da
    rows = [[fld.zero] * n for _ in range(n)]
    cache = {}
    for i in range(dc):
        for (j, k), u in coalgebra.delta_basis(i).items():
            for r_src in range(da):
                key = (j, r_src)
                if key not in cache:
                    cache[key] = algebra.mult(fmat.col(j), basis_vec(fld, da, r_src))
                vec = cache[key]
                colidx = ti(k, r_src, da)
                for r_out, val in enumerate(vec):
                    if val:
                        rows[ti(i, r_out, da)][colidx] = (
                            rows[ti(i, r_out, da)][colidx] + u * val
                        )
    return Matrix(fld, rows)


def ref_convolution_invert(c, a, f):
    """Solve L_f(g) = eta eps on the whole operator, then check
    f * g = eta eps = g * f with the dense convolve."""
    da = a.dim
    unit = convolution_unit(c, a)
    rhs = tuple(x for i in range(c.dim) for x in unit.col(i))
    res = solve_linear(convolution_left_operator(c, a, f), rhs)
    if not res.consistent:
        raise NotConvolutionInvertibleError("left convolution by f is not surjective")
    g_cols = [res.solution[ti(k, 0, da):ti(k + 1, 0, da)] for k in range(c.dim)]
    g = Matrix.from_cols(a.field, g_cols)
    if convolve(c, a, f, g) != unit or convolve(c, a, g, f) != unit:
        raise NotConvolutionInvertibleError("candidate inverse fails the two-sided identity")
    return g


# ---------------------------------------------------------------------------
# inputs: H-actions on B+, cocycles, crossed systems and their crossed products


def square_zero(field):
    """B = k[x, y]/(x, y)^2 with its augmentation; B+ = span(x, y)."""
    o = field.one
    product = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}, (0, 2): {2: o}, (2, 0): {2: o}}
    b = FAlgebra(field, ("1", "x", "y"), product, basis_vec(field, 3, 0))
    return AugmentedAlgebra(b, (o, field.zero, field.zero))


def module(h, aug, images):
    """The action with h_k . e_p = images[k][p] (vectors of B+)."""
    cols = [tuple(images[k][p]) for k in range(h.dim) for p in range(aug.plus_dim)]
    return HModuleStructure(h, aug, Matrix.from_cols(h.field, cols))


def scalar(field, x):
    x = Fraction(x)
    return field.from_fraction(x.numerator, x.denominator)


def actions(field):
    """(name, H-module on B+) for a trivial, a faithful and a non-group action;
    over Q the faithful one is conjugated by a matrix with fractions."""
    o, z = field.one, field.zero
    kz3 = group_hopf_algebra(GroupTable.cyclic(3), field)
    aug = AugmentedAlgebra(dual_numbers(field), (o, z))
    yield "trivial-z3", module(kz3, aug, [[(o,)]] * 3)
    # g acts by the order-3 matrix R = [[0, -1], [1, -1]], conjugated by P
    p = Matrix(field, [[o, scalar(field, "1/3") if field == Q else o], [z, field.from_int(2)]])
    r = p * Matrix(field, [[z, -o], [o, -o]]) * p.inverse()
    powers = [Matrix.identity(field, 2), r, r * r]
    yield "rotation-z3", module(kz3, square_zero(field),
                                [[m.col(0), m.col(1)] for m in powers])
    # Sweedler's algebra (basis 1, g, x, gx): g = diag(1, -1), x e_0 = e_1
    images = [[(o, z), (z, o)], [(o, z), (z, -o)], [(z, o), (z, z)], [(z, -o), (z, z)]]
    yield "sweedler", module(sweedler(field), square_zero(field), images)
    yield "sweedler-sign", module(sweedler(field), aug, [[(o,)], [(-o,)], [(z,)], [(z,)]])


def random_cochain(field, rng, degree, act, normalized=False):
    dp, dh = act.plus_dim, act.hopf.dim
    draws = [-1, 0, 1, 2] if field != Q else [-1, 0, 1, Fraction(2, 3), Fraction(-5, 7)]
    cols = [tuple(scalar(field, rng.choice(draws)) for _ in range(dp))
            for _ in range(dh ** degree)]
    if normalized:  # the unit of each H here is e_0
        cols[0] = (field.zero,) * dp
    return NormalizedCochain(degree, Matrix.from_cols(field, cols) if cols
                             else Matrix.zeros(field, dp, 0))


def bumped(m, rng, field):
    """m with one seeded entry shifted by a seeded nonzero amount."""
    data = [list(row) for row in m.data]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    data[i][j] = data[i][j] + scalar(field, rng.choice([1, 2] if field != Q else [1, "-2/3"]))
    return Matrix(field, data, m.cols)


def crossed_systems(field, rng):
    """(name, valid crossed system): a cocycle of each action (an HH^2
    representative plus the coboundary of a seeded 1-cochain), and over F3
    the system read off the section of f3z3-cleft.json."""
    for name, act in actions(field):
        reps = hh2(act.hopf, act).representative_cochains()
        t = random_cochain(field, rng, 1, act, normalized=True)
        s = differential(t, act).matrix
        if reps:
            s = s + reps[0].matrix
        yield name, crossed_system_from_cocycle(act, NormalizedCochain(2, s))
    if field == F3:
        ca = parse_presentation(corpus("f3z3-cleft.json")).payload
        yield "f3z3-cleft", section_to_crossed_system(find_section(ca))[0]


def corpus(name):
    return os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus", name)


def unchecked(algebra, hopf, coaction):
    """A ComoduleAlgebra built without its constructor's check."""
    ca = ComoduleAlgebra.__new__(ComoduleAlgebra)
    ca.algebra, ca.hopf, ca.coaction = algebra, hopf, coaction
    return ca


# ---------------------------------------------------------------------------
# the comparisons


@pytest.mark.parametrize("fname, field", FIELDS)
def test_differentials_match_the_dense_loops(fname, field):
    rng = random.Random("differentials/" + fname)
    for name, act in actions(field):
        copies = [act] + [HModuleStructure(act.hopf, act.aug, bumped(act.action, rng, field))
                          for _ in range(3)]
        for copy in copies:
            for degree in (1, 2):
                d = Matrix.from_sparse_rows(field, _differential_rows(copy, degree),
                                            copy.plus_dim * copy.hopf.dim ** degree)
                assert d == ref_differential_matrix(copy, degree)
                c = random_cochain(field, rng, degree, copy)
                assert differential(c, copy).matrix == ref_differential(c, copy).matrix, name


@pytest.mark.parametrize("fname, field", FIELDS)
def test_module_laws_match_the_dense_loops(fname, field):
    rng = random.Random("modules/" + fname)
    seen = set()
    for name, act in actions(field):
        assert act.validate() == ref_module_violations(act) == [], name
        for _ in range(4):
            bad = HModuleStructure(act.hopf, act.aug, bumped(act.action, rng, field))
            violations = bad.validate()
            assert violations == ref_module_violations(bad), name
            seen.update(v[0] for v in violations)
    assert seen == {"action-not-unital", "action-not-associative"}


@pytest.mark.parametrize("fname, field", FIELDS)
def test_crossed_system_laws_match_the_dense_loops(fname, field):
    rng = random.Random("crossed/" + fname)
    seen = set()
    for name, system in crossed_systems(field, rng):
        assert check_crossed_system(system) == ref_check_crossed_system(system) == [], name
        for part in ("measuring", "sigma", "sigma_inv"):
            for _ in range(3):
                parts = {"measuring": system.measuring, "sigma": system.sigma,
                         "sigma_inv": system.sigma_inv}
                parts[part] = bumped(parts[part], rng, field)
                bad = CrossedSystem(system.hopf, system.base, parts["measuring"],
                                    parts["sigma"], parts["sigma_inv"])
                violations = check_crossed_system(bad)
                assert violations == ref_check_crossed_system(bad), (name, part)
                assert violations
                seen.update(v[0] for v in violations)
    assert seen == {"measuring-not-unital", "measuring-not-multiplicative",
                    "sigma-not-convolution-invertible", "sigma-not-normalized",
                    "neutral-action-not-identity", "twisted-module-law", "cocycle-law"}


@pytest.mark.parametrize("fname, field", FIELDS)
def test_coaction_laws_match_the_tensor_product_check(fname, field):
    rng = random.Random("coactions/" + fname)
    seen = set()
    for name, system in crossed_systems(field, rng):
        ca = crossed_product(system)
        assert ref_coaction_witnesses(ca) == ca.validate() == [], name
        for _ in range(4):
            bad = unchecked(ca.algebra, ca.hopf, bumped(ca.coaction, rng, field))
            expected = ref_coaction_witnesses(bad)
            assert bad.validate() == expected[:MAX_VIOLATIONS], name
            pair = (bad.algebra, bad.hopf)
            assert (list(algebra_map_violations(bad.algebra, pair, bad.coaction))
                    == list(algebra_map_violations(bad.algebra, ref_tensor_algebra(*pair),
                                                   bad.coaction))), name
            seen.update(v[0] for v in expected)
    assert {"coaction-not-unital", "coaction-not-multiplicative"} <= seen


@pytest.mark.parametrize("fname, field", FIELDS)
def test_crossed_product_table_matches_the_dense_loop(fname, field):
    rng = random.Random("tables/" + fname)
    for name, system in crossed_systems(field, rng):
        product = crossed_product(system).algebra.product
        assert product == ref_crossed_product_table(system), name
        if field == Q and name == "rotation-z3":
            assert any(c.denominator != 1 for terms in product.values() for c in terms.values())


# ---------------------------------------------------------------------------
# the augmentation, the cocycle dictionary and the colinearity of a comodule
# coalgebra on sparse native vectors, against the dense formulas they replaced


def draws_of(field):
    return [-1, 0, 1, 2] if field != Q else [-1, 0, 1, Fraction(2, 3), Fraction(-5, 7)]


def native_scalar(field, c):
    return c.value if field.characteristic else c


def moved(aug, seed):
    """aug in the basis of the columns of a seeded invertible matrix: eps is
    then nonzero off the first index, with fractions over Q."""
    f = aug.field
    t = change_of_basis(f, (0,) * aug.algebra.dim, seed)
    b = induced_algebra(aug.algebra, t.native_cols(), t.inverse().apply_sparse, aug.algebra.basis)
    return AugmentedAlgebra(b, tuple(aug_eps(aug, t.col(j)) for j in range(t.cols)))


def augmented_algebras(field):
    """k[x]/(x^2), k[x, y]/(x, y)^2 and k x k (eps on the second idempotent),
    each also in two moved bases."""
    o, z = field.one, field.zero
    for aug in (AugmentedAlgebra(dual_numbers(field), (o, z)), square_zero(field),
                AugmentedAlgebra(product_field(field), (z, o))):
        yield aug
        for seed in range(2):
            yield moved(aug, "augmented/%r/%d/%d" % (field, aug.algebra.dim, seed))


@pytest.mark.parametrize("fname, field", FIELDS)
def test_the_augmentation_kernels_match_the_dense_formulas(fname, field):
    rng = random.Random("augmentation/" + fname)
    draws = draws_of(field)
    pivots = set()
    for aug in augmented_algebras(field):
        db, dp = aug.algebra.dim, aug.plus_dim
        pivots.add(next(i for i, c in enumerate(aug.augmentation) if c))
        assert aug.plus_basis == [_native(embed_plus(aug, basis_vec(field, dp, k)), field)
                                  for k in range(dp)]
        for _ in range(6):
            v = tuple(scalar(field, rng.choice(draws)) for _ in range(db))
            c, plus = decompose(aug, v)
            assert aug.eps(_native(v, field)) == native_scalar(field, c)
            assert aug.decompose(_native(v, field)) == (native_scalar(field, c),
                                                        _native(plus, field))
            coords = tuple(scalar(field, rng.choice(draws)) for _ in range(dp))
            assert aug.embed_plus(_native(coords, field)) == _native(embed_plus(aug, coords), field)
    assert pivots - {0}  # some eps is zero at the first index


def cocycle_actions(field):
    """The actions above, and k[Z/3] acting trivially on B+ for B =
    k[x]/(x^2) in two moved bases."""
    yield from actions(field)
    kz3_ = group_hopf_algebra(GroupTable.cyclic(3), field)
    for seed in range(2):
        aug = moved(AugmentedAlgebra(dual_numbers(field), (field.one, field.zero)),
                    "cocycle/%r/%d" % (field, seed))
        yield "moved-trivial-z3-%d" % seed, module(kz3_, aug, [[(field.one,)]] * 3)


@pytest.mark.parametrize("fname, field", FIELDS)
def test_the_cocycle_dictionary_matches_the_dense_formulas(fname, field):
    rng = random.Random("dictionary/" + fname)
    cases = 0
    for name, act in cocycle_actions(field):
        reps = hh2(act.hopf, act).representative_cochains()
        for _ in range(3):
            s = differential(random_cochain(field, rng, 1, act, normalized=True), act).matrix
            for rep in reps:
                s = s + rep.matrix.scale(scalar(field, rng.choice([1, 2])))
            cochain = NormalizedCochain(2, s)
            native, dense = crossed_system_from_cocycle(act, cochain), cocycle_system(act, cochain)
            for part in ("measuring", "sigma", "sigma_inv"):
                assert getattr(native, part) == getattr(dense, part), (name, part)
            cases += not s.is_zero()
    assert cases > 10


def ref_colinear_structure_laws(data):
    """The dense loop that checked Delta_D and eps_D to be H-colinear before
    the two colinear_violations contractions, on field scalars."""
    d, h = data.coalgebra, data.hopf
    f = d.field
    for i in range(d.dim):
        rho = rho_terms(data, i)
        lhs = {}
        for (d1, d2), c in d.delta_basis(i).items():
            for (a1, x1), u in rho_terms(data, d1).items():
                for (a2, x2), v2 in rho_terms(data, d2).items():
                    for x, w in h.mult_basis(x1, x2).items():
                        key = (a1, a2, x)
                        lhs[key] = lhs.get(key, f.zero) + c * u * v2 * w
        rhs = {}
        for (a, x), c in rho.items():
            for (d1, d2), u in d.delta_basis(a).items():
                key = (d1, d2, x)
                rhs[key] = rhs.get(key, f.zero) + c * u
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            yield ("coproduct-not-colinear", (i,))
        v = [f.zero] * h.dim
        for (a, x), c in rho.items():
            v[x] = v[x] + c * d.counit[a]
        if tuple(v) != vscale(d.counit[i], h.unit):
            yield ("counit-not-colinear", (i,))


@pytest.mark.parametrize("fname, field", FIELDS)
def test_comodule_coalgebra_colinearity_matches_the_dense_loop(fname, field):
    rng = random.Random("colinear/" + fname)
    pairs = [(kz2(field), kz3(field).as_coalgebra()), (sweedler(field), sweedler(field)),
             (kz3(field), sweedler(field).as_coalgebra())]
    data = [_trivial_coaction_data(h, d) for h, d in pairs]
    if field == Q:
        data.append(parse_presentation(corpus("smash-example.json")).payload)
    seen = set()
    for good in data:
        assert list(good._colinear_structure_laws()) == []
        assert list(ref_colinear_structure_laws(good)) == []
        for _ in range(6):
            bad = ComoduleCoalgebraData(good.coalgebra, good.hopf,
                                        bumped(good.coaction, rng, field))
            expected = list(ref_colinear_structure_laws(bad))
            assert list(bad._colinear_structure_laws()) == expected
            seen.update(kind for kind, _ in expected)
    assert seen == {"coproduct-not-colinear", "counit-not-colinear"}


# ---------------------------------------------------------------------------
# convolution inverses


def shuffled_group(table, seed):
    """table with its elements in a seeded order, so the identity is not e_0."""
    order = list(range(table.order))
    random.Random(seed).shuffle(order)
    at = {g: t for t, g in enumerate(order)}
    return GroupTable([table.elements[g] for g in order],
                      [[at[table.mult[g][h]] for h in order] for g in order])


def one_sided(field):
    """The unital, non-associative algebra on 1, a, b with a b = 1 and every
    other product of a and b zero: b is a right inverse of a, not a left one."""
    o = field.one
    product = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}, (0, 2): {2: o}, (2, 0): {2: o},
               (1, 2): {0: o}}
    return FAlgebra(field, ("1", "a", "b"), product, basis_vec(field, 3, 0))


def convolution_inputs(field, rng):
    """(name, C, A, f in Hom(C, A)): for each (C, A) a seeded f, zero and, where
    they exist, the identity and a structured f.  C is k[G] in a shuffled
    element order (Z/12, S3, S4), H (x) H for H = k[Z/3], Sweedler's H4, k^S3
    and k[S3] under a dense change of basis; the last two pairs, from k[Z/2]
    and k^(Z/3), map into an algebra where a right inverse is not a left
    one."""
    from tests.test_algebra import change_of_basis, transport
    draws = [-1, 0, 1, 2] if field != Q else [-1, 0, 1, Fraction(2, 3), Fraction(-5, 7)]
    s3 = ks3(field)
    hopfs = [(name, group_hopf_algebra(shuffled_group(table, name), field))
             for name, table in (("z12", GroupTable.cyclic(12)), ("s3", GroupTable.symmetric(3)),
                                 ("s4", GroupTable.symmetric(4)))]
    hopfs += [("sweedler", sweedler(field)), ("k^s3", dual_structure(s3)),
              ("moved s3", transport(s3, change_of_basis(field, (0,) * 6, "convolution")))]
    pairs = []
    for name, h in hopfs:
        yield name + " identity", h.as_coalgebra(), h.as_algebra(), identity(h)
        pairs.append((name, h.as_coalgebra(), h.as_algebra()))
    kz3 = group_hopf_algebra(GroupTable.cyclic(3), field)
    hc = kz3.as_coalgebra()
    hh = tensor_coalgebra(hc, hc)
    # the product e_g (x) e_h |-> e_gh, inverted by e_g (x) e_h |-> e_(gh)^-1
    cols = [basis_vec(field, 3, (g + h) % 3) for g in range(3) for h in range(3)]
    yield "z3(x)z3 product", hh, kz3.as_algebra(), Matrix.from_cols(field, cols)
    pairs.append(("z3(x)z3", hh, kz3.as_algebra()))
    z2 = group_hopf_algebra(GroupTable.cyclic(2), field).as_coalgebra()
    bad = one_sided(field)
    swap = Matrix.from_cols(field, [basis_vec(field, 3, 1), basis_vec(field, 3, 0)])
    yield "one-sided a", z2, bad, swap
    pairs.append(("one-sided", z2, bad))
    # k^(Z/3) is one component, and this f's system has a kernel, so the
    # particular solution read off the echelon form decides the verdict
    kernel = Matrix(field, [[field.from_int(x) for x in row]
                            for row in ((-1, 1, 0), (0, 1, 1), (-1, 0, -1))])
    yield "k^z3 kernel", dual_structure(kz3).as_coalgebra(), bad, kernel
    for name, c, a in pairs:
        seeded = [[scalar(field, rng.choice(draws)) for _ in range(c.dim)] for _ in range(a.dim)]
        yield name + " seeded", c, a, Matrix(field, seeded)
        yield name + " zero", c, a, Matrix.zeros(field, a.dim, c.dim)


def inversion(invert, c, a, f):
    """invert(f)'s matrix, or the type and message of what it raised."""
    try:
        return invert(c, a, f)
    except NotConvolutionInvertibleError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fname, field", FIELDS)
def test_convolution_inverses_match_the_whole_operator_solve(fname, field):
    rng = random.Random("convolution/" + fname)
    seen = set()
    for name, c, a, f in convolution_inputs(field, rng):
        expected = inversion(ref_convolution_invert, c, a, f)
        assert inversion(convolution_invert, c, a, f) == expected, name
        seen.add(expected[1] if isinstance(expected, tuple) else "inverse")
    assert seen == {"inverse", "left convolution by f is not surjective",
                    "candidate inverse fails the two-sided identity"}


def block_shapes(monkeypatch):
    shapes = []
    real = algebra.solve_linear

    def spy(m, b):
        shapes.append((m.rows, m.cols))
        return real(m, b)

    monkeypatch.setattr(algebra, "solve_linear", spy)
    return shapes


@pytest.mark.parametrize("fname, field", FIELDS)
def test_a_group_like_coalgebra_gives_one_block_per_basis_element(fname, field, monkeypatch):
    shapes = block_shapes(monkeypatch)
    s4 = group_hopf_algebra(shuffled_group(GroupTable.symmetric(4), fname), field)
    assert convolution_invert(s4.as_coalgebra(), s4.as_algebra(), identity(s4)) == s4.antipode
    assert shapes == [(24, 24)] * 24
    # H (x) H -> k[Z/3] for H = k[Z/3]: dim C = 9 blocks of size dim A = 3
    del shapes[:]
    kz3 = group_hopf_algebra(GroupTable.cyclic(3), field)
    hc = kz3.as_coalgebra()
    cols = [basis_vec(field, 3, (g + h) % 3) for g in range(3) for h in range(3)]
    convolution_invert(tensor_coalgebra(hc, hc), kz3.as_algebra(), Matrix.from_cols(field, cols))
    assert shapes == [(3, 3)] * 9
    # Sweedler's H4 and k^S3 are one component each, as before the split
    for h in (sweedler(field), dual_structure(ks3(field))):
        del shapes[:]
        convolution_invert(h.as_coalgebra(), h.as_algebra(), identity(h))
        assert shapes == [(h.dim ** 2, h.dim ** 2)]


# ---------------------------------------------------------------------------
# guards: no tensor-product algebra is built, and hh2 assembles its
# differentials without applying them to unit cochains


def test_coactions_are_checked_without_building_a_tensor_product(monkeypatch):
    assert not any(hasattr(mod, "tensor_algebra") for name, mod in list(sys.modules.items())
                   if mod is not None and name.split(".")[0] == "hopfcross")
    built = []
    real = FAlgebra.__init__

    def spy(self, *args):
        built.append(tuple(args[1]))
        real(self, *args)

    ca = parse_presentation(corpus("f3z3-cleft.json")).payload
    monkeypatch.setattr(FAlgebra, "__init__", spy)
    ComoduleAlgebra(ca.algebra, ca.hopf, ca.coaction)
    assert built == []
    # super-decompose checks alpha : A -> Lambda(W) (x) H the same way; an
    # algebra on a tensor basis has labels "a(x)b"
    assert main(["super-decompose", corpus("lambda3.json")]) == 0
    assert built and not any("(x)" in label for basis in built for label in basis)


def test_hh2_applies_no_differential(monkeypatch):
    calls = []
    real = cohomology.differential

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cohomology, "differential", spy)
    for fname, field in FIELDS:
        for name, act in actions(field):
            hh2(act.hopf, act)
    assert calls == []


# ---------------------------------------------------------------------------
# guard: the linear systems of the convolution and cleft layers reach the
# elimination as the sparse rows they are summed in


def build_and_eliminate(monkeypatch, run):
    """Run `run`; return its value, the (rows, cols) of each matrix built
    dense and the matrices eliminated while it ran."""
    dense, eliminated = [], []
    init, rref = Matrix.__init__, Matrix.rref

    def spy_init(self, *args):
        init(self, *args)
        dense.append((self.rows, self.cols))

    def spy_rref(self, *args, **kwargs):
        eliminated.append(self)
        return rref(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__init__", spy_init)
        patch.setattr(Matrix, "rref", spy_rref)
        out = run()
    return out, dense, eliminated


def assert_sparse_systems(dense, eliminated, shapes):
    """Each system shape is eliminated, never built dense, and what was
    eliminated has no dense view even afterwards."""
    systems = [m for m in eliminated if (m.rows, m.cols) in shapes]
    assert {(m.rows, m.cols) for m in systems} == shapes
    assert all(m._data is None for m in systems)
    assert not set(dense) & shapes


@pytest.mark.parametrize("fname, field", FIELDS)
def test_the_convolution_and_cleft_systems_are_never_dense(fname, field, monkeypatch):
    # convolution_invert: k^S3 is one component, a 36 x 36 block solved with
    # its right-hand side appended; the only dense matrix is the inverse
    h = dual_structure(ks3(field))
    c, a, f = h.as_coalgebra(), h.as_algebra(), identity(h)
    _, dense, eliminated = build_and_eliminate(monkeypatch, lambda: convolution_invert(c, a, f))
    assert_sparse_systems(dense, eliminated, {(36, 37)})
    assert dense == [(6, 6)]
    # colinear_map_space and coaction_kernel on a crossed product build no
    # dense matrix at all
    ca = crossed_product(next(crossed_systems(field, random.Random(3)))[1])
    da, dh = ca.algebra.dim, ca.hopf.dim
    _, dense, eliminated = build_and_eliminate(monkeypatch, lambda: colinear_map_space(ca))
    assert_sparse_systems(dense, eliminated, {(dh * da * dh, da * dh)})
    assert dense == []
    _, dense, eliminated = build_and_eliminate(
        monkeypatch, lambda: coaction_kernel(ca.rho_basis, da, ca.hopf, ca.hopf.unit))
    assert_sparse_systems(dense, eliminated, {(da * dh, da)})
    assert dense == []
    # hh2: the stacked cocycle system, d2 on its own, the degree-1
    # constraints and d1; deciding a class builds no dense matrix
    for name, act in actions(field):
        dp, dh = act.plus_dim, act.hopf.dim
        n1, n2 = dp * dh, dp * dh * dh
        result, dense, eliminated = build_and_eliminate(monkeypatch, lambda: hh2(act.hopf, act))
        assert_sparse_systems(dense, eliminated, {(dp * dh ** 3 + 2 * n2 // dh, n2),
                                                  (dp * dh ** 3, n2), (dp, n1), (n2, n1)})
        for rep in result.representative_cochains():
            coords, dense, _ = build_and_eliminate(monkeypatch, lambda: result.decide(rep))
            assert any(coords) and dense == []
    # split_extension: d1 stacked on the degree-1 constraints, with the
    # cocycle appended, for a nonzero coboundary
    hz, _, aug, act = trivial_setup(field)
    s = differential(cochain1(field, (field.zero, field.one, field.zero)), act)
    ext = AugmentedCleftExtension(crossed_product(crossed_system_from_cocycle(act, s)),
                                  eps_on_crossed_product(aug, hz))
    out, dense, eliminated = build_and_eliminate(monkeypatch, lambda: split_extension(ext))
    assert out.split
    assert_sparse_systems(dense, eliminated, {(10, 4)})
    assert (10, 3) not in dense
