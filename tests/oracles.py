"""Constructions and checks that only the tests read: small stock inputs,
the dense basis loops of a few structure operations, the dense formulas of
the cleft layer that its sparse native kernels replaced (tuple arithmetic,
the H-action, measuring and sigma read as dense columns, the augmentation
decomposition and the cocycle dictionary), the gauge maps between crossed
products, and the grading of a crossed product over a group algebra.  None
of them is reached from a command."""

from hopfcross.algebra import FAlgebra, algebra_map_violations, induced_algebra, ti
from hopfcross.cohomology import NormalizedCochain
from hopfcross.comodule import CrossedSystem, crossed_product
from hopfcross.errors import HopfcrossError, ShapeMismatchError, ValidationError
from hopfcross.graded import GradedAlgebra
from hopfcross.groups import GroupTable
from hopfcross.linalg import Matrix, _basis_row, _dense_vec, basis_vec, vtensor


# ---------------------------------------------------------------------------
# dense vectors: plain tuples of field scalars


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v):
    return tuple(c * a for a in v)


def vzero(field, n):
    return (field.zero,) * n


def kernel_basis(m):
    """The canonical kernel basis of a Matrix (its kernel_rows) as dense
    tuples."""
    return [_dense_vec(m.field, v, m.cols) for v in m.kernel_rows()]


def evaluate(field, functional, vec):
    """The value on vec of the functional with the given values on the
    basis: a counit or an augmentation."""
    s = field.zero
    for a, e in zip(vec, functional):
        if a and e:
            s = s + a * e
    return s


def rho_terms(comodule, i):
    """The coaction of e_i as terms {(x, t): c} of field scalars, read off
    the dense coaction matrix of a right comodule."""
    dh = comodule.hopf.dim
    return {divmod(flat, dh): c for flat, c in enumerate(comodule.coaction.col(i)) if c}


def restrict(ga, g, vec):
    """A dense vector of A supported on A_g as its component coordinates."""
    comp = ga.component_indices(g)
    comp_set = set(comp)
    for i, c in enumerate(vec):
        if c and i not in comp_set:
            raise ValidationError("vector is not supported in component %r" % (g,))
    return tuple(vec[i] for i in comp)


# ---------------------------------------------------------------------------
# the cleft layer on dense columns


def module_act(module, hvec, pvec):
    """h . p for an HModuleStructure, dense."""
    return module.action.apply(vtensor(hvec, pvec))


def measure(system, hvec, bvec):
    """h . b for a CrossedSystem, dense."""
    return system.measuring.apply(vtensor(hvec, bvec))


def sigma_basis(system, g, h):
    """sigma(e_g, e_h) of a CrossedSystem, dense."""
    return system.sigma.col(ti(g, h, system.hopf.dim))


def aug_eps(aug, vec):
    """eps of a dense vector of an AugmentedAlgebra."""
    return evaluate(aug.field, aug.augmentation, vec)


def embed_plus(aug, coords):
    """The dense vector of B+ with the given dense plus coordinates: those
    entries off the first index p where eps is nonzero, and at p the entry
    that eps takes to zero."""
    p = next(i for i, c in enumerate(aug.augmentation) if c)
    vec = list(coords)
    vec.insert(p, aug.field.zero)
    vec[p] = -aug_eps(aug, vec) / aug.augmentation[p]
    return tuple(vec)


def decompose(aug, bvec):
    """b = c.1 + b+ for a dense b, as (c, the dense plus coordinates of b+)."""
    c = aug_eps(aug, bvec)
    plus = vsub(bvec, vscale(c, aug.algebra.one()))
    p = next(i for i, c in enumerate(aug.augmentation) if c)
    return c, plus[:p] + plus[p + 1:]


def cocycle_system(act, s):
    """The crossed system of an H-action on B+ and a normalized 2-cocycle s,
    by the dense formulas: g . b = eps(g) c 1 + g . b+ for b = c 1 + b+ and
    sigma^{+-1}(g, h) = eps(g)eps(h)1 +- s(g, h).  Unchecked."""
    aug = act.aug
    h, b = act.hopf, aug.algebra
    f = b.field
    dh, db = h.dim, b.dim
    meas_cols = []
    for g in range(dh):
        for i in range(db):
            c, plus = decompose(aug, basis_vec(f, db, i))
            val = vscale(h.counit[g] * c, b.one())
            meas_cols.append(vadd(val, embed_plus(aug, module_act(act, basis_vec(f, dh, g), plus))))
    sig_cols, inv_cols = [], []
    for g in range(dh):
        for t in range(dh):
            head = vscale(h.counit[g] * h.counit[t], b.one())
            tail = embed_plus(aug, s.matrix.col(ti(g, t, dh)))
            sig_cols.append(vadd(head, tail))
            inv_cols.append(vsub(head, tail))
    return CrossedSystem(h, b, *(Matrix.from_cols(f, cols) for cols in
                                 (meas_cols, sig_cols, inv_cols)))


class NotAlgebraMapError(HopfcrossError):
    pass


def product_field(field):
    """k x k on the idempotent basis (e1, e2)."""
    o = field.one
    product = {(0, 0): {0: o}, (1, 1): {1: o}, (0, 1): {}, (1, 0): {}}
    return FAlgebra(field, ("p", "q"), product, (o, o))


def trivial_group():
    return GroupTable(["1"], [[0]])


def trivial_sigma(hopf, base):
    """sigma = eps (x) eps, with its own inverse."""
    cols = [vscale(hopf.counit[g] * hopf.counit[h], base.one())
            for g in range(hopf.dim) for h in range(hopf.dim)]
    return Matrix.from_cols(base.field, cols)


def is_commutative(a):
    return all(a.mult_basis(i, j) == a.mult_basis(j, i)
               for i in range(a.dim) for j in range(i + 1, a.dim))


def is_cocommutative(c):
    return all(c.delta_basis(i) == {(k, j): x for (j, k), x in c.delta_basis(i).items()}
               for i in range(c.dim))


def delta2_basis(c, i):
    """(Delta (x) id) o Delta on e_i, as {(a, b, k): scalar}."""
    out = {}
    for (j, k), x in c.delta_basis(i).items():
        for (a, b), y in c.delta_basis(j).items():
            out[(a, b, k)] = out.get((a, b, k), c.field.zero) + x * y
    return {key: x for key, x in out.items() if x}


def hmodule_act_basis(act, h, p):
    """h . e_p for an HModuleStructure, read off its action matrix."""
    return act.action.col(ti(h, p, act.plus_dim))


def measuring_basis(system, h, b):
    """h . b_b for a CrossedSystem, read off its measuring matrix."""
    return system.measuring.col(ti(h, b, system.base.dim))


def gauge_map_matrix(system, t):
    """f_t(b (x) h) = sum b (eps(h1)1 + t(h1)) (x) h2 on B (x) H (b-major),
    for t a dB x dH matrix with values in B."""
    h, b = system.hopf, system.base
    f = b.field
    dh, db = h.dim, b.dim
    cols = []
    for i in range(db):
        bi = basis_vec(f, db, i)
        for g in range(dh):
            out = [f.zero] * (db * dh)
            for (g1, g2), c in h.delta_basis(g).items():
                prod = b.mult(bi, vadd(vscale(h.counit[g1], b.one()), t.col(g1)))
                for x, u in enumerate(prod):
                    if u:
                        out[ti(x, g2, dh)] = out[ti(x, g2, dh)] + c * u
            cols.append(tuple(out))
    return Matrix.from_cols(f, cols)


def gauge_iso(t, source, target):
    """The gauge map f_t between two crossed products over the same (B, H),
    for a degree-1 cochain t with values in B; verified bijective with
    inverse f_{-t} and checked to be an algebra map."""
    h, b = source.hopf, source.base
    f = b.field
    if target.hopf is not h and target.hopf.canonical_constants() != h.canonical_constants():
        raise ShapeMismatchError("gauge between crossed products over different Hopf algebras")
    if target.base.canonical_constants() != b.canonical_constants():
        raise ShapeMismatchError("gauge between crossed products over different bases")
    if t.degree != 1:
        raise ValidationError("gauge cochains have degree 1")
    ft = gauge_map_matrix(source, t.matrix)
    fneg = gauge_map_matrix(source, t.matrix.scale(-f.one))
    ident = Matrix.identity(f, b.dim * h.dim)
    if ft * fneg != ident or fneg * ft != ident:
        raise ValidationError("f_t is not inverted by f_{-t}")
    a1 = crossed_product(source).algebra
    a2 = crossed_product(target).algebra
    bad = next(algebra_map_violations(a1, a2, ft), None)
    if bad:
        raise NotAlgebraMapError("gauge map is not an algebra map: %r" % (bad,))
    return ft


def embed_cochain(aug, cochain):
    """A degree-1 cochain in plus coordinates, re-expressed with values in B."""
    m = cochain.matrix
    return NormalizedCochain(1, Matrix.from_cols(aug.field, [embed_plus(aug, m.col(j))
                                                            for j in range(m.cols)]))


def graded_over_group(ca, group):
    """A crossed product B #_sigma k[G] on its basis b_i (x) g as a G-graded
    algebra, deg(b_i (x) g) = g, listed degree by degree in the index order
    of G, with the change of basis whose columns are the listed vectors."""
    a = ca.algebra
    f = a.field
    dh = ca.hopf.dim
    order = sorted(range(a.dim), key=lambda x: (x % dh, x))
    change = Matrix.from_sparse_cols(f, a.dim, [_basis_row(f, x) for x in order])
    alg = induced_algebra(a, [_basis_row(f, x) for x in order], change.inverse().apply_sparse,
                          tuple("a%d" % s for s in range(a.dim)))
    return GradedAlgebra(alg, group, tuple(x % dh for x in order)), change
