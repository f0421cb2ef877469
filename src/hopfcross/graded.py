"""Finite-group-graded algebras and the recognition of group crossed products.

A grading assigns a group element to every basis vector; components A_g are
spanned by the basis vectors of degree g.  Strong grading, A_g A_h = A_{gh}
for every pair, is decided by the rank of the products of basis vectors of
A_g and A_h, pair by pair.  A group crossed product B x|_sigma Gamma is
recognized by finding a unit u_g of A inside each component A_g; the units
are a section k[Gamma] -> A of the grading read as a k[Gamma]-coaction, and
the crossed system, the product and the isomorphism are those of the Hopf
crossed product B #_sigma k[Gamma] in comodule.py.
"""

from .algebra import convolution_invert, group_hopf_algebra, ti
from .comodule import ComoduleAlgebra, Coinvariants, Section, section_to_crossed_system
from .errors import NotConvolutionInvertibleError, NotCrossedProductError, ValidationError
from .linalg import Matrix, _basis_row, row_space_basis
from .search import DEFAULT_BUDGET, find_invertible_combination


class GradedAlgebra:
    def __init__(self, algebra, group, degree):
        if len(degree) != algebra.dim:
            raise ValidationError("degree map is not total")
        self.algebra = algebra
        self.group = group
        self.degree = tuple(degree)

    @property
    def field(self):
        return self.algebra.field

    def component_indices(self, g):
        return [i for i, d in enumerate(self.degree) if d == g]

    def component_dim(self, g):
        return len(self.component_indices(g))


class GradingReport:
    def __init__(self, violations):
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return "GradingReport(%s)" % ("pass" if self.ok else self.violations)


def check_grading(ga):
    """Verify 1 in A_1 and A_g A_h inside A_{gh}."""
    a = ga.algebra
    grp = ga.group
    violations = []
    for i in a.native_unit:
        if ga.degree[i] != grp.identity:
            violations.append(("unit-outside-neutral-component", (i,)))
    for i, row in sorted(a.native_rows.items()):
        for j, terms in sorted(row.items()):
            target = grp.mul(ga.degree[i], ga.degree[j])
            for k in terms:
                if ga.degree[k] != target:
                    violations.append(
                        ("product-leaves-component", (grp.elements[ga.degree[i]], grp.elements[ga.degree[j]], i, j, k))
                    )
    return GradingReport(violations)


def graded_bridge(ga):
    """A as a k[G]-comodule algebra, e_i |-> e_i (x) g_i.  That coaction is
    coassociative and counital for any degree map, and a unital algebra map
    exactly when 1 is in A_e and A_g A_h lies in A_gh, so check_grading
    alone decides it, and a failure raises with its report.  B = A_e is read
    off the grading, with no elimination: the coaction fixes exactly the
    basis vectors of degree e, and these, in index order, are the canonical
    kernel basis coinvariants would find."""
    report = check_grading(ga)
    if not report.ok:
        raise ValidationError("input is not a graded algebra: %r" % (report,))
    a = ga.algebra
    f = a.field
    hopf = group_hopf_algebra(ga.group, f)
    dh = hopf.dim
    cols = [_basis_row(f, ti(i, ga.degree[i], dh)) for i in range(a.dim)]
    ca = ComoduleAlgebra._certified(a, hopf, Matrix.from_sparse_cols(f, a.dim * dh, cols))
    ca.coinvariants = Coinvariants(a, [_basis_row(f, i)
                                       for i in ga.component_indices(ga.group.identity)])
    return ca


def _component_product_span(ga, g, h):
    """RREF basis of span(A_g . A_h) in A_{gh} component coordinates, as
    sparse native rows."""
    a = ga.algebra
    f = a.field
    gh = ga.group.mul(g, h)
    at = {i: s for s, i in enumerate(ga.component_indices(gh))}
    vecs = []
    for i in ga.component_indices(g):
        for j in ga.component_indices(h):
            prod = a.sparse_mult(_basis_row(f, i), _basis_row(f, j))
            if any(k not in at for k in prod):
                raise ValidationError("vector is not supported in component %r" % (gh,))
            vecs.append({at[k]: c for k, c in prod.items()})
    return row_space_basis(f, vecs, len(at))


def is_strongly_graded(ga):
    """True iff span(A_g A_h) = A_{gh} for all pairs; returns the pair table.
    ga must be a grading (check_grading passes, as it does whenever
    graded_bridge(ga) builds); it is not checked again here."""
    grp = ga.group
    table = {}
    ok = True
    for g in range(grp.order):
        for h in range(grp.order):
            span = _component_product_span(ga, g, h)
            surj = len(span) == ga.component_dim(grp.mul(g, h))
            table[(grp.elements[g], grp.elements[h])] = surj
            ok = ok and surj
    return ok, table


# ---------------------------------------------------------------------------
# recognizing group crossed products


class RecognizedCrossedProduct:
    def __init__(self, system, units, iso):
        self.system = system  # a comodule.CrossedSystem over k[Gamma]
        self.units = units    # per group element: a unit of A in A_g, a sparse native row
        self.iso = iso        # matrix A -> B x|_sigma k[Gamma]


def _find_component_unit(ga, g, budget):
    """Search A_g for an element invertible in A, as a sparse native row;
    None when absent/unfound."""
    a = ga.algebra
    f = a.field
    comp = ga.component_indices(g)
    if not comp:
        return None, True
    # column j of L_{e_i} is e_i e_j, read off the product rows
    mats = [Matrix.from_sparse_cols(f, a.dim, [row.get(j, {}) for j in range(a.dim)])
            for row in (a.native_rows.get(i, {}) for i in comp)]
    outcome = find_invertible_combination(f, mats, budget)
    if not outcome.found:
        return None, outcome.definitive
    return {i: c for i, c in zip(comp, outcome.coeffs) if c}, True


def recognize_group_crossed_product(ga, budget=DEFAULT_BUDGET):
    """Extract a crossed system and an isomorphism, or raise NotCrossedProduct.

    The units u_g give the section phi(g) = u_g of A as a k[Gamma]-comodule
    algebra, so A is the Hopf crossed product B #_sigma k[Gamma] with
    g . b = u_g b u_g^-1 and sigma(g, h) = u_g u_h u_gh^-1."""
    ca = graded_bridge(ga)  # checks the grading, and reads B = A_e off it
    a = ga.algebra
    grp = ga.group
    e = grp.identity
    units = [None] * grp.order
    units[e] = a.native_unit  # u_1 is forced to the algebra unit
    for g in range(grp.order):
        if g == e:
            continue
        u, definitive = _find_component_unit(ga, g, budget)
        if u is None:
            msg = "component %s contains no unit" % grp.elements[g]
            if not definitive:
                msg += " (not found within budget; absence not proved)"
            raise NotCrossedProductError(msg, definitive=definitive)
        units[g] = u
    phi = Matrix.from_sparse_cols(a.field, a.dim, units)
    try:
        # over k[Gamma] this solves u_g x = 1 in A once for each g
        phi_inv = convolution_invert(ca.hopf, a, phi)
    except NotConvolutionInvertibleError:
        raise NotCrossedProductError("candidate unit is one-sided only", definitive=False) from None
    # section_to_crossed_system checks the laws and the iso
    sec = Section(phi, phi_inv, ca)
    system, iso = section_to_crossed_system(sec)
    return RecognizedCrossedProduct(system, units, iso.inverse())
