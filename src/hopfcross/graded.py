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

from .algebra import convolution_invert
from .errors import NotConvolutionInvertibleError, NotCrossedProductError, ValidationError
from .linalg import Matrix, _basis_row, _dense_vec, row_space_basis
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
    comodule.graded_bridge(ga) builds); it is not checked again here."""
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
        self.units = units    # per group element: the invertible element of A_g
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
    # comodule imports this module for check_grading
    from .comodule import Section, graded_bridge, section_to_crossed_system

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
    units = [_dense_vec(a.field, u, a.dim) for u in units]
    return RecognizedCrossedProduct(system, units, iso.inverse())
