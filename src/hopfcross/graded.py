"""Finite-group-graded algebras and group crossed products.

A grading assigns a group element to every basis vector; components A_g are
spanned by the basis vectors of degree g.  Strong grading is detected via the
Morita-context product maps A_g (x)_B A_{g^-1} -> B, and crossed products are
recognized by hunting for a unit of A inside each component.
"""

from .algebra import FAlgebra, algebra_map_violations, induced_algebra, ti
from .errors import NotCrossedProductError, ValidationError
from .linalg import (
    LinearMap,
    Matrix,
    QuotientSpace,
    basis_vec,
    row_space_basis,
    solve_linear,
)
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

    def embed(self, g, coords):
        """Coordinates in the A_g component basis -> vector in A."""
        v = [self.field.zero] * self.algebra.dim
        for idx, c in zip(self.component_indices(g), coords):
            v[idx] = c
        return tuple(v)

    def restrict(self, g, vec):
        """Vector in A (supported on A_g) -> component coordinates."""
        comp = self.component_indices(g)
        comp_set = set(comp)
        for i, c in enumerate(vec):
            if c and i not in comp_set:
                raise ValidationError("vector is not supported in component %r" % (g,))
        return tuple(vec[i] for i in comp)

    def neutral_subalgebra(self):
        """A_1 as an FAlgebra on its component basis; raises ValidationError
        when a product of A_1 or the unit leaves A_1."""
        e = self.group.identity
        comp = self.component_indices(e)
        a = self.algebra
        return induced_algebra(a, [basis_vec(a.field, a.dim, i) for i in comp],
                               lambda vec: self.restrict(e, vec),
                               tuple(a.basis[i] for i in comp))


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
    for i, c in enumerate(a.unit):
        if c and ga.degree[i] != grp.identity:
            violations.append(("unit-outside-neutral-component", (i,)))
    for i in range(a.dim):
        for j in range(a.dim):
            target = grp.mul(ga.degree[i], ga.degree[j])
            for k, c in a.mult_basis(i, j).items():
                if c and ga.degree[k] != target:
                    violations.append(
                        ("product-leaves-component", (grp.elements[ga.degree[i]], grp.elements[ga.degree[j]], i, j, k))
                    )
    return GradingReport(violations)


def _component_product_span(ga, g, h):
    """RREF basis of span(A_g . A_h) in A_{gh} component coordinates."""
    a = ga.algebra
    gh = ga.group.mul(g, h)
    vecs = []
    for i in ga.component_indices(g):
        for j in ga.component_indices(h):
            prod = a.mult(basis_vec(a.field, a.dim, i), basis_vec(a.field, a.dim, j))
            vecs.append(ga.restrict(gh, prod))
    n = ga.component_dim(gh)
    return row_space_basis(a.field, vecs, n)


def is_strongly_graded(ga):
    """True iff span(A_g A_h) = A_{gh} for all pairs; returns the pair table."""
    report = check_grading(ga)
    if not report.ok:
        raise ValidationError("input is not a graded algebra: %r" % (report,))
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


class MoritaReport:
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


def relative_tensor_over_neutral(ga, g, h):
    """A_g (x)_B A_h as a quotient of A_g (x) A_h by the middle-B relations.

    Returns (quotient, mu) where mu maps quotient coordinates to A_{gh}
    component coordinates.
    """
    a = ga.algebra
    f = a.field
    e = ga.group.identity
    gi = ga.component_indices(g)
    hi = ga.component_indices(h)
    dg, dh = len(gi), len(hi)
    ambient = dg * dh
    relations = []
    for s, i in enumerate(gi):
        for bidx in ga.component_indices(e):
            xb = ga.restrict(g, a.mult(basis_vec(f, a.dim, i), basis_vec(f, a.dim, bidx)))
            for t, j in enumerate(hi):
                by = ga.restrict(h, a.mult(basis_vec(f, a.dim, bidx), basis_vec(f, a.dim, j)))
                rel = [f.zero] * ambient
                for s2, c in enumerate(xb):
                    rel[ti(s2, t, dh)] = rel[ti(s2, t, dh)] + c
                for t2, c in enumerate(by):
                    rel[ti(s, t2, dh)] = rel[ti(s, t2, dh)] - c
                relations.append(tuple(rel))
    quot = QuotientSpace(f, ambient, relations)
    gh = ga.group.mul(g, h)
    cols = []
    for coords in [basis_vec(f, quot.dim, t) for t in range(quot.dim)]:
        amb = quot.lift(coords)
        acc = [f.zero] * ga.component_dim(gh)
        for flat, c in enumerate(amb):
            if not c:
                continue
            s, t = divmod(flat, dh)
            prod = a.mult(basis_vec(f, a.dim, gi[s]), basis_vec(f, a.dim, hi[t]))
            for idx, val in enumerate(ga.restrict(gh, prod)):
                acc[idx] = acc[idx] + c * val
        cols.append(tuple(acc))
    mu = Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, ga.component_dim(gh), 0)
    return quot, mu


def morita_context(ga, g):
    report = check_grading(ga)
    if not report.ok:
        raise ValidationError("input is not a graded algebra: %r" % (report,))
    grp = ga.group
    ginv = grp.inv[g]
    e = grp.identity
    _, mu_f = relative_tensor_over_neutral(ga, g, ginv)
    _, mu_b = relative_tensor_over_neutral(ga, ginv, g)
    db = ga.component_dim(e)
    fwd_surj = mu_f.rank() == db
    bwd_surj = mu_b.rank() == db
    fwd_bij = fwd_surj and mu_f.cols == db
    bwd_bij = bwd_surj and mu_b.cols == db
    if fwd_surj and bwd_surj and not (fwd_bij and bwd_bij):
        # Lemma-level consequence: a strict Morita context here is bijective
        raise ValidationError("strict Morita context with non-bijective product maps")
    labels_b = tuple(ga.algebra.basis[i] for i in ga.component_indices(e))
    fwd = LinearMap(mu_f, ["t%d" % i for i in range(mu_f.cols)], labels_b)
    bwd = LinearMap(mu_b, ["t%d" % i for i in range(mu_b.cols)], labels_b)
    return MoritaReport(grp.elements[g], fwd, bwd, fwd_surj, bwd_surj, fwd_bij, bwd_bij)


# ---------------------------------------------------------------------------
# group crossed systems and crossed products


class GroupCrossedSystem:
    """Per-g algebra automorphisms of B plus a unit-valued 2-cocycle sigma."""

    def __init__(self, base, group, action, sigma, sigma_inv):
        self.base = base
        self.group = group
        self.action = tuple(action)          # list of dB x dB matrices
        self.sigma = dict(sigma)             # (g, h) -> vector in B
        self.sigma_inv = dict(sigma_inv)


def check_group_crossed_system(s):
    b = s.base
    grp = s.group
    f = b.field
    e = grp.identity
    violations = []
    one = b.one()
    for g in range(grp.order):
        act = s.action[g]
        for name, idx in algebra_map_violations(b, b, act):
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


def group_crossed_product(s):
    """B x|_sigma Gamma on the basis {b_i u_g}, index b-major."""
    report = check_group_crossed_system(s)
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


class RecognizedCrossedProduct:
    def __init__(self, system, units, iso):
        self.system = system
        self.units = units    # per group element: the invertible element of A_g
        self.iso = iso        # LinearMap A -> B x| Gamma


def _find_component_unit(ga, g, budget):
    """Search A_g for an element invertible in A; None when absent/unfound."""
    a = ga.algebra
    f = a.field
    comp = ga.component_indices(g)
    if not comp:
        return None, True
    mats = [a.left_mult_matrix(basis_vec(f, a.dim, i)) for i in comp]
    outcome = find_invertible_combination(f, mats, budget)
    if not outcome.found:
        return None, outcome.definitive
    return ga.embed(g, outcome.coeffs), True


def _inverse_in_algebra(a, x):
    res = solve_linear(a.left_mult_matrix(x), a.one())
    if not res.consistent:
        return None
    inv = res.solution
    # confirm right invertibility separately
    if a.mult(inv, x) != a.one() or a.mult(x, inv) != a.one():
        return None
    return inv


def recognize_group_crossed_product(ga, budget=DEFAULT_BUDGET):
    """Extract a crossed system and an isomorphism, or raise NotCrossedProduct."""
    report = check_grading(ga)
    if not report.ok:
        raise ValidationError("input is not a graded algebra: %r" % (report,))
    a = ga.algebra
    grp = ga.group
    f = a.field
    e = grp.identity
    units = [None] * grp.order
    units[e] = a.one()  # u_1 is forced to the algebra unit
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
    unit_invs = []
    for g in range(grp.order):
        inv = _inverse_in_algebra(a, units[g])
        if inv is None:
            raise NotCrossedProductError("candidate unit is one-sided only", definitive=False)
        unit_invs.append(inv)

    base = ga.neutral_subalgebra()
    comp_b = ga.component_indices(e)
    action = []
    for g in range(grp.order):
        cols = []
        for i in comp_b:
            conj = a.mult(a.mult(units[g], basis_vec(f, a.dim, i)), unit_invs[g])
            cols.append(ga.restrict(e, conj))
        action.append(Matrix.from_cols(f, cols))
    sigma = {}
    sigma_inv = {}
    for g in range(grp.order):
        for h in range(grp.order):
            gh = grp.mul(g, h)
            val = a.mult(a.mult(units[g], units[h]), unit_invs[gh])
            ival = a.mult(a.mult(units[gh], unit_invs[h]), unit_invs[g])
            sigma[(g, h)] = ga.restrict(e, val)
            sigma_inv[(g, h)] = ga.restrict(e, ival)
    system = GroupCrossedSystem(base, grp, action, sigma, sigma_inv)
    product = group_crossed_product(system)  # checks the crossed-system laws
    # alpha : A -> B x| Gamma, a |-> (a u_g^{-1}) (x) u_g on each component
    n = grp.order
    cols = []
    for i in range(a.dim):
        g = ga.degree[i]
        bcoords = ga.restrict(e, a.mult(basis_vec(f, a.dim, i), unit_invs[g]))
        v = [f.zero] * (base.dim * n)
        for s, c in enumerate(bcoords):
            v[ti(s, g, n)] = c
        cols.append(tuple(v))
    alpha = Matrix.from_cols(f, cols)
    _verify_graded_iso(ga, product, alpha)
    iso = LinearMap(alpha, a.basis, product.algebra.basis)
    return RecognizedCrossedProduct(system, units, iso)


def _verify_graded_iso(src, dst, alpha):
    """alpha must be bijective, multiplicative, unital, grading-preserving,
    and restrict to the identity on the neutral component."""
    a, b = src.algebra, dst.algebra
    f = a.field
    if not alpha.is_invertible():
        raise ValidationError("candidate isomorphism is not bijective")
    bad = next(algebra_map_violations(a, b, alpha), None)
    if bad:
        raise ValidationError("candidate isomorphism is not an algebra map: %r" % (bad,))
    for i in range(a.dim):
        img = alpha.apply(basis_vec(f, a.dim, i))
        for k, c in enumerate(img):
            if c and dst.degree[k] != src.degree[i]:
                raise ValidationError("candidate isomorphism does not preserve the grading")
    # identity on B: the neutral component of dst is {b (x) u_1}
    e = src.group.identity
    comp = src.component_indices(e)
    n = src.group.order
    for s, i in enumerate(comp):
        img = alpha.apply(basis_vec(f, a.dim, i))
        expected = [f.zero] * b.dim
        expected[ti(s, e, n)] = f.one
        if img != tuple(expected):
            raise ValidationError("candidate isomorphism is not the identity on B")
