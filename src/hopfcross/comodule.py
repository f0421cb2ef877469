"""Right H-comodule algebras: coinvariants, the Galois map, crossed products,
cleftness via section search, and a group grading read as a k[G]-coaction.

Coactions are matrices A -> A (x) H against the flat basis index
ti(a, h, dim H) (a-index major).
"""

from functools import cached_property
from itertools import chain, islice

from .algebra import (
    MAX_VIOLATIONS,
    FAlgebra,
    _RightComodule,
    _add_scaled,
    _lowered,
    _lowering,
    _sparse_product,
    algebra_map_violations,
    coaction_violations,
    convolution_invert,
    group_hopf_algebra,
    induced_algebra,
    relative_tensor,
    require_convolution_inverse,
    require_morphism,
    ti,
)
from .errors import (
    InvalidComoduleAlgebraError,
    InvalidCrossedSystemError,
    NoSectionFoundError,
    NotConvolutionInvertibleError,
    ShapeMismatchError,
    ValidationError,
)
from .graded import check_grading
from .linalg import (
    Matrix,
    _basis_row,
    _native,
    _reduced,
    column_coordinates,
    in_span,
    row_space_basis,
    vtensor,
)
from .search import DEFAULT_BUDGET, find_invertible_combination


class ComoduleAlgebra(_RightComodule):
    """An algebra A with a right coaction rho : A -> A (x) H that is
    coassociative, counital and an algebra map; the constructor raises
    InvalidComoduleAlgebraError otherwise, so every instance is valid.
    Its coinvariants B = A^{co H} are computed once, when first read."""

    def __init__(self, algebra, hopf, coaction):
        if algebra.field != hopf.field:
            raise ShapeMismatchError("algebra and Hopf algebra over different fields")
        if coaction.rows != algebra.dim * hopf.dim or coaction.cols != algebra.dim:
            raise ShapeMismatchError("coaction matrix shape mismatch")
        self.algebra = algebra
        self.hopf = hopf
        self.coaction = coaction
        violations = self.validate()
        if violations:
            raise InvalidComoduleAlgebraError(violations)

    @property
    def field(self):
        return self.algebra.field

    @cached_property
    def coinvariants(self):
        return coinvariants(self)

    def validate(self):
        """The first MAX_VIOLATIONS witnesses: the comodule laws, then rho is
        a unital algebra map A -> A (x) H."""
        a = self.algebra
        rename = {"unit": "coaction-not-unital", "multiplicative": "coaction-not-multiplicative"}
        algebra_map = ((rename[name], idx) for name, idx in
                       algebra_map_violations(a, (a, self.hopf), self.native_coaction))
        laws = chain(coaction_violations(self.rho_basis, self.hopf, a.dim), algebra_map)
        return list(islice(laws, MAX_VIOLATIONS))


def induced_coaction(ca, basis, coords):
    """The coaction matrix (coords (x) id) rho on span(basis), for a
    subcomodule (basis spans it) or a quotient by one (basis lifts its
    classes); basis and coords as in algebra.induced_algebra."""
    f = ca.field
    p = f.characteristic
    dh = ca.hopf.dim
    rho_cols = ca.native_coaction
    cols = []
    for vec in basis:
        rho = {}
        for i, a in vec.items():
            _add_scaled(rho, a, rho_cols[i])
        legs = {}  # t -> the A-leg of rho(vec) at h_t
        for flat, c in _reduced(rho, p).items():
            x, t = divmod(flat, dh)
            legs.setdefault(t, {})[x] = c
        col = {}
        for t, leg in legs.items():
            for y, d in coords(leg).items():
                col[ti(y, t, dh)] = d
        cols.append(col)
    return Matrix.from_sparse_cols(f, len(basis) * dh, cols)


def coaction_kernel(rho_basis, dim, hopf, hvec):
    """Kernel basis of a |-> rho(a) - a (x) hvec on a dim-dimensional right
    hopf-comodule, as sparse native rows; rho_basis(i) is the native
    coaction {(x, t): c} of e_i and hvec a dense vector of H."""
    f = hopf.field
    p = f.characteristic
    dh = hopf.dim
    h = _native(hvec, f).items()
    rows = [{} for _ in range(dim * dh)]
    for i in range(dim):
        for (x, t), c in rho_basis(i).items():
            rows[ti(x, t, dh)][i] = c
        for t, c in h:
            row = rows[ti(i, t, dh)]
            row[i] = row[i] - c if i in row else -c
    return Matrix.from_sparse_rows(f, [_reduced(row, p) for row in rows], dim).kernel_rows()


# ---------------------------------------------------------------------------
# coinvariants


class Coinvariants:
    """The subalgebra B = {a : rho(a) = a (x) 1} with its inclusion into A,
    on a basis of B in A given as sparse native rows (see linalg): the
    canonical kernel basis of coinvariants, or one read off a grading."""

    def __init__(self, algebra, basis):
        f = algebra.field
        self.basis = basis
        self.inclusion = Matrix.from_sparse_cols(f, algebra.dim, basis)
        self._coords = column_coordinates(self.inclusion)
        labels = tuple("b%d" % t for t in range(len(basis)))
        # coords raises unless B is closed under the product and holds 1
        self.subalgebra = induced_algebra(algebra, basis, self.coords, labels)

    @property
    def dim(self):
        return self.subalgebra.dim

    def coords(self, avec):
        """The B-coordinates of an A-vector, as a sparse native row."""
        x = self._coords(avec)
        if x is None:
            raise ValidationError("vector does not lie in the coinvariant subalgebra")
        return x


def coinvariants(ca):
    """B = A^{co H} on the canonical kernel basis of a |-> rho(a) - a (x) 1;
    read it as ca.coinvariants, which computes it once."""
    a, h = ca.algebra, ca.hopf
    return Coinvariants(a, coaction_kernel(ca.rho_basis, a.dim, h, h.unit))


# ---------------------------------------------------------------------------
# the Galois map


class GaloisReport:
    def __init__(self, tensor_square, beta, rank, bijective):
        self.tensor_square = tensor_square
        self.beta = beta
        self.rank = rank  # of beta
        self.bijective = bijective


def galois_map(ca):
    """The Galois map beta : A (x)_B A -> A (x) H, a (x) a' |-> a rho(a'),
    for B = A^{co H}."""
    coinv = ca.coinvariants
    a, h = ca.algebra, ca.hopf
    f = ca.field
    da, dh = a.dim, h.dim

    rows, rho_cols = a.native_rows, ca.native_coaction
    p = f.characteristic

    def image(x, y):
        """e_x rho(e_y)."""
        out = {}
        row = rows.get(x, {})
        for flat, d in rho_cols[y].items():
            z, s = divmod(flat, dh)
            _add_scaled(out, d, {ti(k, s, dh): e for k, e in row.get(z, {}).items()})
        return _reduced(out, p)

    quot, cols = relative_tensor(a, coinv.basis, range(da), range(da), image)
    beta = Matrix.from_sparse_cols(f, da * dh, cols)
    rank = beta.rank()
    bijective = quot.dim == da * dh and rank == da * dh
    return GaloisReport(quot, beta, rank, bijective)


# ---------------------------------------------------------------------------
# a group grading read as a group-algebra coaction


def graded_bridge(ga):
    """A as a k[G]-comodule algebra, e_i |-> e_i (x) g_i.  That coaction is
    a comodule algebra exactly when 1 is in A_e and A_g A_h lies in A_gh, so
    its laws check the grading, and a failure is worded as check_grading
    words it.  B = A_e is read off the grading, with no elimination: the
    coaction fixes exactly the basis vectors of degree e, and these, in
    index order, are the canonical kernel basis coinvariants would find."""
    a = ga.algebra
    f = a.field
    hopf = group_hopf_algebra(ga.group, f)
    dh = hopf.dim
    cols = [_basis_row(f, ti(i, ga.degree[i], dh)) for i in range(a.dim)]
    try:
        ca = ComoduleAlgebra(a, hopf, Matrix.from_sparse_cols(f, a.dim * dh, cols))
    except InvalidComoduleAlgebraError:
        raise ValidationError("input is not a graded algebra: %r" % (check_grading(ga),)) from None
    ca.coinvariants = Coinvariants(a, [_basis_row(f, i)
                                       for i in ga.component_indices(ga.group.identity)])
    return ca


# ---------------------------------------------------------------------------
# crossed systems


class CrossedSystem:
    """A measuring H (x) B -> B and a *-invertible sigma : H (x) H -> B.

    measuring: dB x (dH * dB) matrix, column index ti(h, b, dB);
    sigma, sigma_inv: dB x (dH * dH) matrices, column index ti(g, h, dH).
    """

    def __init__(self, hopf, base, measuring, sigma, sigma_inv):
        self.hopf = hopf
        self.base = base
        dh, db = hopf.dim, base.dim
        if measuring.rows != db or measuring.cols != dh * db:
            raise ShapeMismatchError("measuring matrix shape mismatch")
        for m in (sigma, sigma_inv):
            if m.rows != db or m.cols != dh * dh:
                raise ShapeMismatchError("sigma matrix shape mismatch")
        self.measuring = measuring
        self.sigma = sigma
        self.sigma_inv = sigma_inv


def check_crossed_system(s):
    """Every violated crossed-system law, in order: for each g the measuring
    is unital and multiplicative; sigma is *-invertible; for each g sigma is
    normalized, and the first i on which 1_H does not act as the identity;
    the twisted-module law for each (g, t, i); the cocycle law for each
    (g, t, l).

    The laws contract on native ints (algebra._lowering).  Over Q a term
    with r lowered constants carries D^r, so g . (b_i b_j), the convolution
    unit, e_i in the neutral action and the right side of the cocycle law are
    scaled by D^2; the other laws have the same count on both sides."""
    h, b = s.hopf, s.base
    dh, db = h.dim, b.dim
    cols = [m.native_cols() for m in (s.measuring, s.sigma, s.sigma_inv)]
    lower, d, clean = _lowering((b, h), cols)
    # meas[g][x] = g . b_x and sig[g][t] = sigma(g, t), lowered; *_t transposed
    meas, sig, sig_inv = ([[_lowered(col, lower) for col in c[g * n:(g + 1) * n]]
                           for g in range(dh)] for c, n in zip(cols, (db, dh, dh)))
    meas_t, sig_t = list(zip(*meas)), list(zip(*sig))
    brows, hrows, cop = b.lowered_rows(d), h.lowered_rows(d), h.lowered_coproduct(d)
    hunit, bunit, counit = (_lowered(_native(v, b.field), lower)
                            for v in (h.unit, b.unit, h.counit))
    d2 = d * d

    def combine(terms, vecs):
        """sum_k c_k vecs[k] over the sparse terms {k: c_k}."""
        out = {}
        for k, c in terms.items():
            _add_scaled(out, c, vecs[k])
        return out

    def mult(u, v):
        return _sparse_product(brows, u, v)

    def pairs(g, t):
        """The terms of Delta(g) (x) Delta(t)."""
        return [(g1, g2, t1, t2, c * e) for (g1, g2), c in cop.get(g, {}).items()
                for (t1, t2), e in cop.get(t, {}).items()]

    def convolves_to_unit(x, y):
        for g in range(dh):
            for t in range(dh):
                out = {}
                for g1, g2, t1, t2, c in pairs(g, t):
                    _add_scaled(out, c, mult(x[g1][t1], y[g2][t2]))
                eps = d2 * counit.get(g, 0) * counit.get(t, 0)
                if clean(out) != clean({z: eps * c for z, c in bunit.items()}):
                    return False
        return True

    violations = []
    for g in range(dh):
        if clean(combine(bunit, meas[g])) != clean({x: counit.get(g, 0) * c
                                                    for x, c in bunit.items()}):
            violations.append(("measuring-not-unital", (g,)))
        for i in range(db):
            for j in range(db):
                lhs = combine({k: d2 * c for k, c in brows.get(i, {}).get(j, {}).items()},
                              meas[g])
                rhs = {}
                for (g1, g2), c in cop.get(g, {}).items():
                    _add_scaled(rhs, c, mult(meas[g1][i], meas[g2][j]))
                if clean(lhs) != clean(rhs):
                    violations.append(("measuring-not-multiplicative", (g, i, j)))
    if not (convolves_to_unit(sig, sig_inv) and convolves_to_unit(sig_inv, sig)):
        violations.append(("sigma-not-convolution-invertible", ()))
    # the neutral action does not depend on g but is reported for each g
    neutral = next((i for i in range(db)
                    if clean(combine(hunit, meas_t[i])) != clean({i: d2})), None)
    for g in range(dh):
        target = clean({x: counit.get(g, 0) * c for x, c in bunit.items()})
        if (clean(combine(hunit, sig[g])) != target
                or clean(combine(hunit, sig_t[g])) != target):
            violations.append(("sigma-not-normalized", (g,)))
        if neutral is not None:
            violations.append(("neutral-action-not-identity", (neutral,)))
    # g1 . (t1 . b_i) sigma(g2, t2) = sigma(g1, t1) (g2 t2) . b_i
    for g in range(dh):
        for t in range(dh):
            for i in range(db):
                lhs, rhs = {}, {}
                for g1, g2, t1, t2, c in pairs(g, t):
                    _add_scaled(lhs, c, mult(combine(meas[t1][i], meas[g1]), sig[g2][t2]))
                    gt = hrows.get(g2, {}).get(t2, {})
                    _add_scaled(rhs, c, mult(sig[g1][t1], combine(gt, meas_t[i])))
                if clean(lhs) != clean(rhs):
                    violations.append(("twisted-module-law", (g, t, i)))
    # g1 . sigma(t1, l1) sigma(g2, t2 l2) = sigma(g1, t1) sigma(g2 t2, l)
    for g in range(dh):
        for t in range(dh):
            for l in range(dh):
                lhs, rhs = {}, {}
                for g1, g2, t1, t2, c in pairs(g, t):
                    for (l1, l2), e in cop.get(l, {}).items():
                        tl = hrows.get(t2, {}).get(l2, {})
                        _add_scaled(lhs, c * e, mult(combine(sig[t1][l1], meas[g1]),
                                                     combine(tl, sig[g2])))
                    gt = hrows.get(g2, {}).get(t2, {})
                    _add_scaled(rhs, d2 * c, mult(sig[g1][t1], combine(gt, sig_t[l])))
                if clean(lhs) != clean(rhs):
                    violations.append(("cocycle-law", (g, t, l)))
    return violations


def crossed_product(s):
    """B x|_sigma H on the basis {b_i (x) e_g}, b-index major, with the
    coaction id (x) Delta."""
    violations = check_crossed_system(s)
    if violations:
        raise InvalidCrossedSystemError(violations)
    h, b = s.hopf, s.base
    f = b.field
    dh, db = h.dim, b.dim
    dim = db * dh
    labels = tuple("%s(x)%s" % (bl, hl) for bl in b.basis for hl in h.basis)
    # (b_i (x) g)(b_j (x) t) = sum b_i (g1 . b_j) sigma(g2, t1) (x) g3 t2 on
    # lowered constants: each term carries D^8 (two constants of Delta^2(g),
    # one each of Delta(t), g3 t2, g1 . b_j, sigma(g2, t1) and the two
    # products in B)
    meas, sig = (m.native_cols() for m in (s.measuring, s.sigma))
    lower, d, clean = _lowering((b, h), (meas, sig))
    meas, sig = ([_lowered(col, lower) for col in cols] for cols in (meas, sig))
    brows, hrows, cop = b.lowered_rows(d), h.lowered_rows(d), h.lowered_coproduct(d)
    scale = d ** 8
    product = {}
    for i in range(db):
        bi = {i: 1}
        for g in range(dh):
            d2g = {}
            for (x, g3), c in cop.get(g, {}).items():
                for (g1, g2), e in cop.get(x, {}).items():
                    key = (g1, g2, g3)
                    d2g[key] = d2g.get(key, 0) + c * e
            for j in range(db):
                for t in range(dh):
                    acc = {}
                    for (g1, g2, g3), c in d2g.items():
                        left = _sparse_product(brows, bi, meas[ti(g1, j, db)])
                        for (t1, t2), e in cop.get(t, {}).items():
                            bpart = _sparse_product(brows, left, sig[ti(g2, t1, dh)])
                            for k, u in hrows.get(g3, {}).get(t2, {}).items():
                                ceu = c * e * u
                                for x, v in bpart.items():
                                    key = ti(x, k, dh)
                                    acc[key] = acc.get(key, 0) + ceu * v
                    terms = {k: f.from_fraction(c, scale) for k, c in clean(acc).items()}
                    if terms:
                        product[(ti(i, g, dh), ti(j, t, dh))] = terms
    algebra = FAlgebra(f, labels, product, vtensor(b.unit, h.unit))
    delta = h.native_coproduct
    cols = [{ti(ti(i, g1, dh), g2, dh): c for (g1, g2), c in delta.get(g, {}).items()}
            for i in range(db) for g in range(dh)]
    ca = ComoduleAlgebra(algebra, h, Matrix.from_sparse_cols(f, dim * dh, cols))
    # the coinvariants must be exactly B (x) k1
    coinv = ca.coinvariants
    if coinv.dim != db:
        raise ValidationError("crossed product coinvariants have wrong dimension")
    hunit = _native(h.unit, f).items()
    span = row_space_basis(f, [{ti(i, t, dh): c for t, c in hunit} for i in range(db)], dim)
    for t in range(db):
        if not in_span(f, span, coinv.basis[t]):
            raise ValidationError("crossed product coinvariants differ from B (x) k")
    return ca


# ---------------------------------------------------------------------------
# sections and cleftness


class Section:
    """A convolution-invertible colinear map phi : H -> A with phi(1) = 1 on
    the comodule algebra ca."""

    def __init__(self, phi, phi_inv, ca):
        self.phi = phi
        self.phi_inv = phi_inv
        self.comodule_algebra = ca


def colinear_map_space(ca):
    """Kernel basis of the colinearity constraint rho o phi = (phi (x) id) o Delta,
    as sparse native rows.

    Unknown flat index: ti(a, j, dH) = coefficient of e_a in phi(e_j).
    """
    a, h = ca.algebra, ca.hopf
    f = ca.field
    da, dh = a.dim, h.dim
    # equation (j * da + x) * dh + t: the coefficient of e_x (x) e_t in block j
    rows = [{} for _ in range(dh * da * dh)]

    def add(eq, col, val):
        row = rows[eq]
        row[col] = row[col] + val if col in row else val

    for j in range(dh):
        for aidx in range(da):
            col = ti(aidx, j, dh)
            for (x, t), c in ca.rho_basis(aidx).items():
                add((j * da + x) * dh + t, col, c)
        for (p, q), c in h.rho_basis(j).items():
            for aidx in range(da):
                add((j * da + aidx) * dh + q, ti(aidx, p, dh), -c)
    p = f.characteristic
    return Matrix.from_sparse_rows(f, [_reduced(row, p) for row in rows], da * dh).kernel_rows()


def _phi_cols(flat, dh):
    """The sparse native columns phi(e_j) of a colinear map given by its
    flat coordinates {ti(a, j, dH): c}."""
    cols = [{} for _ in range(dh)]
    for k, c in flat.items():
        x, j = divmod(k, dh)
        cols[j][x] = c
    return cols


def find_section(ca, budget=DEFAULT_BUDGET):
    """Search the colinear maps H -> A for a *-invertible one and normalize it.

    Each candidate phi is tested in the normal-basis form of cleftness
    (Doi-Takeuchi, Comm. Algebra 14 (1986); Montgomery, Hopf Algebras and
    Their Actions on Rings, Thm 8.2.4): with B = A^{co H}, the map
    Phi : B (x) H -> A, b (x) h |-> b phi(h), a dim A x dim A matrix, is
    bijective whenever phi is *-invertible, and phi is *-invertible whenever
    Phi is bijective and A/B is H-Galois.  So the first phi with det Phi != 0
    is the first *-invertible one, unless A/B is not Galois; then that phi
    has no *-inverse, nothing is cleft, and the negative is definitive.  It
    is definitive without a search when dim B * dim H != dim A.
    """
    a, h = ca.algebra, ca.hopf
    f = ca.field
    p = f.characteristic
    da, dh = a.dim, h.dim
    space = colinear_map_space(ca)
    if not space:
        raise NoSectionFoundError("no nonzero colinear maps exist", definitive=True)
    absent = "no convolution-invertible colinear map"
    coinv = ca.coinvariants
    if coinv.dim * dh != da:
        raise NoSectionFoundError(absent, definitive=True)
    # Phi_v has b_t phi_v(h_g) at column ti(t, g, dH), for b_t the coinvariant basis
    mats = [Matrix.from_sparse_cols(f, da, [a.sparse_mult(b, col) for b in coinv.basis
                                            for col in cols])
            for cols in (_phi_cols(v, dh) for v in space)]
    outcome = find_invertible_combination(f, mats, budget)
    if not outcome.found:
        msg = absent
        if not outcome.definitive:
            msg += " found within budget; absence not proved"
        raise NoSectionFoundError(msg, definitive=outcome.definitive)
    flat = {}
    for i, c in _native(outcome.coeffs, f).items():
        _add_scaled(flat, c, space[i])
    phi = Matrix.from_sparse_cols(f, da, _phi_cols(_reduced(flat, p), dh))
    try:
        # normalizing multiplies phi by a unit, so only the first inversion
        # can fail on a valid comodule algebra
        return _normalized_section(ca, phi)
    except NotConvolutionInvertibleError:
        # Phi is bijective, so A/B is not H-Galois: no colinear map is a section
        raise NoSectionFoundError(absent, definitive=True) from None


def _normalized_section(ca, phi_matrix):
    """Replace phi by h |-> u phi(h), u = phi^{-1}(1), and package it with
    its inverse h |-> phi^{-1}(h) phi(1).  Delta(1) = 1 (x) 1 makes phi(1)
    the two-sided inverse of u, so only phi is inverted by a solve; the
    closed-form pair is re-verified like a solved one."""
    a, h = ca.algebra, ca.hopf
    f = ca.field
    unit = _native(h.unit, f)
    phi_inv = convolution_invert(h, a, phi_matrix)
    u, phi_one = (m.apply_sparse(unit) for m in (phi_inv, phi_matrix))
    normalized = Matrix.from_sparse_cols(f, a.dim, [a.sparse_mult(u, col)
                                                    for col in phi_matrix.native_cols()])
    normalized_inv = Matrix.from_sparse_cols(f, a.dim, [a.sparse_mult(col, phi_one)
                                                        for col in phi_inv.native_cols()])
    require_convolution_inverse(h, a, normalized, normalized_inv)
    if normalized.apply_sparse(unit) != _native(a.unit, f):
        raise ValidationError("normalization failed to fix phi(1) = 1")
    require_morphism(normalized, "normalized section is not colinear",
                     rho=(h.rho_basis, ca.rho_basis))
    return Section(normalized, normalized_inv, ca)


def section_to_crossed_system(sec):
    """Extract (measuring, sigma) from a section and the isomorphism
    B x|_sigma H -> A, b (x) h |-> b phi(h)."""
    ca = sec.comodule_algebra
    coinv = ca.coinvariants
    a, h = ca.algebra, ca.hopf
    f = ca.field
    p = f.characteristic
    dh = h.dim
    db = coinv.dim
    mult, cop, hrows = a.sparse_mult, h.native_coproduct, h.native_rows
    phi, phi_inv = sec.phi.native_cols(), sec.phi_inv.native_cols()
    meas_cols = [None] * (dh * db)
    for g in range(dh):
        for t, bv in enumerate(coinv.basis):
            acc = {}
            for (g1, g2), c in cop.get(g, {}).items():
                _add_scaled(acc, c, mult(mult(phi[g1], bv), phi_inv[g2]))
            meas_cols[ti(g, t, db)] = coinv.coords(_reduced(acc, p))

    def on_product(m, g, t):
        """m(e_g e_t) for the native columns m of a map H -> A."""
        out = {}
        for k, u in hrows.get(g, {}).get(t, {}).items():
            _add_scaled(out, u, m[k])
        return _reduced(out, p)

    # sigma(g, t) = phi(g1) phi(t1) phi^-1(g2 t2) and its convolution inverse
    # phi(g1 t1) phi^-1(t2) phi^-1(g2), both read in B; check_crossed_system
    # verifies that they convolve to the unit on both sides
    sig_cols, sig_inv_cols = [None] * (dh * dh), [None] * (dh * dh)
    for g in range(dh):
        for t in range(dh):
            acc, inv = {}, {}
            for (g1, g2), c in cop.get(g, {}).items():
                for (t1, t2), d in cop.get(t, {}).items():
                    head = mult(phi[g1], phi[t1])
                    _add_scaled(acc, c * d, mult(head, on_product(phi_inv, g2, t2)))
                    tail = mult(phi_inv[t2], phi_inv[g2])
                    _add_scaled(inv, c * d, mult(on_product(phi, g1, t1), tail))
            sig_cols[ti(g, t, dh)] = coinv.coords(_reduced(acc, p))
            sig_inv_cols[ti(g, t, dh)] = coinv.coords(_reduced(inv, p))
    base = coinv.subalgebra
    sigma = Matrix.from_sparse_cols(f, db, sig_cols)
    sigma_inv = Matrix.from_sparse_cols(f, db, sig_inv_cols)
    system = CrossedSystem(h, base, Matrix.from_sparse_cols(f, db, meas_cols), sigma, sigma_inv)
    product = crossed_product(system)  # checks the crossed-system laws
    # alpha : B x| H -> A, b (x) h |-> b phi(h)
    alpha = Matrix.from_sparse_cols(f, a.dim, [mult(bv, phi[g]) for bv in coinv.basis
                                               for g in range(dh)])
    require_morphism(alpha, "candidate isomorphism B x|_sigma H -> A", bijective=True,
                     algebra=(product.algebra, a), rho=(product.rho_basis, ca.rho_basis))
    # identity on B: b (x) 1 must map to the inclusion of b
    hunit = _native(h.unit, f).items()
    for i, bv in enumerate(coinv.basis):
        if alpha.apply_sparse({ti(i, t, dh): c for t, c in hunit}) != bv:
            raise ValidationError("isomorphism is not the identity on the coinvariants")
    return system, alpha

