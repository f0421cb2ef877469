"""Z/2-graded linear and Hopf-algebra structures with Koszul signs: signed
tensor products, exterior Hopf superalgebras with their duality pairing,
the even quotient H = A/A_1A, the odd cotangent space W = A_1/A_0^+A_1,
odd primitives in the dual, and the decomposition A ~ Lambda(W) (x) H for
super-commutative Hopf superalgebras.

All bases are homogeneous; `parity` assigns 0 (even) or 1 (odd) to each basis
index. Exterior bases are indexed by subsets of {1..n} ordered by (size,
tuple) and held as bitmasks; every sign is the parity of a merge inversion
count, taken with popcounts.
"""

import itertools
from functools import cached_property

from .algebra import (
    FHopf,
    _add_scaled,
    _lowering,
    check_axioms,
    dual_structure,
    induced_algebra,
    induced_coproduct,
    require_morphism,
    ti,
)
from .cohomology import colinear_splitting_nilpotent, sub_comodule_algebra
from .comodule import ComoduleAlgebra
from .errors import (
    CharacteristicTwoError,
    NotSuperCommutativeError,
    ShapeMismatchError,
    ValidationError,
)
from .linalg import (
    Matrix,
    QuotientSpace,
    _basis_row,
    _dot,
    _reduced,
    column_coordinates,
    echelon_complement,
    row_space_basis,
    vtensor,
)


def _require_odd_characteristic(field):
    if field.characteristic == 2:
        raise CharacteristicTwoError("signs degenerate in characteristic 2")


class SuperVectorSpace:
    def __init__(self, parity):
        self.parity = tuple(int(p) for p in parity)
        if any(p not in (0, 1) for p in self.parity):
            raise ValidationError("parities must be 0 or 1")
        self.odd_dim = sum(1 for p in self.parity if p == 1)
        self.dim = len(self.parity)


class SuperPresentation:
    """A Hopf algebra presentation together with a homogeneous basis parity.

    A Hopf superalgebra obeys the Hopf algebra laws with Koszul signs: Delta
    is an algebra map into A (x)_super A.  Its axioms are checked by
    check_axioms("super-hopf", ...), of which the ungraded Hopf check is the
    all-even case.
    """

    def __init__(self, hopf, parity):
        _require_odd_characteristic(hopf.field)
        if len(parity) != hopf.dim:
            raise ShapeMismatchError("parity list has wrong length")
        self.hopf = hopf
        self.space = SuperVectorSpace(parity)
        self.parity = self.space.parity

    @property
    def field(self):
        return self.hopf.field

    @property
    def dim(self):
        return self.hopf.dim

    def is_super_commutative(self):
        """Whether xy = (-1)^{|x||y|} yx on every pair of basis elements,
        decided on the first call and kept on the presentation, so a
        decomposition and its even quotient share one test."""
        return self._super_commutative

    @cached_property
    def _super_commutative(self):
        """On the lowered product rows (see algebra._lowering), each pair
        once: e_i e_j - (-1)^{|i||j|} e_j e_i is one difference."""
        h = self.hopf
        _, d, clean = _lowering((h,))
        rows = h.lowered_rows(d)
        p = self.parity
        for i in range(h.dim):
            row_i = rows.get(i, {})
            for j in range(i, h.dim):
                diff = dict(row_i.get(j, {}))
                sign = 1 if p[i] and p[j] else -1
                for k, c in rows.get(j, {}).get(i, {}).items():
                    diff[k] = diff[k] + sign * c if k in diff else sign * c
                if clean(diff):
                    return False
        return True

    def check_super_axioms(self):
        """Violations list: parity laws, then the Hopf laws with Koszul signs."""
        return check_axioms("super-hopf", self).violations

    def require_valid(self):
        out = self.check_super_axioms()
        if out:
            raise ValidationError("super axiom violations: %r" % (out[:5],))


def super_tensor_product(sa, sb, labels=None):
    """A (x)_super B with (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb'."""
    a, b = sa.hopf, sb.hopf
    f = a.field
    if f != b.field:
        raise ShapeMismatchError("tensor factors over different fields")
    _require_odd_characteristic(f)
    da, db = a.dim, b.dim
    pa, pb = sa.parity, sb.parity
    if labels is None:
        labels = tuple(
            "%s(x)%s" % (a.basis[i], b.basis[j]) for i in range(da) for j in range(db)
        )
    p, dim = f.characteristic, da * db
    rows_a, rows_b = a.native_rows, b.native_rows
    rows = {}
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    odd = pb[j] and pa[k]
                    out = {ti(x, y, db): -c * d if odd else c * d
                           for x, c in rows_a.get(i, {}).get(k, {}).items()
                           for y, d in rows_b.get(j, {}).get(l, {}).items()}
                    if out:
                        rows.setdefault(ti(i, j, db), {})[ti(k, l, db)] = _reduced(out, p)
    # Delta(a (x) b) = sum (-1)^{|a2||b1|} (a1 (x) b1) (x) (a2 (x) b2)
    coproduct = {}
    for i in range(da):
        for j in range(db):
            out = {}
            for (a1, a2), c in a.native_coproduct.get(i, {}).items():
                for (b1, b2), d in b.native_coproduct.get(j, {}).items():
                    cd = -c * d if pa[a2] and pb[b1] else c * d
                    key = (ti(a1, b1, db), ti(a2, b2, db))
                    out[key] = out[key] + cd if key in out else cd
            if out := _reduced(out, p):
                coproduct[ti(i, j, db)] = out
    # S(a (x) b) = S(a) (x) S(b); the Koszul signs already live in the
    # product and coproduct, so no extra sign appears here
    anti_a, anti_b = a.antipode.native_cols(), b.antipode.native_cols()
    cols = [vtensor(u, v, db, p) for u in anti_a for v in anti_b]
    hopf = FHopf._native(f, labels, native_rows=rows, native_coproduct=coproduct,
                         native_unit=vtensor(a.native_unit, b.native_unit, db, p),
                         native_counit=vtensor(a.native_counit, b.native_counit, db, p),
                         antipode=Matrix.from_sparse_cols(f, dim, cols))
    parity = tuple((pa[i] + pb[j]) % 2 for i in range(da) for j in range(db))
    return SuperPresentation(hopf, parity)


# ---------------------------------------------------------------------------
# exterior Hopf superalgebras


def _inversions(s, t):
    """Number of pairs (a, b) in s x t with a > b, for disjoint bitmasks."""
    inv = 0
    while t:
        low = t & -t  # the least element b of t
        inv += (s & -(low << 1)).bit_count()  # the elements of s above b
        t ^= low
    return inv


class ExteriorHopf:
    """Lambda(V) on a purely odd n-dimensional V; basis indexed by subsets of
    {1..n} ordered by (size, tuple), held as bitmasks with bit i - 1 for i."""

    def __init__(self, n, field):
        _require_odd_characteristic(field)
        if n < 0:
            raise ValidationError("Lambda(V) needs dim V = n >= 0, got n = %d" % n)
        self.n = n
        self.field = field
        # combinations come in (size, tuple) order
        self.subsets = [c for r in range(n + 1)
                        for c in itertools.combinations(range(1, n + 1), r)]
        self.index = {s: i for i, s in enumerate(self.subsets)}
        f = field
        dim = len(self.subsets)
        masks = [sum(1 << (x - 1) for x in s) for s in self.subsets]
        at = {m: i for i, m in enumerate(masks)}
        # the native scalar of (-1)^k, by the parity of k
        sign = (1, f.characteristic - 1) if f.characteristic else (f.one, -f.one)
        labels = tuple("1" if not s else "^".join("v%d" % i for i in s) for s in self.subsets)
        rows = {}
        for i, s in enumerate(masks):
            rows[i] = {j: {at[s | t]: sign[_inversions(s, t) & 1]}
                       for j, t in enumerate(masks) if not s & t}
        coproduct = {}
        for i, s in enumerate(masks):
            bits = [1 << (x - 1) for x in self.subsets[i]]
            out = {}
            for r in range(len(bits) + 1):
                for part in itertools.combinations(bits, r):
                    left = sum(part)
                    out[(at[left], at[s ^ left])] = sign[_inversions(left, s ^ left) & 1]
            coproduct[i] = out
        unit = {0: sign[0]}  # e_{}, which is also the counit
        # the antipode is (-1)^|S| on e_S
        antipode = Matrix.from_sparse_rows(f, [{i: sign[len(s) & 1]}
                                               for i, s in enumerate(self.subsets)], dim)
        self.hopf = FHopf._native(f, labels, native_rows=rows, native_unit=unit,
                                  native_coproduct=coproduct, native_counit=unit,
                                  antipode=antipode)
        self.parity = tuple(len(s) % 2 for s in self.subsets)
        self.presentation = SuperPresentation(self.hopf, self.parity)

    @property
    def dim(self):
        return len(self.subsets)


def exterior_hopf(n, field):
    out = ExteriorHopf(n, field)
    violations = out.presentation.check_super_axioms()
    if violations:
        raise ValidationError("exterior construction broke an axiom: %r" % (violations[:3],))
    return out


# ---------------------------------------------------------------------------
# duality pairing Lambda(V*) x Lambda(V) -> k


class DualityPairing:
    def __init__(self, n, field, matrix, iso, exterior):
        self.n = n
        self.field = field
        self.matrix = matrix  # <e*_S, e_T> on subset bases
        self.iso = iso        # Lambda(V*) -> (Lambda(V))*
        self.exterior = exterior  # Lambda(V), checked


def duality_pairing(n, field):
    """<f_1 ^ ... ^ f_m, v_1 ^ ... ^ v_m> = sum_sigma sgn(sigma) prod
    f_i(v_{sigma(i)}); zero across distinct exterior degrees.  On the subset
    bases <e*_S, e_T> is the determinant of the 0/1 matrix [s = t] over
    s in S, t in T, which is the identity when S = T and has a zero row when
    S != T are of one size: the pairing matrix is the identity."""
    _require_odd_characteristic(field)
    ext = exterior_hopf(n, field)
    pairing = Matrix.identity(field, ext.dim)
    dual = SuperPresentation(dual_structure(ext.hopf), ext.parity)
    # the iso Lambda(V*) -> Lambda(V)* sends e*_S to <e*_S, -> = row S; its
    # check includes that the pairing is nondegenerate
    iso = pairing.transpose()
    _check_super_hopf_iso(ext.presentation, dual, iso)
    return DualityPairing(n, field, pairing, iso, ext)


def _check_super_hopf_iso(src_sp, dst_sp, m):
    """m : src -> dst must be a bijective map of Hopf superalgebras (same
    parity on both sides); src is a checked Hopf superalgebra and dst is
    associative with its unit laws.  Comultiplicativity is a colinear law,
    as in ComoduleCoalgebraData._colinear_structure_laws: dst is a right
    dst-comodule by Delta_dst and src one by (id (x) m) Delta_src, which
    m (x) id carries to (m (x) m) Delta_src."""
    src, dst = src_sp.hopf, dst_sp.hopf
    cols = m.native_cols()

    def src_rho_basis(i):
        """(id (x) m) Delta_src(e_i) as native terms {(j, y): c}."""
        out = {}
        for (j, k), c in src.native_coproduct.get(i, {}).items():
            for y, u in cols[k].items():
                out[j, y] = out[j, y] + c * u if (j, y) in out else c * u
        return out

    # in duality_pairing dst is the dual of src, whose algebra laws are the
    # coalgebra laws of src, so src's generating set certifies an algebra map
    require_morphism(m, "candidate map is not a bijective, comultiplicative, counital algebra map",
                     bijective=True, algebra=(src, dst), rho=(src_rho_basis, dst.rho_basis),
                     counit=(src.native_counit, dst.native_counit),
                     generators=src.generating_set)
    # parity must be preserved: an odd image is supported on odd indices
    for i, col in enumerate(cols):
        if src_sp.parity[i] == 1 and any(dst_sp.parity[x] != 1 for x in col):
            raise ValidationError("candidate map does not preserve parity")
    if m * src.antipode != dst.antipode * m:
        raise ValidationError("candidate map does not commute with the antipode")


# ---------------------------------------------------------------------------
# even quotient H = A/A_1A and the odd cotangent W = A_1/A_0^+A_1


def even_quotient(sp):
    """(H, pi) where H = A/A_1A is a purely even Hopf algebra, for sp a
    checked Hopf superalgebra (require_valid) over a field of characteristic
    != 2.  Checked: super-commutativity, and H's Hopf laws, the one
    certificate that H is associative, which alpha's check on A's G assumes.
    Implied, so not checked: I = A_1A is a Hopf ideal (two-sided by
    super-commutativity; eps, S and Delta preserve parity, so eps(A_1) = 0,
    S(A_1) lies in A_1 and Delta(A_1) in A_1 (x) A_0 + A_0 (x) A_1); I is
    nilpotent, I^(m+1) = A_1^(m+1) A = 0 for m = dim A_1, since odd elements
    square to zero (a^2 = -a^2) and anticommute; H is purely even, since each
    odd e_i = e_i 1 lies in I, so is a pivot of I's RREF, never a quotient
    coordinate."""
    if not sp.is_super_commutative():
        raise NotSuperCommutativeError("even quotient requires super-commutativity")
    h = sp.hopf
    f = h.field
    dim = h.dim
    gens = []
    for i in range(dim):
        if sp.parity[i] == 1:
            v = _basis_row(f, i)
            gens.append(v)  # A_1 = A_1 . 1
            gens.extend(h.sparse_mult(v, _basis_row(f, j)) for j in range(dim))
    quot = QuotientSpace(f, dim, row_space_basis(f, gens, dim))
    dq = quot.dim
    lifts = [_basis_row(f, j) for j in quot.complement]
    labels = tuple("h%d" % s for s in range(dq))
    alg = induced_algebra(h, lifts, quot.project, labels)
    counit = {t: c for t, j in enumerate(quot.complement) if (c := h.native_counit.get(j))}
    anti_cols = [quot.project(h.antipode.apply_sparse(v)) for v in lifts]
    quotient_hopf = FHopf._native(f, labels, native_rows=alg.native_rows,
                                  native_unit=alg.native_unit,
                                  native_coproduct=induced_coproduct(h, lifts, quot.project),
                                  native_counit=counit,
                                  antipode=Matrix.from_sparse_cols(f, dq, anti_cols))
    report = check_axioms("hopf", quotient_hopf)
    if not report.ok:
        raise ValidationError("even quotient is not a Hopf algebra: %r" % (report,))
    pi = Matrix.from_sparse_cols(f, dq, [quot.project(_basis_row(f, j)) for j in range(dim)])
    return quotient_hopf, pi


class OddCotangent:
    def __init__(self, space, representatives, projection):
        self.space = space                     # purely odd SuperVectorSpace
        self.representatives = representatives # sparse native vectors in A
        self.projection = projection           # A -> W coordinates

    @property
    def dim(self):
        return self.space.odd_dim


def odd_cotangent_of_algebra(algebra, counit, parity):
    """W = A_1/A_0^+A_1 for an augmented superalgebra, with the counit a
    sparse native row; also computed as the odd part of A^+/(A^+)^2 and
    asserted equal."""
    f = algebra.field
    dim = algebra.dim
    # distinct basis vectors in index order are their own echelon basis
    odd_span = [_basis_row(f, i) for i in range(dim) if parity[i] == 1]
    aplus = Matrix.from_sparse_rows(f, [counit], dim).kernel_rows()
    # A^+ is parity-graded, so its even part is the componentwise projection
    even_plus = row_space_basis(f, _part(aplus, parity, 0), dim)
    mult = algebra.sparse_mult
    rel1 = row_space_basis(f, [mult(x, y) for x in even_plus for y in odd_span], dim)
    # second description: odd part of (A^+)^2
    sq = row_space_basis(f, [mult(x, y) for x in aplus for y in aplus], dim)
    rel2 = row_space_basis(f, _part(sq, parity, 1), dim)
    if rel1 != rel2:
        raise ValidationError("the two descriptions of the odd cotangent disagree")
    # quotient of the odd span by the relations
    reps = echelon_complement(f, rel1, odd_span)
    # projection A -> W coordinates: kill relations and even coordinates
    quot = QuotientSpace(f, dim, rel1 + [_basis_row(f, i) for i in range(dim) if parity[i] == 0])
    proj = Matrix.zeros(f, 0, dim)
    if reps:
        in_reps = column_coordinates(Matrix.from_sparse_cols(f, quot.dim,
                                                             [quot.project(v) for v in reps]))
        cols = []
        for j in range(dim):
            sol = in_reps(quot.project(_basis_row(f, j)))
            if sol is None:
                raise ValidationError("odd coordinate escapes the representative span")
            cols.append(sol)
        proj = Matrix.from_sparse_cols(f, len(reps), cols)
    return OddCotangent(SuperVectorSpace((1,) * len(reps)), reps, proj)


def _part(vecs, parity, q):
    """The parity-q components of sparse vectors."""
    return [{i: c for i, c in v.items() if parity[i] == q} for v in vecs]


def odd_cotangent(sp):
    return odd_cotangent_of_algebra(sp.hopf.as_algebra(), sp.hopf.native_counit, sp.parity)


def odd_primitives(sp):
    """Echelon basis of U = {u odd in A* : u(ab) = u(a)eps(b) + eps(a)u(b)},
    as sparse native rows."""
    h = sp.hopf
    f = h.field
    p = f.characteristic
    dim = h.dim
    rows_of, counit = h.native_rows, h.native_counit
    # u vanishes on even basis indices
    rows = [_basis_row(f, i) for i in range(dim) if sp.parity[i] == 0]
    # primitivity, one linear constraint per basis pair
    for i in range(dim):
        for j in range(dim):
            row = dict(rows_of.get(i, {}).get(j, {}))
            for k, c in ((i, counit.get(j)), (j, counit.get(i))):
                if c:
                    row[k] = row[k] - c if k in row else -c
            row = _reduced(row, p)
            if row:  # most pairs of basis monomials give none
                rows.append(row)
    return Matrix.from_sparse_rows(f, rows, dim).kernel_rows()


# ---------------------------------------------------------------------------
# decomposition A ~ Lambda(W) (x) H


class DecompositionResult:
    def __init__(self, h, pi, w, phi, delta, alpha, exterior):
        self.h = h
        self.pi = pi
        self.w = w
        self.phi = phi
        self.delta = delta
        self.alpha = alpha
        self.exterior = exterior


def _dual_product(sp, u, v):
    """Product in the dual superalgebra: (uv)(a) = sum u(a_1) v(a_2), for
    sparse native functionals."""
    h = sp.hopf
    cop = h.native_coproduct
    out = {}
    for i in range(h.dim):
        for (j, k), c in cop.get(i, {}).items():
            if j in u and k in v:
                t = c * u[j] * v[k]
                out[i] = out[i] + t if i in out else t
    return _reduced(out, h.field.characteristic)


def decompose(sp):
    """Theorem-style decomposition of a finite-dimensional super-commutative
    Hopf superalgebra A as Lambda(W) (x) H.  Checked: A's super-Hopf laws
    and super-commutativity, H's Hopf laws, alpha (which certifies pi and the
    coaction on A), pi_0, gamma and the Step 1 claims; a theorem gives the
    rest (see even_quotient): A_1A is a nilpotent Hopf ideal, H purely even."""
    if not sp.is_super_commutative():
        raise NotSuperCommutativeError("decomposition requires super-commutativity")
    sp.require_valid()
    h = sp.hopf
    f = h.field
    p = f.characteristic
    dim = h.dim
    cop = h.native_coproduct
    quotient_hopf, pi = even_quotient(sp)
    dh = quotient_hopf.dim
    pi_cols = pi.native_cols()
    # A as an H-comodule algebra via (id (x) pi) o Delta, certified by alpha
    # below before anything is derived from it
    cols = []
    for i in range(dim):
        v = {}
        for (j, k), c in cop.get(i, {}).items():
            _add_scaled(v, c, {ti(j, x, dh): d for x, d in pi_cols[k].items()})
        cols.append(_reduced(v, p))
    ca = ComoduleAlgebra._certified(h.as_algebra(), quotient_hopf,
                                    Matrix.from_sparse_cols(f, dim * dh, cols))
    # Step B: odd primitives and the exterior target
    u_basis = odd_primitives(sp)
    m = len(u_basis)
    cot = odd_cotangent(sp)
    if m != cot.dim:
        raise ValidationError("odd primitive count disagrees with the odd cotangent")
    duality = duality_pairing(m, f)
    ext = duality.exterior
    # iota : Lambda(U) -> A*, subset |-> ordered dual product
    iota = []
    for s in ext.subsets:
        if not s:
            iota.append(h.native_counit)
        else:
            acc = u_basis[s[0] - 1]
            for idx in s[1:]:
                acc = _dual_product(sp, acc, u_basis[idx - 1])
            iota.append(acc)
    # delta : A -> Lambda(W), row S = iota(e_S) as a functional: the pairing
    # matrix is the identity (see duality_pairing), so these rows are already
    # the coordinates through it
    delta = Matrix.from_sparse_rows(f, iota, dim)
    delta_cols = delta.native_cols()
    # Step C: alpha(a) = delta(a_1) (x) pi(a_2)
    alpha_cols = []
    for i in range(dim):
        out = {}
        for (j, k), c in cop.get(i, {}).items():
            for x, u in delta_cols[j].items():
                _add_scaled(out, c * u, {ti(x, y, dh): w for y, w in pi_cols[k].items()})
        alpha_cols.append(_reduced(out, p))
    alpha = Matrix.from_sparse_cols(f, ext.dim * dh, alpha_cols)
    _verify_decomposition(sp, ca, ext, alpha)
    # Step A: colinear splitting phi : H -> A_0 of pi_0
    a0, inc0 = sub_comodule_algebra(ca, [_basis_row(f, i) for i in range(dim)
                                         if sp.parity[i] == 0])
    pi0 = Matrix.from_sparse_cols(f, dh, [pi.apply_sparse(col) for col in inc0.native_cols()])
    sec0 = colinear_splitting_nilpotent(a0, pi0)
    phi = inc0 * sec0.phi  # H -> A, lands in A_0
    # B = coinvariants, gamma = delta|_B
    coinv = ca.coinvariants
    b_alg = coinv.subalgebra
    gamma = Matrix.from_sparse_cols(f, ext.dim, [delta.apply_sparse(b) for b in coinv.basis])
    # B is a subalgebra of the checked A and Lambda(W) is checked, so both
    # are associative and B's generating set certifies an algebra map
    require_morphism(gamma, "gamma : B -> Lambda(W) is not a bijective algebra map",
                     bijective=True, algebra=(b_alg, ext.hopf), generators=b_alg.generating_set)
    # the coinvariant basis is homogeneous
    b_parity = []
    for b in coinv.basis:
        parities = {sp.parity[i] for i in b}
        if len(parities) != 1:
            raise ValidationError("coinvariant basis is not homogeneous")
        b_parity.append(parities.pop())
    _verify_step1_claims(sp, coinv, b_parity, cot)
    w = SuperVectorSpace((1,) * m)
    return DecompositionResult(quotient_hopf, pi, w, phi, delta, alpha, ext)


def _verify_decomposition(sp, ca, ext, alpha):
    """The four invariants: bijective, superalgebra map with Koszul signs,
    right H-colinear, augmented.  ca is A with the coaction (id (x) pi) o Delta
    over H = ca.hopf, which this check certifies as a comodule algebra:
    alpha carries the comodule algebra Lambda(W) (x) H, with coaction
    id (x) Delta, onto it."""
    h = sp.hopf
    quotient_hopf = ca.hopf
    dh = quotient_hopf.dim
    counit = vtensor(ext.hopf.native_counit, quotient_hopf.native_counit, dh,
                     h.field.characteristic)

    def target_rho_basis(flat):
        """Coaction id (x) Delta_H on the basis of Lambda(W) (x) H."""
        x, y = divmod(flat, dh)
        return {(ti(x, y1, dh), y2): d for (y1, y2), d in quotient_hopf.rho_basis(y).items()}

    # target Lambda(W) (x) H: H is purely even, so the Koszul sign on every
    # crossing is +1 and the plain tensor product algebra is the right one;
    # augmented means eps_A = (eps (x) eps) o alpha.  A, Lambda(W) and H are
    # checked, so A's generating set certifies an algebra map
    require_morphism(alpha, "alpha : A -> Lambda(W) (x) H fails an invariant", bijective=True,
                     algebra=(h, (ext.hopf, quotient_hopf)), rho=(ca.rho_basis, target_rho_basis),
                     counit=(h.native_counit, counit),
                     generators=h.generating_set)


def _verify_step1_claims(sp, coinv, b_parity, cot):
    """B_0^+ = B_1^2 and the inclusion B -> A induces W_B ~ W."""
    b = coinv.subalgebra
    f = b.field
    p = f.characteristic
    counit = sp.hopf.native_counit
    eps_b = _reduced({t: _dot(counit, v, p) for t, v in enumerate(coinv.basis)}, p)
    bplus = Matrix.from_sparse_rows(f, [eps_b], b.dim).kernel_rows()
    b0_plus = row_space_basis(f, _part(bplus, b_parity, 0), b.dim)
    # distinct basis vectors in index order are their own echelon basis
    odd_span = [_basis_row(f, t) for t in range(b.dim) if b_parity[t] == 1]
    b1_sq = row_space_basis(f, [b.sparse_mult(x, y) for x in odd_span for y in odd_span], b.dim)
    if b0_plus != b1_sq:
        raise ValidationError("B_0^+ differs from B_1^2")
    cot_b = odd_cotangent_of_algebra(b, eps_b, b_parity)
    if cot_b.dim != cot.dim:
        raise ValidationError("W_B and W have different dimensions")
    # the inclusion must induce an isomorphism W_B -> W
    images = [cot.projection.apply_sparse(coinv.inclusion.apply_sparse(v))
              for v in cot_b.representatives]
    if len(row_space_basis(f, images, cot.dim)) != cot.dim:
        raise ValidationError("inclusion does not induce an isomorphism onto W")
