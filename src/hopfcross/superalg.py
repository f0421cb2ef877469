"""Z/2-graded linear and Hopf-algebra structures with Koszul signs: signed
tensor products, exterior Hopf superalgebras with their duality pairing,
the even quotient H = A/A_1A, odd primitives in the dual, and the
decomposition A ~ Lambda(W) (x) H for super-commutative Hopf superalgebras,
W read as the dual of the odd primitives.

All bases are homogeneous; `parity` assigns 0 (even) or 1 (odd) to each basis
index. Exterior bases are indexed by subsets of {1..n} ordered by (size,
tuple) and held as bitmasks; every sign is the parity of a merge inversion
count, taken with popcounts.  Each Lambda(n) is checked self-dual, and
Lambda(n), n >= 2, as an algebra over Lambda(1) (`exterior_hopf`).
"""

import itertools
from functools import cached_property

from .algebra import (
    FHopf,
    _add_scaled,
    _lowered,
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
    _reduced,
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
        self.masks = masks = [sum(1 << (x - 1) for x in s) for s in self.subsets]
        self.mask_index = at = {m: i for i, m in enumerate(masks)}
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
    """Lambda(n), certified: self-dual, equal to `dual_structure` of itself
    table for table (which makes the pairing iso of `duality_pairing` the
    identity between equal presentations), and in full by the super axiom
    check for n <= 1, and for n >= 2 by its super tensor structure over the
    checked Lambda(1) (`_super_tensor_violations`); a pass records that its
    algebra laws hold (`algebra_violations`), as a passing check_axioms does."""
    out = ExteriorHopf(n, field)
    if n <= 1:
        laws = out.presentation.check_super_axioms()
    else:
        laws = _super_tensor_violations(out, exterior_hopf(1, field))
    violations = list(itertools.islice(itertools.chain(_self_dual_violations(out.hopf), laws), 3))
    if violations:
        raise ValidationError("exterior construction broke an axiom: %r" % (violations,))
    if n >= 2:
        out.hopf.__dict__.setdefault("algebra_violations", [])
    return out


def _self_dual_violations(h):
    """A witness for each table in which h differs from `dual_structure(h)`."""
    dual = dual_structure(h)
    for law, table in (("product", "native_rows"), ("coproduct", "native_coproduct"),
                       ("unit", "native_unit"), ("counit", "native_counit"),
                       ("antipode", "antipode")):
        if getattr(dual, table) != getattr(h, table):
            yield ("dual-" + law, ())


def _super_tensor_violations(ext, base):
    """Witnesses that the product, antipode and parity of ext = Lambda(n) are
    not those of k (x) Lambda(1) (x) ... (x) Lambda(1), n Koszul-signed
    factors, with base = Lambda(1) a checked Hopf superalgebra, in one O(3^n)
    pass.  The coproduct and counit are not read: ext and base are checked
    self-dual, and the lemma below makes the algebra isomorphism a
    coalgebra isomorphism too.

    Lambda([k]) is the span of the e_S with S in {1..k}.  Lambda([0]) = k e_{}
    must be the ground field as an algebra (e_{} e_{} = e_{}, S(e_{}) = e_{},
    e_{} even, the unit of Lambda(n) and of Lambda(1) equal to e_{}).  For
    k >= 1, e_{S'} (x) v^a -> e_{S' u {k}^a} (S' in {1..k-1}, a in {0, 1};
    Lambda(1)'s index of a subset of {1} is its bitmask) identifies
    Lambda([k-1]) (x) Lambda(1) with Lambda([k]), and each entry of
    Lambda(n) is compared, at the largest element k of the subsets it names,
    with the super tensor product formula (`super_tensor_product`): the
    product (x (x) v)(y (x) w) = (-1)^{|v||y|} xy (x) vw, the antipode
    S(x) (x) S(v) and the parity |x| + |v|, the Lambda([k-1]) factor read
    from Lambda(n)'s own sub-table and the Lambda(1) factor from base.  Each
    product entry must be a nonzero formula entry, and their count that of
    the formula, e^n for Lambda(1)'s e entries: Lambda([k]) has at most e
    times the entries of Lambda([k-1]), so the count leaves none out.

    Lemma: a Koszul-signed A (x) B of self-dual A and B is self-dual: the
    product sign (-1)^{|v||y|} of (x (x) v)(y (x) w) is the coproduct sign
    (-1)^{|x2||v1|} at x1 = x, x2 = y, v1 = v, the factors' constants agree
    by their self-duality, 1 (x) 1 = eps (x) eps and S (x) S is symmetric.
    So if no entry fails, each Lambda([k]) is closed under the product and
    so, as its transpose, under the coproduct, and its algebra isomorphism
    onto Lambda([k-1]) (x) Lambda(1) (a lower level's entry is its own
    formula entry with v = w = e_{}, as base's e_{} entries are its unit's)
    is one of coalgebras too.  By induction from the ground field (Delta
    e_{} = e_{} (x) e_{} and eps(e_{}) = 1 by self-duality), Lambda(n) is
    then a Hopf superalgebra, by the theorem that A (x) B with Koszul signs
    is one when A and B are.  Its proof: every structure map of A and B
    preserves parity, so each sign below is fixed by the parities of the
    factors.  Both bracketings of a triple product carry
    (-1)^{|b||a'| + |b||a''| + |b'||a''|}, so A (x) B is associative, with
    unit 1 (x) 1.  Delta = (id (x) tau (x) id)(Delta_A (x) Delta_B), with
    tau(b (x) a) = (-1)^{|a||b|} a (x) b the Koszul swap, is coassociative
    and counital with eps_A (x) eps_B, since tau is natural in both factors.
    Delta_A, Delta_B and tau are superalgebra maps, so Delta is one; eps is,
    since eps vanishes on odd elements.  Applying m(S (x) id) to Delta(a (x) b)
    gives sum (-1)^{|a2||b1|} (-1)^{|b1||a2|} S(a1)a2 (x) S(b1)b2, the second
    sign from moving S(b1) past a2; the two cancel, leaving
    eps(a)eps(b) 1 (x) 1, and m(id (x) S)Delta alike."""
    sp = ext.presentation
    h, b, parity, base_parity = sp.hopf, base.hopf, sp.parity, base.parity
    masks, at = ext.masks, ext.mask_index
    cols, cols1 = h.antipode.native_cols(), b.antipode.native_cols()
    # the constants of Lambda(n) are integers, so at scale 1 each is its own
    # native int and the pass compares ints
    lower, d, clean = _lowering((h, b), (cols, cols1))
    if d != 1:
        yield ("denominator", ())
        return
    rows, rows1 = h.lowered_rows(1), b.lowered_rows(1)
    cols, cols1 = [_lowered(c, lower) for c in cols], [_lowered(c, lower) for c in cols1]

    # the largest element k of each nonempty subset, as its bit, and the
    # index of the subset without it
    top = [1 << (m.bit_length() - 1) if m else 0 for m in masks]
    rest = [at[m & ~k] for m, k in zip(masks, top)]

    def up(x, k, c):
        """The index of e_{S u {k}^c} for x the index of e_S."""
        return at[masks[x] | k] if c else x

    if not (rows.get(0, {}).get(0) == {0: 1} and cols[0] == {0: 1} and parity[0] == 0
            and _lowered(h.native_unit, lower) == _lowered(b.native_unit, lower) == {0: 1}):
        yield ("ground", ())
    for i, row in rows.items():
        for j, terms in row.items():
            k = max(top[i], top[j])
            if not k:
                continue
            # peel k: e_i = e_x (x) v^a and e_j = e_y (x) v^c
            x, a = (rest[i], 1) if top[i] == k else (i, 0)
            y, c = (rest[j], 1) if top[j] == k else (j, 0)
            odd = base_parity[a] and parity[y]
            want = clean({up(z, k, w): -s * t if odd else s * t
                          for z, s in rows.get(x, {}).get(y, {}).items()
                          for w, t in rows1.get(a, {}).get(c, {}).items()})
            if not want or terms != want:
                yield ("product", (i, j))
    if sum(map(len, rows.values())) != sum(map(len, rows1.values())) ** ext.n:
        yield ("product-count", ())
    for i in range(1, ext.dim):
        k, x = top[i], rest[i]  # e_i = e_x (x) v, v = e_{1} of Lambda(1)
        if cols[i] != clean({up(z, k, w): s * t for z, s in cols[x].items()
                             for w, t in cols1[1].items()}):
            yield ("antipode", (i,))
        if parity[i] != (parity[x] + base_parity[1]) % 2:
            yield ("parity", (i,))


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
    S != T are of one size: the pairing matrix is the identity, and so is the
    iso Lambda(V*) -> Lambda(V)*, e*_S |-> <e*_S, -> = row S.  Lambda(V*)
    has Lambda(V)'s tables and Lambda(V)* their `dual_structure`, which
    `exterior_hopf` certifies equal, so no check runs here."""
    ext = exterior_hopf(n, field)
    pairing = Matrix.identity(field, ext.dim)
    return DualityPairing(n, field, pairing, pairing.transpose(), ext)


# ---------------------------------------------------------------------------
# even quotient H = A/A_1A and the odd primitives


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
    Hopf superalgebra A as Lambda(W) (x) H, W the dual of the odd primitives
    U of A*.  Checked: A's super-Hopf laws and super-commutativity, H's Hopf
    laws, the pairing, alpha, pi_0 and the section; a theorem gives the rest
    of the even quotient (see even_quotient): A_1A is a nilpotent Hopf ideal,
    H purely even.  alpha is checked before Step A to be bijective, a unital
    algebra map, colinear and augmented, which implies the Step 1 claims:
    - alpha preserves parity: row S of delta is a product of |S| odd
      primitives, of parity |S| since Delta preserves it, and pi kills A_1,
      so alpha(a) = delta(a_1) (x) pi(a_2) has the parity of a;
    - a colinear isomorphism maps B = A^{co H} onto (Lambda(W) (x) H)^{co H}
      = Lambda(W) (x) 1, where alpha(b) = delta(b) (x) 1, so gamma = delta|_B
      is a bijective algebra map and B is graded;
    - B_0^+ = B_1^2, W_B ~ W and dim U = dim A_1/A_0^+A_1 hold in
      Lambda(W) (x) H, and alpha carries them back to A."""
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
