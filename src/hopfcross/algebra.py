"""Finite-dimensional algebra/coalgebra/bialgebra/Hopf presentations.

A presentation stores its structure constants once, sparsely, on native
scalars (see linalg): the product as rows ``{i: {j: {k: c}}}``
(`native_rows`), the coproduct as ``{i: {(j, k): c}}`` (`native_coproduct`),
the unit and counit as sparse native rows (`native_unit`, `native_counit`).
Field scalars appear only at the JSON boundary and in the dense API: the
views `product`, `unit`, `coproduct` and `counit`, derived on their first
read, and `mult`, `one`, `delta`, `mult_basis` and `delta_basis`.  Every
vector is a sparse native row, with one product kernel, `sparse_mult`, and
every law kernel reads native forms only: a map as its native columns, a
coaction as its native terms (`rho_basis`; for a coalgebra, Delta as terms),
both lowered to native ints (see `_lowering`).  FAlgebra and FCoalgebra take
their operations from `_Algebra` and `_Coalgebra`, and FBialgebra from both.
Tensor indices are row-major: basis element ``e_i (x) e_j`` of ``A (x) B``
has index ``i * dim(B) + j`` (`ti`; `linalg.vtensor` forms u (x) v in that
order).

Structure maps are certified by one checker, `require_morphism`: it checks
the laws its caller names (bijective, a unital algebra map, colinear,
counital) with one implementation of each and raises at the first witness.
"""

import heapq
from functools import cached_property
from itertools import chain, islice
from math import lcm

from .errors import (
    NoAntipodeError,
    NotConvolutionInvertibleError,
    ShapeMismatchError,
    ValidationError,
)
from .linalg import (
    FpElement,
    Matrix,
    QuotientSpace,
    _basis_row,
    _dense_vec,
    _dot,
    _native,
    _reduced,
    _subtract,
    connected_components,
    row_space_basis,
    solve_linear,
    vtensor,
)


def ti(i, j, dim_j):
    """Flat index of e_i (x) e_j."""
    return i * dim_j + j


def _native_tables(field, dim, **tables):
    """The native tables, by name, that a public constructor keeps for its
    field-scalar ones, each checked and converted once in the order given: a
    unit or counit tuple (its length checked) as a sparse native row, a
    product {(i, j): {k: c}} as rows {i: {j: {k: c}}} and a coproduct
    {i: {(j, k): c}} as it is (each outer index checked), without zeros."""
    p = field.characteristic
    out = {}
    for name, table in tables.items():
        if name in ("unit", "counit"):
            if len(table) != dim:
                raise ShapeMismatchError("%s vector has wrong length" % name)
            out["native_" + name] = _native(table, field)
            continue
        native = out["native_rows" if name == "product" else "native_coproduct"] = {}
        for key, terms in table.items():
            i, j = key if name == "product" else (key, 0)
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeMismatchError("%s index out of range" % name)
            if not (kept := {k: c.value if p else c for k, c in terms.items() if c}):
                continue
            if name == "product":
                native.setdefault(i, {})[j] = kept
            else:
                native[i] = kept
    return out


class _Structure:
    """A presentation on a basis over a field, kept as its native tables.
    Nothing changes them after construction, so it keeps what it derives
    from them."""

    def __init__(self, field, basis, **tables):
        """The one entry of every structure: its native tables, by name, kept
        as they are and unchecked, with empty caches of their lowerings.  A
        public constructor calls it once it has converted its field-scalar
        tables (`_native_tables`); the parser and every derived structure,
        through `_native`."""
        self.field = field
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.__dict__.update(tables, _rows={}, _terms={})

    @classmethod
    def _native(cls, field, basis, **tables):
        """A structure of class cls on native tables: native_rows and
        native_unit for an algebra, native_coproduct and native_counit for a
        coalgebra, all four for a bialgebra, and the antipode too for a Hopf
        algebra; the unit and counit rows in index order."""
        s = cls.__new__(cls)
        _Structure.__init__(s, field, basis, **tables)
        return s

    def _constants(self):
        return ()

    @cached_property
    def denominator(self):
        """Over Q the lcm of the denominators of the structure constants,
        which the scale D of every `_lowering` that reads this structure is a
        multiple of; 1 over F_p."""
        if self.field.characteristic:
            return 1
        return lcm(*{c.denominator for c in self._constants()})


class _Algebra(_Structure):
    """The algebra operations on the product rows `native_rows` and the unit
    row `native_unit`, shared by FAlgebra and FBialgebra.  They are the only
    stored form of the product and the unit: `product` and `unit` are views
    on field scalars for the dense API, derived on their first read."""

    def __init__(self, field, basis, product, unit):
        _Structure.__init__(self, field, basis,
                            **_native_tables(field, len(basis), unit=unit, product=product))

    def _constants(self):
        rows = chain.from_iterable(row.values() for row in self.native_rows.values())
        return chain(super()._constants(), _values(rows), self.native_unit.values())

    @cached_property
    def product(self):
        """The product {(i, j): {k: c}} on field scalars (over Q it shares
        the rows' dicts)."""
        p = self.field.characteristic
        return {(i, j): {k: FpElement(c, p) for k, c in terms.items()} if p else terms
                for i, row in self.native_rows.items() for j, terms in row.items()}

    @cached_property
    def unit(self):
        return _dense_vec(self.field, self.native_unit, self.dim)

    def lowered_rows(self, d):
        """The product as rows {i: {j: {k: c}}} of native ints at scale d
        (see `_lowering`), lowered from `native_rows` once per d."""
        rows = self._rows.get(d)
        if rows is None:
            rows = self._rows[d] = _product_rows(self.native_rows, _lower(self.field, d))
        return rows

    @cached_property
    def algebra_violations(self):
        """The witnesses of this algebra's own laws (`check_axioms("algebra",
        ...)`), decided once, on the first read.  A bialgebra or Hopf algebra
        that passes its laws there records that it has none."""
        gens = self.generating_set
        if gens is not None and next(_algebra_laws(self, gens), None) is None:
            return []
        return list(islice(_algebra_laws(self), MAX_VIOLATIONS))

    @cached_property
    def generating_set(self):
        """G of this algebra (see `_generating_set`), found on the first read;
        on a bialgebra its pass is weighed by the work each generator costs
        Delta-multiplicativity, which changes no witness."""
        lower, d, _ = _lowering((self,))
        coproduct = self.native_coproduct if isinstance(self, _Coalgebra) else None
        return _generating_set(self.field, self.lowered_rows(d),
                               _lowered(self.native_unit, lower), self.dim, coproduct)

    def one(self):
        return self.unit

    def mult_basis(self, i, j):
        return self.product.get((i, j), {})

    def sparse_mult(self, u, v):
        """u v for sparse native vectors (see linalg): the product kernel."""
        return _reduced(_sparse_product(self.native_rows, u, v), self.field.characteristic)

    def mult(self, x, y):
        """x y for dense tuples of field scalars, on the kernel of
        `sparse_mult`; the dense tuple reduces each sum to a field scalar."""
        f = self.field
        out = _sparse_product(self.native_rows, _native(x, f), _native(y, f))
        return _dense_vec(f, out, self.dim)

    def canonical_constants(self):
        """The product as sorted (i, j, k, c) and the unit as sorted (i, c),
        on native scalars: equal exactly when the tables are."""
        rows = self.native_rows
        prod = tuple((i, j, k, c) for i in sorted(rows) for j in sorted(rows[i])
                     for k, c in sorted(rows[i][j].items()))
        return ("algebra", self.dim, prod, tuple(sorted(self.native_unit.items())))


class _Coalgebra(_Structure):
    """The coalgebra operations on the coproduct `native_coproduct` and the
    counit row `native_counit`, shared by FCoalgebra and FBialgebra.  They
    are the only stored form of the coproduct and the counit: `coproduct`
    and `counit` are views on field scalars for the dense API, derived on
    their first read."""

    def __init__(self, field, basis, coproduct, counit):
        _Structure.__init__(self, field, basis, **_native_tables(
            field, len(basis), counit=counit, coproduct=coproduct))

    def _constants(self):
        return chain(super()._constants(), _values(self.native_coproduct.values()),
                     self.native_counit.values())

    @cached_property
    def coproduct(self):
        """The coproduct {i: {(j, k): c}} on field scalars (over Q it shares
        the native dicts)."""
        p = self.field.characteristic
        return {i: {jk: FpElement(c, p) for jk, c in terms.items()} if p else terms
                for i, terms in self.native_coproduct.items()}

    @cached_property
    def counit(self):
        return _dense_vec(self.field, self.native_counit, self.dim)

    def lowered_coproduct(self, d):
        """The coproduct {i: {(j, k): c}} on native ints at scale d (see
        `_lowering`), lowered from `native_coproduct` once per d."""
        terms = self._terms.get(d)
        if terms is None:
            lower = _lower(self.field, d)
            terms = {i: _lowered(t, lower) for i, t in self.native_coproduct.items()}
            self._terms[d] = terms
        return terms

    def rho_basis(self, i):
        """Delta(e_i) as native terms {(j, k): c}: the coaction of C as a
        right comodule over itself, as colinear_violations reads it."""
        return self.native_coproduct.get(i, {})

    def delta_basis(self, i):
        return self.coproduct.get(i, {})

    def delta(self, vec):
        """Sparse coproduct of a dense vector: dict {(j, k): scalar}."""
        out = {}
        for i, a in enumerate(vec):
            if not a:
                continue
            for jk, c in self.delta_basis(i).items():
                out[jk] = out.get(jk, self.field.zero) + a * c
        return {jk: c for jk, c in out.items() if c}

    def canonical_constants(self):
        """The coproduct as sorted (i, j, k, c) and the counit as sorted
        (i, c), on native scalars."""
        cop = self.native_coproduct
        terms = tuple((i, j, k, c) for i in sorted(cop) for (j, k), c in sorted(cop[i].items()))
        return ("coalgebra", self.dim, terms, tuple(sorted(self.native_counit.items())))


class FAlgebra(_Algebra):
    """A finite-dimensional unital algebra."""


class FCoalgebra(_Coalgebra):
    """A finite-dimensional counital coalgebra."""


class FBialgebra(_Algebra, _Coalgebra):
    """Algebra and coalgebra on one basis, with compatible structures.  It is
    not an FAlgebra or an FCoalgebra; as_algebra and as_coalgebra give it as
    one, sharing its tables and what it derived from them, and each gives
    the same view on every call, so what a view derives is derived once."""

    def __init__(self, field, basis, product, unit, coproduct, counit):
        _Structure.__init__(self, field, basis, **_native_tables(
            field, len(basis), unit=unit, product=product, counit=counit, coproduct=coproduct))

    def as_algebra(self):
        return _view(FAlgebra, self, "native_rows", "native_unit", "_rows")

    def as_coalgebra(self):
        return _view(FCoalgebra, self, "native_coproduct", "native_counit", "_terms")

    def canonical_constants(self):
        return _Algebra.canonical_constants(self) + _Coalgebra.canonical_constants(self)


def _view(cls, s, *names):
    """The cls on the basis of s holding the named attributes of s itself,
    made on the first call and kept on s."""
    views = s.__dict__.setdefault("_views", {})
    view = views.get(cls)
    if view is None:
        view = views[cls] = cls.__new__(cls)
        view.__dict__.update((n, s.__dict__[n]) for n in ("field", "basis", "dim") + names)
    return view


class FHopf(FBialgebra):
    def __init__(self, field, basis, product, unit, coproduct, counit, antipode):
        super().__init__(field, basis, product, unit, coproduct, counit)
        if antipode.rows != self.dim or antipode.cols != self.dim:
            raise ShapeMismatchError("antipode matrix shape mismatch")
        self.antipode = antipode

    @staticmethod
    def from_bialgebra(b, antipode):
        """b with the antipode of its computed convolution inverse, sharing
        b's tables and what b derived from them."""
        h = FHopf.__new__(FHopf)
        h.__dict__.update(b.__dict__, antipode=antipode)
        return h


# ---------------------------------------------------------------------------
# structure carried to a subalgebra or a quotient
#
# basis lists sparse native vectors of the ambient space (see linalg): the
# inclusion of a subspace, or lifts of the classes of a quotient.  coords
# maps a sparse native ambient vector to its sparse native coordinates
# against that basis (solving, restricting or projecting) and raises when
# the vector has none.


def induced_algebra(a, basis, coords, labels):
    """The algebra on span(basis): e_s e_t = coords(basis[s] basis[t]) and
    1 = coords(1)."""
    rows = {}
    for s, u in enumerate(basis):
        for t, v in enumerate(basis):
            if prod := coords(a.sparse_mult(u, v)):
                rows.setdefault(s, {})[t] = prod
    return FAlgebra._native(a.field, labels, native_rows=rows,
                            native_unit=dict(sorted(coords(a.native_unit).items())))


def induced_coproduct(c, basis, coords):
    """{s: (coords (x) coords) Delta(basis[s])} as sparse native coproduct
    terms; coords(e_j) is read once per j."""
    f = c.field
    p = f.characteristic
    cop = c.native_coproduct
    images = {}

    def image(j):
        if j not in images:
            images[j] = coords(_basis_row(f, j)).items()
        return images[j]

    out = {}
    for s, vec in enumerate(basis):
        delta = {}
        for i, a in vec.items():
            _add_scaled(delta, a, cop.get(i, {}))
        terms = {}
        for (j, k), d in _reduced(delta, p).items():
            pj, pk = image(j), image(k)
            for x, u in pj:
                du = d * u
                for y, w in pk:
                    v = du * w
                    terms[x, y] = terms[x, y] + v if (x, y) in terms else v
        out[s] = _reduced(terms, p)
    return out


def relative_tensor(a, b_vectors, left, right, image):
    """X (x)_B Y for X = span(e_x : x in left) and Y = span(e_y : y in right)
    inside A, with XB in X and BY in Y for B = span(b_vectors), sparse native
    rows: the quotient
    of X (x) Y (flat index ti(s, t, len(right)) for e_left[s] (x) e_right[t])
    by xb (x) y - x (x) by, and the sparse native columns {row: c} of the map
    that a B-balanced image(x, y) of e_x (x) e_y induces on it, one per
    quotient basis vector (each lifts to one e_x (x) e_y)."""
    f = a.field
    p = f.characteristic
    n = len(right)
    at_left = {x: s for s, x in enumerate(left)}
    at_right = {y: t for t, y in enumerate(right)}
    by = [[a.sparse_mult(b, _basis_row(f, y)).items() for y in right] for b in b_vectors]
    relations = []
    for s, x in enumerate(left):
        for b, b_right in zip(b_vectors, by):
            xb = a.sparse_mult(_basis_row(f, x), b).items()
            for t, terms in enumerate(b_right):
                rel = {}
                for k, c in xb:
                    j = ti(at_left[k], t, n)
                    rel[j] = rel[j] + c if j in rel else c
                for k, c in terms:
                    j = ti(s, at_right[k], n)
                    rel[j] = rel[j] - c if j in rel else -c
                relations.append(_reduced(rel, p))
    dim = len(left) * n
    quot = QuotientSpace(f, dim, row_space_basis(f, relations, dim))
    return quot, [image(left[j // n], right[j % n]) for j in quot.complement]


# ---------------------------------------------------------------------------
# axiom checking
#
# A Hopf superalgebra obeys the Hopf algebra laws with Koszul signs, and an
# ungraded presentation is the case where every basis element is even.  Each
# law below is a generator of witnesses (name, indices) computed from the
# sparse structure constants, so a check stops as soon as it has enough.
#
# The laws contract on native ints, never on Rational or FpElement: each one
# reads native scalars (see linalg) lowered (`_lowering`): over F_p a residue
# is its own lowering, and over Q c becomes D * c, with D the lcm of the
# denominators of the structures and maps the law reads.  Each structure
# keeps, beside its native tables (`native_rows`, `native_coproduct`,
# `native_unit`, `native_counit`), the lcm of their denominators
# (`denominator`) and the two tables lowered once per scale D
# (`lowered_rows`, `lowered_coproduct`), so the laws, the kernels and the
# checks of one structure share them.  A map arrives as its native columns
# and a coaction as its native terms; they and the units are lowered in each
# call.  Every comparison below
# is exact for any common multiple D of the denominators it reads.
# Sums stay unreduced until `clean`, at the comparison.  Over Q a term with
# r lowered constants carries D^r, so the side of a comparison with fewer
# constants per term is scaled to match: the 1 of the unit and counit laws
# and of counit-of-unit becomes D^2, Delta(e_i e_j) is multiplied by D^2 in
# Delta-multiplicativity, the target eps(e_i) 1 by D^2 in the convolution
# identities f * g = eta eps = g * f (the antipode laws, with f = id and
# g = S, and the check of convolution_invert), and in algebra_map_violations
# the image of the unit and of each product by D (into a tensor product
# A (x) B, whose constants carry D^2, each product by D^2 and the unit not
# at all).  Associativity, coassociativity, coproduct-of-unit and
# counit-multiplicative have the same count on both sides.  Over F_p, D = 1.
# Each comparison fills one difference of its two sides, keyed by a flat int
# (e_x (x) e_y at x * dim + y), and one clean tests it for zero.
#
# Associativity, coassociativity, the counit laws and both multiplicativity
# laws need not be checked on every basis element.  Let G be a set of basis
# indices whose left words e_g1 (e_g2 (... (e_gk 1))) span A
# (`_generating_set`).
# - If the unit laws hold, the left nucleus {x : (xy)z = x(yz) for all y, z}
#   is a subalgebra containing 1, so A is associative once (e_g e_j) e_l =
#   e_g (e_j e_l) for every g in G and all j, l.
# - If moreover A is associative, every product is parity-homogeneous (so the
#   Koszul-signed A (x) A is associative), 1 is even and Delta(1) = 1 (x) 1,
#   then {a : Delta(ax) = Delta(a) Delta(x) for all x} is a subalgebra
#   containing 1, so Delta is multiplicative once it is on every (g, j); so
#   is eps once eps(1) = 1.
# - Then Delta and eps are even unital algebra maps, and so are both sides of
#   coassociativity, (Delta (x) id) Delta and (id (x) Delta) Delta, and of
#   each counit law, (eps (x) id) Delta, (id (x) eps) Delta and id.  Two
#   algebra maps that agree on 1 and on G agree on every word, so these laws
#   hold once they hold on e_g for g in G.
# A pass of the laws that runs all of these over i in G therefore certifies
# the Hopf laws when it finds no witness, whichever order its premises come
# in; a pass that finds a witness decides nothing.  When A has no G (a basis
# of orthogonal idempotents, such as k^G, has
# none, while k[G] has a few group elements), its dual A* may have one.  A*
# (`dual_structure`) has the structure maps transposed, with the parities of
# A, and each law of A* is a law of A transposed: unit and counit,
# associativity and coassociativity, coproduct-of-unit and
# counit-multiplicativity trade places, while Delta-multiplicativity with its
# Koszul sign, counit-of-unit, the parity laws and the antipode laws for the
# transposed antipode map to themselves.  So A passes exactly when A* does.
# check_axioms makes that one pass on A with its G, or else on A* with its
# own G; when it finds no witness, the report is a pass.  Otherwise, or when
# neither has a G, the full loops on A give the witnesses, their order and
# the cap.  As any G certifies, G is picked by the work of the pass: one
# greedy pass visits the lightest indices first, on a bialgebra by left-leg
# weight.  Every witness comes from the full loops, so a cheaper G changes
# what a report costs and never the report.
#
# A structure map m is checked by require_morphism against the laws its
# caller names, in this order, up to the first witness: bijective; a unital
# algebra map (algebra_map_violations, into an algebra or a tensor pair
# (A, B)); colinear (colinear_violations); counital, eps_dst(m e_i) =
# eps_src(e_i) for counits or augmentations (counit_violations).  When the
# unit law holds and both algebras are associative, {a : m(ax) = m(a) m(x)
# for all x} is a subalgebra containing 1, so a caller that has certified
# that may pass the source's G and multiplicativity runs on (g, j) first.


class AxiomReport:
    def __init__(self, kind, violations):
        self.kind = kind
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "AxiomReport(%s: pass)" % self.kind
        return "AxiomReport(%s: %d violations, first %r)" % (
            self.kind,
            len(self.violations),
            self.violations[0],
        )


MAX_VIOLATIONS = 10


def _clean(sparse):
    return {k: c for k, c in sparse.items() if c}


def _add_scaled(out, c, terms):
    """out += c * terms on sparse dicts."""
    for k, u in terms.items():
        cu = c * u
        out[k] = out[k] + cu if k in out else cu


def _lower(field, d):
    """The native scalar c -> d * c as an int over Q; None over F_p, where a
    residue is its own lowering (`_lowered` then keeps a dict as it is)."""
    if field.characteristic:
        return None
    return lambda c: c.numerator * (d // c.denominator)


def _lowering(structures, maps=(), field=None):
    """(lower, D, clean) for contracting on native ints the constants of the
    structures a kernel reads and the maps it reads, each map given by its
    native columns (or by any sparse dicts of its native entries); field is
    needed only when no structure is read.

    Over F_p, lower is None (see `_lower`), D = 1 and clean reduces mod p;
    over Q, D is the lcm of the structures' denominators (each kept on its
    structure) and of the maps' entries, lower(c) = D * c and clean drops
    the zeros.  clean returns a sparse dict of exact representatives, so the
    difference of two sides cleans to {} exactly when they are equal in the
    field, and two cleaned sides compare equal exactly when they are."""
    field = structures[0].field if structures else field
    p = field.characteristic
    if p:
        def reduced(sparse):
            return {k: r for k, v in sparse.items() if (r := v % p)}
        return None, 1, reduced
    d = lcm(*(s.denominator for s in structures),
            *{c.denominator for cols in maps for c in _values(cols)})
    return _lower(field, d), d, _clean


def _values(tables):
    """The scalars of a sequence of sparse dicts."""
    return chain.from_iterable(t.values() for t in tables)


def _lowered(sparse, lower):
    """A sparse dict of native scalars lowered: the dict itself when lower is
    None; nothing changes a dict it reads."""
    return sparse if lower is None else {t: lower(c) for t, c in sparse.items()}


def _product_rows(rows, lower):
    """Native product rows {i: {j: {k: c}}} lowered (see `_lowered`)."""
    if lower is None:
        return rows
    return {i: {j: _lowered(terms, lower) for j, terms in row.items()} for i, row in rows.items()}


def _sparse_product(rows, u, v):
    """u v for sparse vectors {index: c}, from lowered product rows."""
    out = {}
    for x, c in u.items():
        row = rows.get(x)
        if row:
            for y, e in v.items():
                prod = row.get(y)
                if prod:
                    ce = c * e
                    for k, w in prod.items():
                        t = ce * w
                        out[k] = out[k] + t if k in out else t
    return out


def _parity_laws(h, p):
    """The parity witnesses in law order, index by index: for each i the
    products e_i e_j with j ascending, then Delta(e_i), the counit and unit
    at i, and column i of the antipode with its rows ascending.  One pass
    over the sparse product, coproduct and antipode."""
    rows, coproduct = h.native_rows, h.native_coproduct
    antipode = h.antipode.native_cols()
    for i in range(h.dim):
        pi = p[i]
        row = rows.get(i, {})
        for j in sorted(row):
            pk = (pi + p[j]) % 2
            for k in row[j]:
                if p[k] != pk:
                    yield ("product-parity", (i, j, k))
        for (j, k) in coproduct.get(i, ()):
            if (p[j] + p[k]) % 2 != pi:
                yield ("coproduct-parity", (i, j, k))
        if pi and i in h.native_counit:
            yield ("counit-parity", (i,))
        if pi and i in h.native_unit:
            yield ("unit-parity", (i,))
        for k in antipode[i]:
            if p[k] != pi:
                yield ("antipode-parity", (i, k))


WORD_PRIME = 2 ** 61 - 1


def _generating_set(field, rows, unit, dim, coproduct=None):
    """A set G of basis indices whose left words e_g1 (e_g2 (... (e_gk 1)))
    span the algebra with lowered product rows `rows` and lowered unit
    `unit`, or None.  G is the greedy pass (`_greedy_generators`) over the
    indices in increasing weight, ties in index order: e_i weighs its
    occurrences in the products (on a signed permutation of Lambda(m), the
    m degree-one monomials are the lightest) or, given a coproduct, the
    product terms `_left_legs` reads for it.  Past half the basis the pass
    gives up, as the pass over G then saves less than it costs, except on a
    bialgebra whose weights differ: there the pass runs to the end and
    drops the generators, heaviest first, whose words the rest still span
    (on a dense basis of Lambda(3), 6 become 3), and None stays for a
    pruned G past half the basis.  Every G certifies the same laws, so the
    choice changes no witness.  A basis of orthogonal idempotents, such as
    k^G, would keep all but one index, more than half from dimension 3 on,
    read off with no pass.

    The words are eliminated mod p, over Q mod WORD_PRIME: each eliminated
    row reduces an integer combination of lowered words, and integer vectors
    of full rank mod a prime have full rank over Q."""
    if dim >= 3 and _orthogonal_idempotents(rows, unit, dim):
        return None
    p = field.characteristic or WORD_PRIME
    if coproduct is None:
        weight = [0] * dim
        for row in rows.values():
            for terms in row.values():
                for k in terms:
                    weight[k] += 1
    else:
        weight = [sum(len(rows.get(a1, ())) for a1, _ in coproduct.get(i, ())) for i in range(dim)]
    order = sorted(range(dim), key=weight.__getitem__)
    if coproduct is None or len(set(weight)) == 1:
        return _greedy_generators(rows, unit, dim, p, order, dim // 2)
    gens = _greedy_generators(rows, unit, dim, p, order, dim)
    for g in sorted(gens or (), key=weight.__getitem__, reverse=True):
        if g in gens[:-1]:  # the words of those before the last miss it
            rest = _greedy_generators(rows, unit, dim, p, [i for i in gens if i != g], dim)
            gens = gens if rest is None else rest
    return gens if gens is not None and len(gens) <= dim // 2 else None


def _orthogonal_idempotents(rows, unit, dim):
    """Whether the lowered rows and unit read e_i e_j = delta_ij c e_i and
    1 = c sum e_i for one c: the orthogonal idempotents, with c the 1
    lowered (for any other c the unit law fails, and None is still a sound
    answer: every pass over G may be replaced by the full loops)."""
    c = unit.get(0)
    return (len(unit) == len(rows) == dim and all(v == c for v in unit.values())
            and all(len(row) == 1 and row.get(i) == {i: c} for i, row in rows.items()))


def _greedy_generators(rows, unit, dim, p, order, cap):
    """The indices G, visited in order, where e_i joins G when it is not in
    the span of the words of the indices before it.  None when G would keep
    more than cap indices, or when the words of all indices do not span the
    algebra, which needs the right unit law to fail (or, over Q, p to divide
    D).  The cap stops a pass as soon as its G is too large to use: on
    algebras with no G of at most half the basis, such as a rescaled k^S4
    or k + V with V^2 = 0, a pass run to the end and pruned costs tens to
    hundreds of times the capped one."""
    pivots = {}  # leading column -> echelon row with leading entry 1

    def reduce(v):
        v = {k: r for k, c in v.items() if (r := c % p)}
        while v:
            col = min(v)
            row = pivots.get(col)
            if row is None:
                return v
            _subtract(v, v[col], row, p)
        return v

    words, gens, pending = [], [], []

    def admit(v):
        v = reduce(v)
        if v:
            col = min(v)
            inv = pow(v[col], -1, p)
            pivots[col] = {k: c * inv % p for k, c in v.items()}
            words.append(v)
            pending.extend((g, v) for g in gens)

    admit(unit)
    for i in order:
        if len(words) == dim:
            break
        if not reduce({i: 1}):
            continue
        if len(gens) >= cap:
            return None
        gens.append(i)
        pending.extend((i, w) for w in words)
        while pending and len(words) < dim:
            g, w = pending.pop()
            admit(_sparse_product(rows, {g: 1}, w))
    return gens if len(words) == dim else None


def _algebra_laws(a, gens=None):
    """The unit laws, then associativity for e_i on the left, i in gens or
    every i when gens is None: for each j in order, every l with
    (e_i e_j) e_l != e_i (e_j e_l).  Each comparison fills one difference,
    here keyed l * dim + m over the nonzero products."""
    lower, d, clean = _lowering((a,))
    rows = a.lowered_rows(d)
    unit = _lowered(a.native_unit, lower)
    dim = a.dim
    for i in range(dim):
        left, right = {i: -d * d}, {i: -d * d}
        for t, c in unit.items():
            _add_scaled(left, c, rows.get(t, {}).get(i, {}))
            _add_scaled(right, c, rows.get(i, {}).get(t, {}))
        if clean(left):
            yield ("left-unit", (i,))
        if clean(right):
            yield ("right-unit", (i,))
    for i in range(dim) if gens is None else gens:
        row_i = rows.get(i, {})
        for j in range(dim):
            diff = {}
            for k, c in row_i.get(j, {}).items():
                for l, terms in rows.get(k, {}).items():
                    at = l * dim
                    for m, u in terms.items():
                        key = at + m
                        cu = c * u
                        diff[key] = diff[key] + cu if key in diff else cu
            for l, terms in rows.get(j, {}).items():
                at = l * dim
                for k, c in terms.items():
                    for m, u in row_i.get(k, {}).items():
                        key = at + m
                        cu = c * u
                        diff[key] = diff[key] - cu if key in diff else -cu
            diff = clean(diff)
            if diff:
                for l in sorted({key // dim for key in diff}):
                    yield ("associativity", (i, j, l))


def _coassociator(coproduct, dim, i):
    """(Delta (x) id) Delta(e_i) - (id (x) Delta) Delta(e_i), unreduced, from
    the lowered coproduct, with e_a (x) e_b (x) e_k at (a * dim + b) * dim + k."""
    diff = {}
    for (j, k), u in coproduct.get(i, {}).items():
        for (a, b), v in coproduct.get(j, {}).items():
            key = (a * dim + b) * dim + k
            uv = u * v
            diff[key] = diff[key] + uv if key in diff else uv
        at = j * dim
        for (a, b), v in coproduct.get(k, {}).items():
            key = (at + a) * dim + b
            uv = u * v
            diff[key] = diff[key] - uv if key in diff else -uv
    return diff


def _coalgebra_laws(c, gens=None):
    """Coassociativity and the counit laws on e_i, i in gens or every i when
    gens is None.  In a pass over the generating set G of a bialgebra that
    finds no witness, gens = G decides them: Delta and eps are then unital
    algebra maps, so both sides of each law are algebra maps that agree on 1
    and on G, hence on the words that span the algebra."""
    lower, d, clean = _lowering((c,))
    coproduct = c.lowered_coproduct(d)
    counit = _lowered(c.native_counit, lower)
    dim = c.dim
    for i in range(dim) if gens is None else gens:
        if clean(_coassociator(coproduct, dim, i)):
            yield ("coassociativity", (i,))
        left, right = {i: -d * d}, {i: -d * d}
        for (j, k), u in coproduct.get(i, {}).items():
            if j in counit:
                cu = counit[j] * u
                left[k] = left[k] + cu if k in left else cu
            if k in counit:
                cu = u * counit[k]
                right[j] = right[j] + cu if j in right else cu
        if clean(left):
            yield ("counit-left", (i,))
        if clean(right):
            yield ("counit-right", (i,))


def _left_legs(rows, delta):
    """{b1: {a2: sum_a1 Delta_i^{a1 a2} e_a1 e_b1}} over the nonzero products,
    from the lowered product rows and the lowered Delta(e_i)."""
    out = {}
    for (a1, a2), c in delta.items():
        for b1, prod in rows.get(a1, {}).items():
            _add_scaled(out.setdefault(b1, {}).setdefault(a2, {}), c, prod)
    return out


def _bialgebra_laws(b, p, gens=None):
    """Delta and eps are algebra maps; in A (x) A the crossing of two odd
    tensor legs carries the Koszul sign -1.  After the laws on the unit, both
    multiplicativity laws run for e_i on the left, i in gens or every i when
    gens is None.

    Delta(e_i) Delta(e_j) is contracted in stages, O(d^6) in all on dense
    constants where the pairs of coproduct terms cost O(d^8): the left legs
    U[b1][a2] of e_i once per i, then per pair
    V[a2, b2] = sum_b1 (-1)^{p(a2) p(b1)} U[b1][a2] Delta_j^{b1 b2}
    and the sum of V[a2, b2] (x) e_a2 e_b2.  The constants are lowered to
    native ints; each term of that sum carries D^4 and each term of
    Delta(e_i e_j) D^2, so the latter is multiplied by D^2.  The two sides
    fill one difference, with e_x (x) e_y at x * dim + y."""
    lower, d, clean = _lowering((b,))
    rows, coproduct = b.lowered_rows(d), b.lowered_coproduct(d)
    unit, counit = _lowered(b.native_unit, lower), _lowered(b.native_counit, lower)
    d2 = d * d
    dim = b.dim
    char = b.field.characteristic

    def nonzero(x):
        """Whether the lowered scalar x is not 0 in the field."""
        return x % char if char else x

    diff = {i * dim + j: -x * y for i, x in unit.items() for j, y in unit.items()}
    for t, c in unit.items():
        for (j, k), u in coproduct.get(t, {}).items():
            key = j * dim + k
            cu = c * u
            diff[key] = diff[key] + cu if key in diff else cu
    if clean(diff):
        yield ("coproduct-of-unit", ())
    if nonzero(sum(c * counit.get(t, 0) for t, c in unit.items()) - d2):
        yield ("counit-of-unit", ())
    for i in range(dim) if gens is None else gens:
        legs = _left_legs(rows, coproduct.get(i, {}))
        row_i, counit_i = rows.get(i, {}), counit.get(i, 0)
        for j in range(dim):
            diff = {}
            for k, c in row_i.get(j, {}).items():
                cd = -c * d2
                for (x, y), u in coproduct.get(k, {}).items():
                    key = x * dim + y
                    diff[key] = diff[key] + cd * u if key in diff else cd * u
            v = {}
            for (b1, b2), e in coproduct.get(j, {}).items():
                for a2, u in legs.get(b1, {}).items():
                    if b2 not in rows.get(a2, ()):
                        continue  # e_a2 e_b2 = 0
                    out = v.setdefault((a2, b2), {})
                    sign = -e if p[a2] and p[b1] else e
                    for x, w in u.items():
                        ew = sign * w
                        out[x] = out[x] + ew if x in out else ew
            for (a2, b2), vx in v.items():
                prod = rows[a2][b2].items()
                for x, u in vx.items():
                    at = x * dim
                    for y, w in prod:
                        key = at + y
                        uw = u * w
                        diff[key] = diff[key] + uw if key in diff else uw
            if clean(diff):
                yield ("coproduct-multiplicative", (i, j))
            s = sum(c * counit.get(k, 0) for k, c in row_i.get(j, {}).items())
            if nonzero(s - counit_i * counit.get(j, 0)):
                yield ("counit-multiplicative", (i, j))


def _convolution_failures(c, a, f_cols, g_cols):
    """For each i in order, (i, (f * g)(e_i) != eps(e_i) 1,
    (g * f)(e_i) != eps(e_i) 1) in the convolution algebra Hom(C, A), for f
    and g given by their native columns.  Each term of a product carries D^4,
    so eps(e_i) 1 is multiplied by D^2; each identity fills one difference."""
    lower, d, clean = _lowering((a, c), (f_cols, g_cols))
    rows, coproduct = a.lowered_rows(d), c.lowered_coproduct(d)
    f_cols = [_lowered(col, lower) for col in f_cols]
    g_cols = [_lowered(col, lower) for col in g_cols]
    unit, counit = _lowered(a.native_unit, lower), _lowered(c.native_counit, lower)
    d2 = d * d

    def add_product(out, u, left, right):
        """out += u * left right for sparse vectors left and right."""
        for x, v in left.items():
            row = rows.get(x)
            if row:
                uv = u * v
                for y, w in right.items():
                    prod = row.get(y)
                    if prod:
                        _add_scaled(out, uv * w, prod)

    for i in range(c.dim):
        e = -d2 * counit.get(i, 0)
        fg = {t: e * x for t, x in unit.items()}
        gf = dict(fg)
        for (j, k), u in coproduct.get(i, {}).items():
            add_product(fg, u, f_cols[j], g_cols[k])
            add_product(gf, u, g_cols[j], f_cols[k])
        yield i, bool(clean(fg)), bool(clean(gf))


def _antipode_laws(h):
    """id * S = eta eps = S * id in the convolution algebra End(H)."""
    identity = [_basis_row(h.field, i) for i in range(h.dim)]
    for i, right, left in _convolution_failures(h, h, identity, h.antipode.native_cols()):
        if right:
            yield ("antipode-right", (i,))
        if left:
            yield ("antipode-left", (i,))


def _laws(kind, s, parity, gens):
    """The witnesses of the laws of kind on s in law order; associativity,
    and for a bialgebra coassociativity, the counit laws and both
    multiplicativity laws, for e_i (on the left) with i in gens, or every i
    when gens is None (see above).  check_axioms answers the kind "algebra"
    from algebra_violations."""
    if kind == "coalgebra":
        return _coalgebra_laws(s)
    if kind not in ("bialgebra", "hopf", "super-hopf"):
        raise ValueError("unknown axiom kind %r" % (kind,))
    laws = chain(_algebra_laws(s, gens), _coalgebra_laws(s, gens),
                 _bialgebra_laws(s, parity, gens))
    if kind != "bialgebra":
        laws = chain(laws, _antipode_laws(s))
    if kind == "super-hopf":
        laws = chain(_parity_laws(s, parity), laws)
    return laws


def check_axioms(kind, data):
    """Check structure axioms up to the requested level.

    kind is one of "algebra", "coalgebra", "bialgebra", "hopf" or
    "super-hopf".  The last takes a SuperPresentation: its parity laws come
    first, then the Hopf laws with the Koszul sign.  The report keeps the
    first MAX_VIOLATIONS witnesses in law order.

    A pass of the laws over the generating set G of the algebra, or else of
    its dual (see above), decides first: associativity, coassociativity, the
    counit laws and both multiplicativity laws run only on e_g for g in G.
    A pass that finds no witness is the verdict; the full loops run only
    when it finds one or neither has a G.  A structure's algebra verdict is
    decided once (`algebra_violations`), and a bialgebra or Hopf algebra
    that passes here records it, so no later caller runs that pass again.
    """
    if kind == "algebra":
        return AxiomReport(kind, data.algebra_violations)
    a, parity = (data.hopf, data.parity) if kind == "super-hopf" else (data, (0,) * data.dim)
    laws = _laws(kind, a, parity, None)
    if kind != "coalgebra":
        s = a if a.generating_set is not None else dual_structure(a)
        if s.generating_set is not None and next(_laws(kind, s, parity, s.generating_set),
                                                 None) is None:
            a.__dict__.setdefault("algebra_violations", [])
            return AxiomReport(kind, [])
    return AxiomReport(kind, list(islice(laws, MAX_VIOLATIONS)))


def _tensor_rows(rows_a, rows_b, db, support):
    """The lowered product rows of A (x) B (flat index ti(a, b, db)) between
    the basis elements in support, from the lowered rows of the factors; the
    rest of A (x) B is never formed."""
    rows = {}
    for x in support:
        row_a, row_b = rows_a.get(x // db), rows_b.get(x % db)
        if not (row_a and row_b):
            continue
        for y in support:
            pa, pb = row_a.get(y // db), row_b.get(y % db)
            if pa and pb:
                rows.setdefault(x, {})[y] = {ti(k, l, db): c * e
                                             for k, c in pa.items() for l, e in pb.items()}
    return rows


def algebra_map_violations(src, dst, cols, generators=None):
    """Witnesses that the linear map src -> dst with native columns cols
    ({row: c}, one per basis element of src) is not a unital algebra map:
    ("unit", ()), then ("multiplicative", (i, j)) for each basis pair in
    order.

    dst is an algebra, or a pair (A, B) standing for the tensor-product
    algebra A (x) B (componentwise product, no signs, flat index ti), whose
    products are formed only between the basis elements that m reaches.  A
    constant of A (x) B is the product of two lowered constants and carries
    D^2, so its unit needs no scale and each product of src is multiplied by
    D^2 rather than D.  generators, a generating set G of src, may be passed
    only when src and dst are certified associative with their unit laws:
    once the unit law holds, multiplicativity then runs on (g, j) first (see
    above)."""
    factors = dst if isinstance(dst, tuple) else (dst,)
    lower, d, clean = _lowering((src, *factors), (cols,))
    cols = [_lowered(col, lower) for col in cols]
    src_unit, *units = (_lowered(s.native_unit, lower) for s in (src, *factors))
    if len(factors) == 1:
        rows = dst.lowered_rows(d)
        target = {t: d * c for t, c in units[0].items()}
        scale = d
    else:
        a, b = factors
        rows = _tensor_rows(a.lowered_rows(d), b.lowered_rows(d), b.dim, set().union(*cols))
        target = {ti(s, t, b.dim): x * y for s, x in units[0].items() for t, y in units[1].items()}
        scale = d * d
    image = {t: -x for t, x in target.items()}
    for t, c in src_unit.items():
        _add_scaled(image, c, cols[t])
    unital = not clean(image)
    if not unital:
        yield ("unit", ())
    src_rows = src.lowered_rows(d)

    def not_multiplicative(i):
        row_i = src_rows.get(i, {})
        for j in range(src.dim):
            diff = _sparse_product(rows, cols[i], cols[j])
            for k, c in row_i.get(j, {}).items():
                _add_scaled(diff, -scale * c, cols[k])
            yield bool(clean(diff))

    if unital and generators is not None and not any(any(not_multiplicative(g))
                                                     for g in generators):
        return
    for i in range(src.dim):
        for j, fails in enumerate(not_multiplicative(i)):
            if fails:
                yield ("multiplicative", (i, j))


def colinear_violations(src_rho_basis, dst_rho_basis, m):
    """Witnesses ("colinear", (i,)) that the linear map m between two right
    comodules fails rho_dst(m e_i) = (m (x) id) rho_src(e_i), for each
    source basis element in order.

    src_rho_basis(i) and dst_rho_basis(y) are the native coaction terms
    {(x, t): c} of a basis element of the source and of the target.  Both
    sides contract on native ints (see `_lowering`), each term carrying D^2,
    and fill one difference."""
    cols = m.native_cols()
    src = [src_rho_basis(i) for i in range(m.cols)]
    dst = {y: dst_rho_basis(y) for y in set().union(*cols)}
    lower, d, clean = _lowering((), (cols, src, dst.values()), m.field)
    cols = [_lowered(col, lower) for col in cols]
    src = [_lowered(terms, lower) for terms in src]
    dst = {y: _lowered(terms, lower) for y, terms in dst.items()}
    for i, col in enumerate(cols):
        diff = {}
        for y, c in col.items():
            _add_scaled(diff, c, dst[y])
        for (x, t), c in src[i].items():
            for y, e in cols[x].items():
                key = (y, t)
                ce = c * e
                diff[key] = diff[key] - ce if key in diff else -ce
        if clean(diff):
            yield ("colinear", (i,))


def counit_violations(src_counit, dst_counit, m):
    """Witnesses ("counit", (i,)) that the linear map m fails
    eps_dst(m e_i) = eps_src(e_i), for counits or augmentations given as
    sparse native rows."""
    p = m.field.characteristic
    for i, col in enumerate(m.native_cols()):
        if _dot(dst_counit, col, p) != src_counit.get(i, 0):
            yield ("counit", (i,))


def require_morphism(m, what, bijective=False, algebra=None, rho=None, counit=None,
                     generators=None):
    """Raise ValidationError("<what>: <witness>") at the first witness that
    the linear map m fails a law the caller names, in this order: bijective
    (witness ("bijective", ())); a unital algebra map, algebra = (src, dst)
    as in algebra_map_violations, with generators its source's G on the
    premise stated there; colinear, rho = (src_rho_basis, dst_rho_basis) as
    in colinear_violations; counital, counit = (src_counit, dst_counit) as in
    counit_violations."""
    laws = chain([("bijective", ())] if bijective and not m.is_invertible() else (),
                 algebra_map_violations(*algebra, m.native_cols(), generators) if algebra else (),
                 colinear_violations(*rho, m) if rho else (),
                 counit_violations(*counit, m) if counit else ())
    bad = next(laws, None)
    if bad:
        raise ValidationError("%s: %r" % (what, bad))


def coaction_violations(rho_basis, hopf, dim):
    """Witnesses that rho is not a right comodule structure over hopf on a
    dim-dimensional space: ("coaction-not-counital", (i,)) and then
    ("coaction-not-coassociative", (i,)) for each basis element in order.

    rho_basis(i) is the native coaction {(x, t): c} of e_i.  The laws
    contract on native ints (see `_lowering`), each term carrying D^2, and
    each fills one difference; coassociativity keys e_y (x) e_s (x) e_t at
    (y * dim H + s) * dim H + t.
    """
    terms = [rho_basis(i) for i in range(dim)]
    lower, d, clean = _lowering((hopf,), (terms,))
    terms = [_lowered(t, lower) for t in terms]
    coproduct = hopf.lowered_coproduct(d)
    counit = _lowered(hopf.native_counit, lower)
    dh = hopf.dim
    for i, rho in enumerate(terms):
        unital, diff = {i: -d * d}, {}
        for (x, t), c in rho.items():
            if t in counit:
                ce = c * counit[t]
                unital[x] = unital[x] + ce if x in unital else ce
            for (y, s), e in terms[x].items():
                key = (y * dh + s) * dh + t
                ce = c * e
                diff[key] = diff[key] + ce if key in diff else ce
            at = x * dh
            for (u, v), e in coproduct.get(t, {}).items():
                key = (at + u) * dh + v
                ce = c * e
                diff[key] = diff[key] - ce if key in diff else -ce
        if clean(unital):
            yield ("coaction-not-counital", (i,))
        if clean(diff):
            yield ("coaction-not-coassociative", (i,))


# ---------------------------------------------------------------------------
# convolution algebra Hom(C, A)


def _coalgebra_components(c):
    """The connected components of C's Delta-support graph, each a sorted
    list of basis indices, in the order of their least index: i is joined to
    j and k whenever e_j (x) e_k occurs in Delta(e_i).  Each component spans
    a subcoalgebra D, and Hom(C, A) is the product of the algebras Hom(D, A);
    a group-like basis gives one component per basis element."""
    return connected_components(c.dim, ((i, x) for i, terms in c.native_coproduct.items()
                                        for jk in terms for x in jk))


def convolution_invert(c, a, f):
    """Invert f, the matrix of a map C -> A, in Hom(C, A) by solving
    L_f(g) = f * g = eta eps; return the matrix of g.

    (f * g)(e_i) reads g only on the component of i (`_coalgebra_components`),
    so L_f is block diagonal and each component is solved on its own, with g
    flattened at (k, r) = the coefficient of e_r in g(e_k) for k in it.  The
    reduced echelon form of a block-diagonal system has as pivots the union
    of its blocks' pivots, so g is the solution that solve_linear reads off
    the whole operator.  A block's sparse rows are summed on native ints
    from the lowered product rows: each entry carries D^3, and its
    right-hand side eps(e_i) 1 is multiplied by D, a scaling of whole rows
    that keeps the solution.  The right-hand side, the solution and the
    columns of g are sparse native rows, as everywhere between parsing and
    encoding: dense tuples appear only in stored constants and in the dense
    calls (see `linalg`).

    The two-sided identity is always re-verified, guarding against
    non-coassociative or non-associative corrupt inputs.
    """
    if f.rows != a.dim or f.cols != c.dim:
        raise ShapeMismatchError("convolution element shape mismatch")
    fld, da = a.field, a.dim
    cols = f.native_cols()
    lower, d, _ = _lowering((a, c), (cols,))
    rows, coproduct = a.lowered_rows(d), c.lowered_coproduct(d)
    f_cols = [_lowered(col, lower) for col in cols]
    unit, counit = _lowered(a.native_unit, lower), _lowered(c.native_counit, lower)
    p = fld.characteristic
    native = (lambda v: v % p) if p else fld.from_int
    g_cols = [{} for _ in range(c.dim)]
    for component in _coalgebra_components(c):
        at = {k: t * da for t, k in enumerate(component)}
        block, rhs = [], {}
        for i in component:
            out = [{} for _ in range(da)]  # out[z][column]: the rows (i, z)
            for (j, k), u in coproduct.get(i, {}).items():
                for x, fx in f_cols[j].items():
                    ufx = u * fx
                    for r, prod in rows.get(x, {}).items():
                        col = at[k] + r
                        for z, m in prod.items():
                            row = out[z]
                            row[col] = row.get(col, 0) + ufx * m
            e = d * counit.get(i, 0)
            for z, row in enumerate(out):
                if x := native(e * unit.get(z, 0)):
                    rhs[len(block)] = x
                block.append({col: x for col, v in row.items() if (x := native(v))})
        sol = solve_linear(Matrix.from_sparse_rows(fld, block, len(at) * da), rhs).solution
        if sol is None:
            raise NotConvolutionInvertibleError("left convolution by f is not surjective")
        for t, x in sol.items():
            g_cols[component[t // da]][t % da] = x
    g = Matrix.from_sparse_cols(fld, da, g_cols)
    require_convolution_inverse(c, a, f, g)
    return g


def require_convolution_inverse(c, a, f, g):
    """Raise NotConvolutionInvertibleError unless f * g = eta eps = g * f in
    Hom(C, A), for f and g the matrices of maps C -> A: the check of every
    inverse that convolution_invert solves for or a caller forms in closed
    form."""
    failures = _convolution_failures(c, a, f.native_cols(), g.native_cols())
    if any(right or left for _, right, left in failures):
        raise NotConvolutionInvertibleError("candidate inverse fails the two-sided identity")


def compute_antipode(b):
    """Upgrade a bialgebra to a Hopf algebra by inverting id in Hom(B, B).
    convolution_invert re-verifies id * S = eta eps = S * id, which are the
    antipode laws."""
    report = check_axioms("bialgebra", b)
    if not report.ok:
        raise ValidationError("not a bialgebra: %r" % (report,))
    try:
        s = convolution_invert(b, b, Matrix.identity(b.field, b.dim))
    except NotConvolutionInvertibleError as exc:
        raise NoAntipodeError("identity map is not convolution-invertible") from exc
    return FHopf.from_bialgebra(b, s)


# ---------------------------------------------------------------------------
# group Hopf algebras


def group_hopf_algebra(table, field):
    """The group algebra of a valid group table (the parser validates what it
    reads; cyclic and symmetric tables are groups), with its Hopf structure."""
    n = table.order
    one = 1 if field.characteristic else field.one
    return FHopf._native(
        field, table.elements, native_unit={table.identity: one},
        native_rows={i: {j: {table.mult[i][j]: one} for j in range(n)} for i in range(n)},
        native_coproduct={i: {(i, i): one} for i in range(n)},
        native_counit=dict.fromkeys(range(n), one),
        antipode=Matrix.from_sparse_cols(field, n, [{table.inv[i]: one} for i in range(n)]))


# ---------------------------------------------------------------------------
# duals


def dual_structure(h):
    """The dual presentation of a finite-dimensional bialgebra or Hopf
    algebra, unchecked: product dual to the coproduct, coproduct dual to the
    product, unit and counit swapped, on the dual basis, with the transposed
    antipode when h has one."""
    rows, coproduct = {}, {}
    for k, terms in h.native_coproduct.items():
        for (i, j), c in terms.items():
            rows.setdefault(i, {}).setdefault(j, {})[k] = c
    for i, row in h.native_rows.items():
        for j, terms in row.items():
            for k, c in terms.items():
                coproduct.setdefault(k, {})[i, j] = c
    tables = dict(native_rows=rows, native_unit=h.native_counit,
                  native_coproduct=coproduct, native_counit=h.native_unit)
    basis = tuple("%s*" % lbl for lbl in h.basis)
    if isinstance(h, FHopf):
        return FHopf._native(h.field, basis, antipode=h.antipode.transpose(), **tables)
    return FBialgebra._native(h.field, basis, **tables)


def dual_hopf(h):
    """The dual Hopf algebra of a finite-dimensional Hopf algebra."""
    dual = dual_structure(h)
    report = check_axioms("hopf", dual)
    if not report.ok:
        raise ValidationError("dual presentation fails Hopf axioms: %r" % (report,))
    return dual


# ---------------------------------------------------------------------------
# smash coproduct


class _RightComodule:
    """A right comodule over self.hopf with its coaction matrix
    self.coaction, whose flat row index is ti(x, t, dim H)."""

    @cached_property
    def native_coaction(self):
        """The columns of the coaction matrix as sparse native rows
        {ti(x, t, dim H): c} (see linalg), read once."""
        return self.coaction.native_cols()

    @cached_property
    def _coaction_terms(self):
        dh = self.hopf.dim
        return [{divmod(flat, dh): c for flat, c in col.items()}
                for col in self.native_coaction]

    def rho_basis(self, i):
        """The native coaction terms of e_i: dict {(x, t): c}.  The columns
        of the coaction matrix are read once, on the first call."""
        return self._coaction_terms[i]


class ComoduleCoalgebraData(_RightComodule):
    """A right H-comodule coalgebra: D with coaction rho_D : D -> D (x) H."""

    def __init__(self, coalgebra, hopf, coaction):
        self.coalgebra = coalgebra
        self.hopf = hopf
        if coaction.rows != coalgebra.dim * hopf.dim or coaction.cols != coalgebra.dim:
            raise ShapeMismatchError("coaction matrix shape mismatch")
        self.coaction = coaction

    def validate(self):
        laws = chain(coaction_violations(self.rho_basis, self.hopf, self.coalgebra.dim),
                     self._colinear_structure_laws())
        return list(islice(laws, MAX_VIOLATIONS))

    def _colinear_structure_laws(self):
        """Delta_D : D -> D (x) D and eps_D : D -> k are H-colinear, for D
        (x) D with the coaction rho(a1) rho(a2) and k with 1 |-> 1 (x) 1_H:
        each a colinear_violations contraction, their witnesses renamed and
        merged by i, Delta_D's first."""
        d, h = self.coalgebra, self.hopf
        f = d.field
        dd = d.dim
        rows = h.native_rows
        delta = Matrix.from_sparse_cols(f, dd * dd, [{ti(j, k, dd): c for (j, k), c in
                                                      d.native_coproduct.get(i, {}).items()}
                                                     for i in range(dd)])
        counit = Matrix.from_sparse_rows(f, [d.native_counit], dd)
        unit = {(0, t): c for t, c in h.native_unit.items()}

        def tensor_rho(y):
            """rho_{D(x)D}(e_a1 (x) e_a2) = sum (e_b1 (x) e_b2) (x) x1 x2."""
            a1, a2 = divmod(y, dd)
            out = {}
            for (b1, x1), u in self.rho_basis(a1).items():
                for (b2, x2), v in self.rho_basis(a2).items():
                    key, uv = ti(b1, b2, dd), u * v
                    for x, w in rows.get(x1, {}).get(x2, {}).items():
                        out[key, x] = out[key, x] + uv * w if (key, x) in out else uv * w
            return out

        return heapq.merge(
            (("coproduct-not-colinear", i) for _, i in
             colinear_violations(self.rho_basis, tensor_rho, delta)),
            (("counit-not-colinear", i) for _, i in
             colinear_violations(self.rho_basis, lambda y: unit, counit)),
            key=lambda law: law[1])


class SmashCoproduct:
    """The coalgebra H |x D with its left H-module structure map."""

    def __init__(self, coalgebra, module_action, hopf, data):
        self.coalgebra = coalgebra
        self.module_action = module_action
        self.hopf = hopf
        self.data = data


def smash_coproduct(data):
    """Build the smash coproduct coalgebra on H (x) D (h-index major)."""
    errors = data.validate()
    if errors:
        raise ValidationError("invalid coaction: %r" % (errors,))
    h, d = data.hopf, data.coalgebra
    f = h.field
    dh, dd = h.dim, d.dim
    labels = tuple("%s|x%s" % (x, y) for x in h.basis for y in d.basis)
    p = f.characteristic
    rows, hcop, dcop = h.native_rows, h.native_coproduct, d.native_coproduct
    coproduct = {}
    for hi in range(dh):
        for di in range(dd):
            terms = {}
            for (h1, h2), u in hcop.get(hi, {}).items():
                for (d1, d2), v in dcop.get(di, {}).items():
                    for (d10, d11), w in data.rho_basis(d1).items():
                        uvw = u * v * w
                        for x, m in rows.get(h2, {}).get(d11, {}).items():
                            key = (ti(h1, d10, dd), ti(x, d2, dd))
                            terms[key] = terms[key] + uvw * m if key in terms else uvw * m
            if terms := _reduced(terms, p):
                coproduct[ti(hi, di, dd)] = terms
    coalg = FCoalgebra._native(f, labels, native_coproduct=coproduct,
                               native_counit=vtensor(h.native_counit, d.native_counit, dd, p))
    report = check_axioms("coalgebra", coalg)
    if not report.ok:
        raise ValidationError("smash coproduct fails coalgebra axioms: %r" % (report,))
    # left H-module structure: h' . (h (x) d) = h'h (x) d
    cols = [{ti(x, di, dd): c for x, c in rows.get(hp, {}).get(hi, {}).items()}
            for hp in range(dh) for hi in range(dh) for di in range(dd)]
    action = Matrix.from_sparse_cols(f, dh * dd, cols)
    return SmashCoproduct(coalg, action, h, data)
