"""Normalized Hochschild cochains for a Hopf algebra with coefficients in a
square-zero augmentation ideal, the HH^2 classification of augmented cleft
extensions, and the constructive splitting and lifting machinery through
nilpotent kernels.

Cochains C^n = Hom(H^(x)n, B+) are stored as (dim B+) x (dim H)^n matrices
with the usual row-major flattening of tensor indices.  The kernels read a
cochain as one flat sparse native vector (`_flat_cochain`), and every vector
of B, of B+ (in plus coordinates) and of H here is a sparse native row (see
linalg), an augmentation too; field scalars appear only at the boundary, in
an augmentation's values and the class coordinates `HH2Result.decide` returns.
"""

import itertools
from functools import cached_property

from .algebra import (
    MAX_VIOLATIONS,
    FAlgebra,
    _RightComodule,
    _add_scaled,
    _lowered,
    _lowering,
    algebra_map_violations,
    coaction_violations,
    induced_algebra,
    require_convolution_inverse,
    require_morphism,
    ti,
)
from .comodule import (
    ComoduleAlgebra,
    CrossedSystem,
    Section,
    _normalized_section,
    check_crossed_system,
    coaction_kernel,
    find_section,
    induced_coaction,
    section_to_crossed_system,
)
from .errors import (
    CocycleViolationError,
    KernelNotNilpotentError,
    NotHopfModuleError,
    NotSquareZeroError,
    ShapeMismatchError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    Matrix,
    QuotientSpace,
    _basis_row,
    _dense_vec,
    _dot,
    _kernel_of_rref,
    _native,
    _reduced,
    _subtract,
    column_coordinates,
    echelon_complement,
    in_span,
    row_space_basis,
    solve_linear,
    span_coordinates,
)


def augmentation_violations(algebra, augmentation, generators=None):
    """The witnesses of algebra_map_violations that the functional
    `augmentation`, a sparse native row, is not a unital algebra map A -> k,
    with generators as there."""
    f = algebra.field
    one = _basis_row(f, 0)
    ground = FAlgebra._native(f, ("1",), native_rows={0: {0: one}}, native_unit=one)
    eps = Matrix.from_sparse_rows(f, [augmentation], algebra.dim)
    return algebra_map_violations(algebra, ground, eps.native_cols(), generators)


def _augmentation_row(algebra, augmentation):
    """An augmentation as a sparse native row: one already, or given by its
    values on the basis, as the builders of stock inputs give it."""
    if isinstance(augmentation, dict):
        return augmentation
    if len(augmentation) != algebra.dim:
        raise ShapeMismatchError("augmentation vector has wrong length")
    return _native(augmentation, algebra.field)


class AugmentedAlgebra:
    """An algebra B with an algebra map eps_B : B -> k; B = k.1 (+) B+.  The
    augmentation is kept as a sparse native row (see `_augmentation_row`),
    like every vector of B and of plus coordinates below; its values on the
    basis are derived from the row."""

    def __init__(self, algebra, augmentation):
        self.algebra = algebra
        self.eps_row = _augmentation_row(algebra, augmentation)
        bad = next(augmentation_violations(algebra, self.eps_row), None)
        if bad == ("unit", ()):
            raise ValidationError("augmentation does not send 1 to 1")
        if bad:
            raise ValidationError("augmentation is not multiplicative at (%d, %d)" % bad[1])
        # eps(1) = 1, so eps is a nonzero functional and B+ = ker eps has
        # dimension dim B - 1; let p be the first index with eps_p != 0.  The
        # canonical basis of B+ is e_j - (eps_j / eps_p) e_p for j != p, so
        # the plus coordinates of a vector of B+ are its entries off p
        self.plus_dim = algebra.dim - 1
        self._pivot = min(self.eps_row)

    @cached_property
    def augmentation(self):
        """The values of eps on the basis, derived and kept on the first read."""
        return _dense_vec(self.field, self.eps_row, self.algebra.dim)

    @cached_property
    def plus_basis(self):
        """The canonical basis of B+ = ker eps."""
        return [self.embed_plus(_basis_row(self.field, k)) for k in range(self.plus_dim)]

    @property
    def square_zero(self):
        """Whether B+ B+ = 0 (computed on each read; parsing never needs it)."""
        mult = self.algebra.sparse_mult
        return not any(mult(u, v) for u in self.plus_basis for v in self.plus_basis)

    @property
    def field(self):
        return self.algebra.field

    def eps(self, vec):
        return _dot(self.eps_row, vec, self.field.characteristic)

    def embed_plus(self, coords):
        """The vector of B+ with the given plus coordinates: those entries
        off p, and at p the entry that eps takes to zero."""
        f = self.field
        char, p = f.characteristic, self._pivot
        vec = {k + (k >= p): c for k, c in coords.items()}
        e = self.eps(vec)
        if e:
            at = self.eps_row[p]
            vec[p] = -e * pow(at, char - 2, char) % char if char else -e / at
        return vec

    def decompose(self, bvec):
        """b = c.1 + b+, returned as (c, the plus coordinates of b+)."""
        c = self.eps(bvec)
        plus = dict(bvec)
        if c:
            _subtract(plus, c, self.algebra.native_unit, self.field.characteristic)
        p = self._pivot
        return c, {j - (j > p): x for j, x in plus.items() if j != p}


class HModuleStructure:
    """A left H-module structure on B+: action matrix dP x (dH * dP),
    column index ti(h, p, dP)."""

    def __init__(self, hopf, aug, action):
        dp = aug.plus_dim
        if action.rows != dp or action.cols != hopf.dim * dp:
            raise ShapeMismatchError("action matrix shape mismatch")
        self.hopf = hopf
        self.aug = aug
        self.action = action

    @property
    def plus_dim(self):
        return self.aug.plus_dim

    def validate(self):
        """Every violated module law: for each p, 1 . e_p = e_p and then
        g . (t . e_p) = (g t) . e_p for each (g, t), on lowered ints
        (algebra._lowering); e_p is scaled by D^2 to match 1 . e_p."""
        h = self.hopf
        dh, dp = h.dim, self.plus_dim
        acts = self.action.native_cols()
        lower, d, clean = _lowering((h,), (acts,))
        acts = [_lowered(col, lower) for col in acts]
        rows = h.lowered_rows(d)
        unit = _lowered(h.native_unit, lower)
        violations = []
        for p in range(dp):
            acted = {}
            for t, c in unit.items():
                _add_scaled(acted, c, acts[ti(t, p, dp)])
            if clean(acted) != clean({p: d * d}):
                violations.append(("action-not-unital", (p,)))
            for g in range(dh):
                for t in range(dh):
                    lhs, rhs = {}, {}
                    for x, c in acts[ti(t, p, dp)].items():
                        _add_scaled(lhs, c, acts[ti(g, x, dp)])
                    for k, c in rows.get(g, {}).get(t, {}).items():
                        _add_scaled(rhs, c, acts[ti(k, p, dp)])
                    if clean(lhs) != clean(rhs):
                        violations.append(("action-not-associative", (g, t, p)))
        return violations


class NormalizedCochain:
    """degree 1: t : H -> B+ with t(1) = 0, as a dP x dH matrix;
    degree 2: s : H (x) H -> B+ with s(h,1) = 0 = s(1,h), as dP x dH^2."""

    def __init__(self, degree, matrix):
        if degree not in (1, 2, 3):
            # degree 3 occurs only as the target of the degree-2 differential
            raise ValidationError("cochain degree must be 1, 2 or 3")
        self.degree = degree
        self.matrix = matrix


def _flat_cochain(act, cochain, degree):
    """The cochain, which must have this degree and be a dP x dH^degree
    matrix (else ShapeMismatchError), as one flat sparse native vector:
    coordinate p of its value at the row-major index j of (h_1, ..., h_n) at
    j * dP + p."""
    dp = act.plus_dim
    m = cochain.matrix
    shape = (dp, act.hopf.dim ** degree)
    if cochain.degree != degree or (m.rows, m.cols) != shape:
        raise ShapeMismatchError("expected a cochain of degree %d, a %d x %d matrix"
                                 % ((degree,) + shape))
    return {j * dp + p: c for p, row in enumerate(m._native_rows()) for j, c in row.items()}


def _cochain(act, degree, flat):
    """The NormalizedCochain of a flat sparse native vector (see
    `_flat_cochain`)."""
    dp = act.plus_dim
    rows = [{} for _ in range(dp)]
    for k, c in flat.items():
        j, p = divmod(k, dp)
        rows[p][j] = c
    return NormalizedCochain(degree, Matrix.from_sparse_rows(act.hopf.field, rows,
                                                             act.hopf.dim ** degree))


def _differential_rows(act, degree):
    """The sparse native rows of the flat matrix of the Hochschild
    differential d : C^n -> C^(n+1), n = degree, with H acting on B+ on the
    left through act and on the right through eps:

        (d f)(h_0, ..., h_n) = h_0 . f(h_1, ..., h_n)
            + sum_{i=1..n} (-1)^i f(h_0, ..., h_{i-1} h_i, ..., h_n)
            + (-1)^(n+1) f(h_0, ..., h_{n-1}) eps(h_n).

    A cochain is flat at j * dP + p for coordinate p of its value at the
    row-major index j of (h_1, ..., h_n).  Every entry is a sum of single
    structure constants, so it is summed on lowered ints (algebra._lowering)
    as D times its value."""
    h = act.hopf
    f = h.field
    dh, dp = h.dim, act.plus_dim
    acts = act.action.native_cols()
    lower, d, clean = _lowering((h,), (acts,))
    acts = [_lowered(col, lower) for col in acts]
    rows = h.lowered_rows(d)
    counit = _lowered(h.native_counit, lower)

    def flat(hs):
        j = 0
        for x in hs:
            j = j * dh + x
        return j

    out = [{} for _ in range(dp * dh ** (degree + 1))]

    def add(row, col, c):
        entries = out[row]
        entries[col] = entries.get(col, 0) + c

    for row, hs in enumerate(itertools.product(range(dh), repeat=degree + 1)):
        col = flat(hs[1:])
        for p in range(dp):
            for q, c in acts[ti(hs[0], p, dp)].items():
                add(row * dp + q, col * dp + p, c)
        for i in range(1, degree + 1):
            for k, c in rows.get(hs[i - 1], {}).get(hs[i], {}).items():
                col = flat(hs[:i - 1] + (k,) + hs[i + 1:])
                for p in range(dp):
                    add(row * dp + p, col * dp + p, -c if i % 2 else c)
        e = counit.get(hs[degree])
        if e:
            col = flat(hs[:degree])
            for p in range(dp):
                add(row * dp + p, col * dp + p, e if degree % 2 else -e)
    if f.characteristic:
        return [clean(entries) for entries in out]
    return [{col: f.from_fraction(c, d) for col, c in clean(entries).items()} for entries in out]


def differential(cochain, act):
    """The Hochschild differential into the next degree: each coordinate of
    d f is a row of `_differential_rows` dotted with the flat cochain."""
    n = cochain.degree
    flat = _flat_cochain(act, cochain, n)
    p = act.hopf.field.characteristic
    out = {r: x for r, row in enumerate(_differential_rows(act, n)) if (x := _dot(row, flat, p))}
    return _cochain(act, n + 1, out)


def _normalization_constraints(act, degree):
    """The sparse native rows of the linear constraints t(1) = 0 (degree
    1) or s(h,1) = 0 = s(1,h) (degree 2) on flat cochains."""
    h = act.hopf
    dh, dp = h.dim, act.plus_dim
    unit = h.native_unit.items()
    if degree == 1:
        return [{t * dp + p: c for t, c in unit} for p in range(dp)]
    rows = []
    for g in range(dh):
        for p in range(dp):
            rows.append({ti(g, t, dh) * dp + p: c for t, c in unit})
            rows.append({ti(t, g, dh) * dp + p: c for t, c in unit})
    return rows


class HH2Result:
    def __init__(self, act, dimension, representatives, coboundary_span, d2_rows, constraints):
        self.act = act
        self.dimension = dimension
        self.representatives = representatives  # flat sparse native vectors
        self._coboundary_span = coboundary_span
        # the sparse native rows of d2 and of the normalization that hh2 built
        self._d2_rows = d2_rows
        self._constraints = constraints

    def representative_cochains(self):
        return [_cochain(self.act, 2, v) for v in self.representatives]

    def decide(self, cochain):
        """Coordinates of [s] against the representative basis, as a tuple
        of native scalars."""
        f = self.act.hopf.field
        p = f.characteristic
        flat = _flat_cochain(self.act, cochain, 2)
        if any(_dot(row, flat, p) for row in self._constraints):
            raise CocycleViolationError("cochain is not normalized")
        if any(_dot(row, flat, p) for row in self._d2_rows):
            raise CocycleViolationError("cochain is not a cocycle")
        cols = self.representatives + self._coboundary_span
        if not cols:
            return ()
        n2 = self.act.plus_dim * self.act.hopf.dim ** 2
        x = solve_linear(Matrix.from_sparse_cols(f, n2, cols), flat).solution
        if x is None:
            raise CocycleViolationError("cocycle lies outside the computed cocycle space")
        zero = 0 if p else f.zero
        return tuple(x.get(s, zero) for s in range(len(self.representatives)))


def hh2(hopf, act):
    """ker d2 / im d1 on normalized cochains, by exact rank computation."""
    violations = act.validate()
    if violations:
        raise ValidationError("invalid module structure: %r" % (violations,))
    f = hopf.field
    dh, dp = hopf.dim, act.plus_dim
    n1, n2 = dp * dh, dp * dh * dh
    if dp == 0:
        return HH2Result(act, 0, [], [], [], [])
    d2_rows = _differential_rows(act, 2)
    constraints = _normalization_constraints(act, 2)
    cocycles = Matrix.from_sparse_rows(f, d2_rows + constraints, n2).kernel_rows()
    d1 = Matrix.from_sparse_rows(f, _differential_rows(act, 1), n1)
    n1_basis = Matrix.from_sparse_rows(f, _normalization_constraints(act, 1), n1).kernel_rows()
    coboundaries = row_space_basis(f, [d1.apply_sparse(t) for t in n1_basis], n2)
    dim = len(cocycles) - len(coboundaries)
    # representatives: echelon complement of the coboundaries in the cocycles
    reps = echelon_complement(f, coboundaries, cocycles)
    if len(reps) != dim:
        raise ValidationError("representative count disagrees with the computed dimension")
    # guard the normalized-complex convention against the full complex
    if dh <= 4:
        full_z = n2 - Matrix.from_sparse_rows(f, d2_rows, n2).rank()
        full_b = d1.rank()
        if full_z - full_b != dim:
            raise ValidationError("normalized and full complexes disagree")
    return HH2Result(act, dim, reps, coboundaries, d2_rows, constraints)


# ---------------------------------------------------------------------------
# cocycles <-> crossed systems over a square-zero augmentation ideal


def crossed_system_from_cocycle(act, s):
    """Build (measuring, sigma) from an H-action on B+ and a normalized
    2-cocycle s: g . b = eps(g) c 1 + g . b+ for b = c 1 + b+, and
    sigma^{+-1}(g, h) = eps(g)eps(h)1 +- s(g, h)."""
    aug = act.aug
    if not aug.square_zero:
        raise NotSquareZeroError("the augmentation ideal does not square to zero")
    violations = act.validate()
    if violations:
        raise ValidationError("invalid module structure: %r" % (violations,))
    h = act.hopf
    b = aug.algebra
    f = b.field
    p = f.characteristic
    flat = _flat_cochain(act, s, 2)
    if any(_dot(row, flat, p) for row in _normalization_constraints(act, 2)):
        raise CocycleViolationError("cochain is not normalized")
    if any(_dot(row, flat, p) for row in _differential_rows(act, 2)):
        raise CocycleViolationError("cochain fails the 2-cocycle condition")
    dh, db, dp = h.dim, b.dim, act.plus_dim
    one, counit = b.native_unit, h.native_counit
    acts = act.action.native_cols()

    def plus_eps(val, e):
        """The vector val of B+ plus e 1."""
        if e:
            _add_scaled(val, e, one)
        return _reduced(val, p)

    meas_cols = []
    for g in range(dh):
        for i in range(db):
            c, plus = aug.decompose(_basis_row(f, i))
            acted = {}
            for k, x in plus.items():
                _add_scaled(acted, x, acts[ti(g, k, dp)])
            meas_cols.append(plus_eps(aug.embed_plus(_reduced(acted, p)), counit.get(g, 0) * c))
    sig_cols, inv_cols = [], []
    for j, col in enumerate(s.matrix.native_cols()):  # s(e_g, e_t) at j = ti(g, t, dH)
        tail = aug.embed_plus(col)
        neg = {x: -c for x, c in tail.items()}
        e = counit.get(j // dh, 0) * counit.get(j % dh, 0)
        sig_cols.append(plus_eps(tail, e))
        inv_cols.append(plus_eps(neg, e))
    system = CrossedSystem(h, b, *(Matrix.from_sparse_cols(f, db, cols)
                                   for cols in (meas_cols, sig_cols, inv_cols)))
    violations = check_crossed_system(system)
    if violations:
        raise ValidationError("cocycle data fails the crossed-system laws: %r" % (violations,))
    return system


# ---------------------------------------------------------------------------
# augmented cleft extensions and their classification


class AugmentedCleftExtension:
    """A comodule algebra A with an augmentation eps_A, kept as a sparse
    native row (see `_augmentation_row`), and optionally a section."""

    def __init__(self, comodule_algebra, augmentation, section=None):
        self.comodule_algebra = comodule_algebra
        self.eps_row = _augmentation_row(comodule_algebra.algebra, augmentation)
        self.section = section


def reaugment_section(ext, sec):
    """Replace phi with chi * phi, h |-> chi(h1) phi(h2) for chi = eps_A o
    phi^{-1}, which is augmented.  Its inverse is phi^{-1} * (eps_A o phi),
    h |-> phi^{-1}(h1) eps_A(phi(h2)), because eps_A is an algebra map (the
    parser checks an augmentation block to be one); the pair is re-verified
    like a solved inverse."""
    ca = ext.comodule_algebra
    a, h = ca.algebra, ca.hopf
    f = ca.field
    p = f.characteristic
    phi, phi_inv = sec.phi.native_cols(), sec.phi_inv.native_cols()
    eps = ext.eps_row

    def on_eps(col):
        return sum(c * eps[x] for x, c in col.items() if x in eps)

    chi, eps_phi = [on_eps(col) for col in phi_inv], [on_eps(col) for col in phi]
    cols, inv_cols = [], []
    for j in range(h.dim):
        acc, inv = {}, {}
        for (x, y), c in h.native_coproduct.get(j, {}).items():
            _add_scaled(acc, c * chi[x], phi[y])
            _add_scaled(inv, c * eps_phi[y], phi_inv[x])
        cols.append(_reduced(acc, p))
        inv_cols.append(_reduced(inv, p))
    new_phi = Matrix.from_sparse_cols(f, a.dim, cols)
    new_inv = Matrix.from_sparse_cols(f, a.dim, inv_cols)
    require_convolution_inverse(h, a, new_phi, new_inv)
    require_morphism(new_phi, "re-augmented section fails the augmentation identity",
                     counit=(h.native_counit, ext.eps_row))
    return Section(new_phi, new_inv, ca)


class Classification:
    def __init__(self, aug, act, cochain, hh2_result, class_coords, system, section, iso):
        self.aug = aug
        self.act = act
        self.cochain = cochain
        self.hh2_result = hh2_result
        self.class_coords = class_coords
        self.system = system
        self.section = section
        self.iso = iso  # B x|_sigma H -> A, b (x) h |-> b phi(h)

    @property
    def is_split(self):
        return all(not c for c in self.class_coords)


def classify_cleft_extension(ext):
    """Read off (action on B+, HH^2 class) from an augmented cleft extension
    over a square-zero augmented base."""
    ca = ext.comodule_algebra
    h = ca.hopf
    f = ca.field
    p = f.characteristic
    sec = ext.section if ext.section is not None else find_section(ca)
    # section_to_crossed_system builds the crossed system over this same B
    coinv = ca.coinvariants
    b = coinv.subalgebra
    # eps_B is eps_A restricted to B
    baug = AugmentedAlgebra(b, coinv.inclusion.transpose().apply_sparse(ext.eps_row))
    if not baug.square_zero:
        raise NotSquareZeroError("coinvariant augmentation ideal does not square to zero")
    sec = reaugment_section(ext, sec)
    system, iso = section_to_crossed_system(sec)
    dh, db, dp = h.dim, b.dim, baug.plus_dim
    meas = system.measuring.native_cols()
    # invert (hit): the action on B+ is the measuring restricted to B+
    act_cols = []
    for g in range(dh):
        for v in baug.plus_basis:
            val = {}
            for x, c in v.items():
                _add_scaled(val, c, meas[ti(g, x, db)])
            c, plus = baug.decompose(_reduced(val, p))
            if c:
                raise ValidationError("measuring does not preserve the augmentation ideal")
            act_cols.append(plus)
    act = HModuleStructure(h, baug, Matrix.from_sparse_cols(f, dp, act_cols))
    # invert (sigma): s(g, h) = sigma(g, h) - eps(g)eps(h)1
    one, counit = b.native_unit, h.native_counit
    s_cols = []
    for j, col in enumerate(system.sigma.native_cols()):
        g, t = divmod(j, dh)
        val = dict(col)
        e = counit.get(g, 0) * counit.get(t, 0)
        if e:
            _add_scaled(val, -e, one)
        c, plus = baug.decompose(_reduced(val, p))
        if c:
            raise ValidationError("cocycle part escapes the augmentation ideal")
        s_cols.append(plus)
    s = NormalizedCochain(2, Matrix.from_sparse_cols(f, dp, s_cols))
    result = hh2(h, act)
    coords = result.decide(s) if dp else ()
    return Classification(baug, act, s, result, coords, system, sec, iso)


# ---------------------------------------------------------------------------
# split extensions


class SplitResult:
    def __init__(self, splitting, obstruction):
        self.splitting = splitting      # matrix H -> A, or None
        self.obstruction = obstruction  # class coordinates, or None

    @property
    def split(self):
        return self.splitting is not None


def split_extension(ext):
    """Return an augmented comodule-algebra map H -> A when the class
    vanishes, or the nonzero class as the obstruction."""
    cls = classify_cleft_extension(ext)
    if not cls.is_split:
        return SplitResult(None, cls.class_coords)
    ca = ext.comodule_algebra
    h = ca.hopf
    f = ca.field
    p = f.characteristic
    act = cls.act
    dp = act.plus_dim
    dh = h.dim
    t = {}
    if dp and not cls.cochain.matrix.is_zero():
        constraints = _normalization_constraints(act, 1)
        stacked = Matrix.from_sparse_rows(f, _differential_rows(act, 1) + constraints, dp * dh)
        t = solve_linear(stacked, _flat_cochain(act, cls.cochain, 2)).solution
        if t is None:
            raise ValidationError("zero class admits no coboundary witness")
    # psi(e_g) = iso(sum eps(g1) 1_B - t~(g1) (x) e_g2), with t~ = t embedded
    # in B through the plus basis: the image of 1_B (x) e_g under the gauge
    # f_{-t} of the crossed product
    aug = cls.aug
    one, counit = aug.algebra.native_unit, h.native_counit
    gauge = []
    for g, col in enumerate(_cochain(act, 1, t).matrix.native_cols()):
        v = {x: -c for x, c in aug.embed_plus(col).items()}
        if g in counit:
            _add_scaled(v, counit[g], one)
        gauge.append(_reduced(v, p))
    cop, iso = h.native_coproduct, cls.iso.native_cols()
    cols = []
    for g in range(dh):
        acc = {}
        for (g1, g2), c in cop.get(g, {}).items():
            for x, u in gauge[g1].items():
                _add_scaled(acc, c * u, iso[ti(x, g2, dh)])
        cols.append(_reduced(acc, p))
    psi = Matrix.from_sparse_cols(f, ca.algebra.dim, cols)
    require_morphism(psi, "computed splitting is not an augmented comodule algebra map",
                     algebra=(h, ca.algebra), rho=(h.rho_basis, ca.rho_basis),
                     counit=(h.native_counit, ext.eps_row))
    return SplitResult(psi, None)


# ---------------------------------------------------------------------------
# Hopf modules


class HopfModule(_RightComodule):
    """A right H-module and right H-comodule with rho(m a) = rho(m) rho(a).

    action: dM x (dM * dH) matrix, column index ti(m, h, dH);
    coaction: (dM * dH) x dM matrix, flat row index ti(m, h, dH).
    """

    def __init__(self, hopf, action, coaction):
        self.hopf = hopf
        self.dim = action.rows
        dh = hopf.dim
        if action.cols != self.dim * dh:
            raise ShapeMismatchError("module action shape mismatch")
        if coaction.rows != self.dim * dh or coaction.cols != self.dim:
            raise ShapeMismatchError("module coaction shape mismatch")
        self.action = action
        self.coaction = coaction

    @property
    def field(self):
        return self.hopf.field

    @cached_property
    def native_action(self):
        """The columns of the action matrix as sparse native rows {x: c}
        (see linalg), m . e_h at ti(m, h, dim H), read once."""
        return self.action.native_cols()

    def validate(self):
        """The first MAX_VIOLATIONS witnesses: the module laws, the comodule
        laws, then rho(m a) = rho(m) rho(a)."""
        laws = itertools.chain(self._module_laws(),
                               coaction_violations(self.rho_basis, self.hopf, self.dim),
                               self._compatibility_laws())
        return list(itertools.islice(laws, MAX_VIOLATIONS))

    def _module_laws(self):
        h = self.hopf
        f = self.field
        p = f.characteristic
        dm, dh = self.dim, h.dim
        acts, rows = self.native_action, h.native_rows
        unit = h.native_unit
        for m in range(dm):
            acted = {}
            for t, c in unit.items():
                _add_scaled(acted, c, acts[ti(m, t, dh)])
            if _reduced(acted, p) != _basis_row(f, m):
                yield ("module-not-unital", (m,))
            for g in range(dh):
                mg = acts[ti(m, g, dh)]
                for t in range(dh):
                    lhs, rhs = {}, {}
                    for x, c in mg.items():
                        _add_scaled(lhs, c, acts[ti(x, t, dh)])
                    for k, c in rows.get(g, {}).get(t, {}).items():
                        _add_scaled(rhs, c, acts[ti(m, k, dh)])
                    if _reduced(lhs, p) != _reduced(rhs, p):
                        yield ("module-not-associative", (m, g, t))

    def _compatibility_laws(self):
        """rho(m . g) = sum (m0 . g1) (x) m1 g2, compared at the flat index
        ti(y, k, dim H) of e_y (x) e_k."""
        h = self.hopf
        p = self.field.characteristic
        dm, dh = self.dim, h.dim
        acts, rho = self.native_action, self.native_coaction
        rows, cop = h.native_rows, h.native_coproduct
        for m in range(dm):
            for g in range(dh):
                lhs = {}
                for x, c in acts[ti(m, g, dh)].items():
                    _add_scaled(lhs, c, rho[x])
                rhs = {}
                for flat, c in rho[m].items():
                    x, t = divmod(flat, dh)
                    for (g1, g2), d in cop.get(g, {}).items():
                        mv = acts[ti(x, g1, dh)]
                        for k, u in rows.get(t, {}).get(g2, {}).items():
                            cdu = c * d * u
                            for y, e in mv.items():
                                key = ti(y, k, dh)
                                rhs[key] = rhs[key] + cdu * e if key in rhs else cdu * e
                if _reduced(lhs, p) != _reduced(rhs, p):
                    yield ("hopf-module-compatibility", (m, g))


class HopfModuleDecomposition:
    def __init__(self, coinvariant_basis, iso, inverse):
        self.coinvariant_basis = coinvariant_basis  # sparse native rows
        self.iso = iso
        self.inverse = inverse


def hopf_module_decompose(module):
    """The Hopf-module theorem map M^{coH} (x) H -> M, m (x) h |-> m h,
    materialized and verified bijective by the one elimination that inverts
    it."""
    violations = module.validate()
    if violations:
        raise NotHopfModuleError("not a Hopf module: %r" % (violations,))
    h = module.hopf
    f = module.field
    p = f.characteristic
    dm, dh = module.dim, h.dim
    acts = module.native_action
    coinv = coaction_kernel(module.rho_basis, dm, h, h.native_unit)
    iso_cols = []
    for v in coinv:
        for t in range(dh):
            col = {}
            for x, c in v.items():
                _add_scaled(col, c, acts[ti(x, t, dh)])
            iso_cols.append(_reduced(col, p))
    iso_m = Matrix.from_sparse_cols(f, dm, iso_cols)
    try:
        inverse = iso_m.inverse()
    except (ShapeMismatchError, SingularMatrixError):
        raise NotHopfModuleError("the Hopf-module decomposition map is not bijective") from None
    return HopfModuleDecomposition(coinv, iso_m, inverse)


# ---------------------------------------------------------------------------
# colinear splitting through a nilpotent kernel


def ideal_power_chain(algebra, ideal_basis):
    """[I, I^2, ..., I^n = 0] as echelon bases of sparse native rows (see
    linalg), for a basis of I given as such rows; raises when the powers
    stabilize above zero."""
    f = algebra.field
    n = algebra.dim
    chain = [row_space_basis(f, ideal_basis, n)]
    while chain[-1]:
        prods = [algebra.sparse_mult(x, y) for x in chain[-1] for y in chain[0]]
        nxt = row_space_basis(f, prods, n)
        if len(nxt) == len(chain[-1]):
            # I^{i+1} = I^i inside I^i means the power chain stabilized
            if all(in_span(f, chain[-1], v) for v in nxt):
                raise KernelNotNilpotentError("ideal power chain stabilized above zero")
        chain.append(nxt)
        if len(chain) > n + 1:
            raise KernelNotNilpotentError("ideal power chain does not terminate")
    return chain


def colinear_splitting_nilpotent(ca, pi):
    """A unit-preserving, convolution-invertible colinear splitting of a
    comodule-algebra surjection pi : A -> H with nilpotent kernel.

    Follows the quotient chain A/I^n -> ... -> A/I = H, splitting each
    square-annihilated step through the Hopf-module decomposition of its
    kernel.
    """
    a, h = ca.algebra, ca.hopf
    f = ca.field
    p = f.characteristic
    one = 1 if p else f.one
    da, dh = a.dim, h.dim
    # pi must be a colinear algebra surjection
    if pi.rows != dh or pi.cols != da:
        raise ShapeMismatchError("surjection matrix shape mismatch")
    r, pivots, _ = eliminated = pi.rref()  # its rank, kernel and coordinates
    if len(pivots) != dh:
        raise ValidationError("map onto the Hopf algebra is not surjective")
    ideal = _kernel_of_rref(r, pivots, da)  # I = ker pi
    require_morphism(pi, "map onto the Hopf algebra is not a colinear algebra map",
                     algebra=(a, h), rho=(ca.rho_basis, h.rho_basis))
    chain = ideal_power_chain(a, ideal)  # chain[i] = basis of I^{i+1}
    n = len(chain)  # I^n = 0
    # quots[i] = A / I^{i+1}; quots[n-1] = A / 0 has no relations
    quots = [QuotientSpace(f, da, chain[i]) for i in range(n)]
    # lambda : H -> A, a fixed linear right inverse of pi
    preimage = column_coordinates(pi, eliminated)
    lam = [preimage(_basis_row(f, g)) for g in range(dh)]
    # phi on A/I: H -> A/I, h |-> class of lambda(h); bijective by dimensions
    if quots[0].dim != dh:
        raise ValidationError("A/I does not have the dimension of H")
    phi = Matrix.from_sparse_cols(f, dh, [quots[0].project(v) for v in lam])
    counit = h.native_counit
    for step in range(1, n):
        x_quot = quots[step]
        y_quot = quots[step - 1]
        x_lifts = [_basis_row(f, j) for j in x_quot.complement]
        rho_x = induced_coaction(ca, x_lifts, x_quot.project).native_cols()
        # K = image of I^step in X
        kbasis = row_space_basis(f, [x_quot.project(v) for v in chain[step - 1]], x_quot.dim)
        kmat = Matrix.from_sparse_cols(f, x_quot.dim, kbasis)
        dk = len(kbasis)
        in_k = span_coordinates(f, kbasis)
        k_lifts = [x_quot.lift(k) for k in kbasis]

        def k_coords(vec, failure):
            """K-coordinates of the class of the A-vector vec in X."""
            sol = in_k(x_quot.project(vec))
            if sol is None:
                raise ValidationError(failure)
            return sol

        # Hopf module structure on K: right H-action k . h = k * lambda(h),
        # and the coaction rho_X(k) = (proj (x) id) rho(lift k) restricted to K
        act_cols = [k_coords(a.sparse_mult(k, lam[g]), "kernel is not stable under the H-action")
                    for k in k_lifts for g in range(dh)]
        coaction = induced_coaction(ca, k_lifts,
                                    lambda v: k_coords(v, "kernel is not a subcomodule"))
        module = HopfModule(h, Matrix.from_sparse_cols(f, dk, act_cols), coaction)
        decomp = hopf_module_decompose(module)
        iso_cols, inv_cols = decomp.iso.native_cols(), decomp.inverse.native_cols()
        # v = (id (x) eps) o iso^{-1} o r0 : X -> V, for r0 : X -> K the
        # linear retraction along the echelon complement of K, which sends
        # the pivot column of kbasis[s] to e_s and every other column to 0
        v_of = {}
        for s, k in enumerate(kbasis):
            v = {}
            for flat, c in inv_cols[s].items():
                i, t = divmod(flat, dh)
                if t in counit:
                    ce = c * counit[t]
                    v[i] = v[i] + ce if i in v else ce
            v_of[min(k)] = _reduced(v, p)
        # the colinear retraction r = iso o (v (x) id) o rho_X : X -> K
        r_cols = []
        for col in rho_x:
            acc = {}
            for idx, c in col.items():
                x0, t = divmod(idx, dh)
                # (v (x) id): v(x0) (x) e_t, then iso back into K
                for i, u in v_of.get(x0, {}).items():
                    _add_scaled(acc, c * u, iso_cols[ti(i, t, dh)])
            r_cols.append(_reduced(acc, p))
        rmat = Matrix.from_sparse_cols(f, dk, r_cols)
        # r restricted to K must be the identity
        for s in range(dk):
            if rmat.apply_sparse(kbasis[s]) != _basis_row(f, s):
                raise ValidationError("colinear retraction is not the identity on the kernel")
        # colinear section s : Y -> X, y |-> x - K r(x) for any preimage x
        pmat = Matrix.from_sparse_cols(f, y_quot.dim, [y_quot.project(_basis_row(f, j))
                                                       for j in x_quot.complement])
        preimage = column_coordinates(pmat)
        s_cols = []
        for yidx in range(y_quot.dim):
            x = dict(preimage(_basis_row(f, yidx)))
            _subtract(x, one, kmat.apply_sparse(rmat.apply_sparse(x)), p)
            s_cols.append(x)
        smat = Matrix.from_sparse_cols(f, x_quot.dim, s_cols)
        if pmat * smat != Matrix.identity(f, y_quot.dim):
            raise ValidationError("colinear section fails to split the quotient step")
        phi = smat * phi
    # phi lands in A/I^n = A/0, whose coordinates are those of A
    if pi * phi != Matrix.identity(f, dh):
        raise ValidationError("computed splitting does not split pi")
    require_morphism(phi, "computed splitting is not colinear", rho=(h.rho_basis, ca.rho_basis))
    sec = _normalized_section(ca, phi)
    if pi * sec.phi != Matrix.identity(f, dh):
        raise ValidationError("normalization broke the splitting property")
    return sec


# ---------------------------------------------------------------------------
# lifting comodule algebra maps through nilpotent kernels


class LiftResult:
    def __init__(self, lift, obstruction_step, obstruction):
        self.lift = lift
        self.obstruction_step = obstruction_step
        self.obstruction = obstruction

    @property
    def lifted(self):
        return self.lift is not None


def _check_comodule_algebra_map(src_hopf, dst, psi):
    require_morphism(psi, "map H -> A is not a comodule algebra map",
                     algebra=(src_hopf, dst.algebra), rho=(src_hopf.rho_basis, dst.rho_basis))


def quotient_comodule_algebra(ca, ideal_vectors):
    """A / I for a two-sided ideal that is also a subcomodule; returns the
    quotient comodule algebra and the projection."""
    a = ca.algebra
    f = ca.field
    quot = QuotientSpace(f, a.dim, ideal_vectors)
    lifts = [_basis_row(f, j) for j in quot.complement]
    labels = tuple("q%d" % s for s in range(quot.dim))
    out = ComoduleAlgebra(induced_algebra(a, lifts, quot.project, labels), ca.hopf,
                          induced_coaction(ca, lifts, quot.project))
    proj_cols = [quot.project(_basis_row(f, j)) for j in range(a.dim)]
    return out, Matrix.from_sparse_cols(f, quot.dim, proj_cols)


def sub_comodule_algebra(ca, span_vectors):
    """The comodule subalgebra spanned by the given sparse native rows (must
    be closed under product, contain 1, and be a subcomodule); returns it
    with the inclusion of its RREF basis.  Its coordinates raise unless the
    span is closed, and the laws of a valid ca hold on a closed span, so it
    is not checked again."""
    a = ca.algebra
    f = ca.field
    basis = row_space_basis(f, span_vectors, a.dim)
    in_basis = span_coordinates(f, basis)

    def coords(vec):
        x = in_basis(vec)
        if x is None:
            raise ValidationError("subspace is not closed")
        return x

    labels = tuple("s%d" % s for s in range(len(basis)))
    out = ComoduleAlgebra._certified(induced_algebra(a, basis, coords, labels), ca.hopf,
                                     induced_coaction(ca, basis, coords))
    return out, Matrix.from_sparse_cols(f, a.dim, basis)


def lift_comodule_algebra_map(c_ca, d_ca, varpi, psi):
    """Lift a comodule algebra map psi : H -> D through a surjection
    varpi : C -> D with nilpotent kernel, one square-annihilated quotient
    step at a time (exponents 2^i)."""
    h = c_ca.hopf
    f = c_ca.field
    _check_comodule_algebra_map(h, d_ca, psi)
    if psi.rank() != h.dim:
        raise ValidationError("comodule algebra map H -> D is not injective")
    ca_alg, d_alg = c_ca.algebra, d_ca.algebra
    # varpi verification; its rank is dim C - dim J, J = ker varpi
    ideal = varpi.kernel_rows()
    if varpi.cols - len(ideal) != d_alg.dim:
        raise ValidationError("map C -> D is not surjective")
    require_morphism(varpi, "map C -> D is not a comodule algebra map",
                     algebra=(ca_alg, d_alg), rho=(c_ca.rho_basis, d_ca.rho_basis))
    chain = ideal_power_chain(ca_alg, ideal)
    n = len(chain)  # J^n = 0
    # exponents 1 = 2^0 < 2 < 4 < ... >= n
    exps = [1]
    while exps[-1] < n:
        exps.append(exps[-1] * 2)
    # quotient comodule algebras C/J^e and the projections from C; the last
    # exponent is >= n, where J^e = 0 and the stage is C itself
    stages = [quotient_comodule_algebra(c_ca, chain[e - 1]) for e in exps[:-1]]
    stages.append((c_ca, Matrix.identity(f, ca_alg.dim)))
    # psi_0 : H -> C/J, obtained from psi through the iso C/J ~ D
    q0, proj0 = stages[0]
    # varpi factors as iso o proj0; compute iso : C/J -> D and its inverse
    # from any preimage of each class under proj0
    preimage = column_coordinates(proj0)
    iso_cols = [varpi.apply_sparse(preimage(_basis_row(f, t))) for t in range(q0.algebra.dim)]
    try:
        inverse = Matrix.from_sparse_cols(f, d_alg.dim, iso_cols).inverse()
    except (ShapeMismatchError, SingularMatrixError):
        raise ValidationError("C/J is not isomorphic to D") from None
    current = inverse * psi  # H -> C/J
    _check_comodule_algebra_map(h, q0, current)
    for step in range(1, len(exps)):
        upper, proj_upper = stages[step]
        lower, proj_lower = stages[step - 1]
        # the step surjection C/J^{2^i} -> C/J^{2^{i-1}}
        preimage = column_coordinates(proj_upper)
        step_cols = [proj_lower.apply_sparse(preimage(_basis_row(f, t)))
                     for t in range(upper.algebra.dim)]
        step_pi = Matrix.from_sparse_cols(f, lower.algebra.dim, step_cols)
        # pull-back A = step_pi^{-1}(image of psi_{step-1}); the preimage of
        # the image under step_pi is the kernel of (complement projection o
        # step_pi)
        comp = QuotientSpace(f, lower.algebra.dim, current.native_cols())
        if comp.dim == 0:
            # the pull-back is the whole stage, which is used as it is
            sub, inc = upper, Matrix.identity(f, upper.algebra.dim)
        else:
            comp_proj = Matrix.from_sparse_cols(f, comp.dim,
                                                [comp.project(col) for col in step_cols])
            sub, inc = sub_comodule_algebra(upper, comp_proj.kernel_rows())
        # pi : A -> H through psi_{step-1}^{-1} on the image
        in_psi = column_coordinates(current)
        pi_cols = []
        for col in inc.native_cols():
            sol = in_psi(step_pi.apply_sparse(col))
            if sol is None:
                raise ValidationError("pull-back image escapes the embedded copy of H")
            pi_cols.append(sol)
        pi = Matrix.from_sparse_cols(f, h.dim, pi_cols)
        # split pi as an augmented cleft extension with square-zero kernel
        sec = colinear_splitting_nilpotent(sub, pi)
        eps = pi.transpose().apply_sparse(h.native_counit)  # eps_H o pi
        ext = AugmentedCleftExtension(sub, eps, sec)
        res = split_extension(ext)
        if not res.split:
            return LiftResult(None, step, res.obstruction)
        if sub is upper:
            # split_extension certified the splitting as a map into this very
            # stage, against its algebra and its coaction
            current = res.splitting
        else:
            current = inc * res.splitting  # H -> C/J^{2^step}
            _check_comodule_algebra_map(h, upper, current)
    # the last stage is C, so current is now checked as a map H -> C
    if varpi * current != psi:
        raise ValidationError("computed lift does not project to the given map")
    return LiftResult(current, None, None)
