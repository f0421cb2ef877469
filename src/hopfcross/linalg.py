"""Exact scalar fields and the linear-algebra kernel.

Scalars are `Rational` over the rationals and `FpElement` over a prime
field.  Everything is exact; there is no floating point anywhere.
`Rational` is a `fractions.Fraction` that does its own arithmetic when both
operands are `Rational`, and `Rationals` makes every Q scalar as one.

Every library function takes and returns a vector in one form: a sparse
native row, a dict {index: nonzero native scalar}, with ints mod p over F_p
(inverses by `pow(a, p - 2, p)`) and `Rational` over Q.  A `Matrix` is its
sparse native rows: `Matrix(field, data)` converts dense rows of field
scalars once, and every operation and elimination reads the rows, as do
`solve_linear`, the one solver, the row-space layer (`row_space_basis`,
`span_coordinates`, `QuotientSpace`, ...) and `vtensor`, the one tensor
u (x) v.  Field scalars appear only at the JSON boundary and in the dense
API: a structure's field-scalar views (`algebra`), `mult`, `delta`,
`Matrix.apply`, `Matrix.from_cols`, `col` and `Matrix.data`, a view derived
and kept on its first read.  The transform T with T * M = R is carried only
when a caller asks for it (`inverse`, `column_coordinates`, the certificate
of an inconsistent `solve_linear` when it is read).

Echelon forms always pick the leftmost nonzero column and the topmost row as
pivot, so every derived basis (kernels, images, quotient complements) is
canonical and reproducible.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import ShapeMismatchError, SingularMatrixError


# the primes up to 37: trial division by them decides every n < 37^2 = 1369,
# and Miller-Rabin to these twelve bases every n < 2^64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 2 ** 64


def is_prime(n):
    """Whether n is prime, decided exactly for n < PRIME_BOUND = 2^64 (a
    ValueError above it): trial division by _SMALL_PRIMES, then a strong
    probable-prime test to each of them as a base, which no composite
    below 2^64 passes to all twelve."""
    if n >= PRIME_BOUND:
        raise ValueError("primality is decided below 2^64, got %d" % n)
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 37 * 37:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue mod p.  Immutable and hashable."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.value + other.value, self.p)

    def __sub__(self, other):
        return FpElement(self.value - other.value, self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __mul__(self, other):
        return FpElement(self.value * other.value, self.p)

    def __truediv__(self, other):
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "%d" % self.value


def _rational(n, d):
    """The Rational n/d, for coprime ints n and d > 0."""
    r = object.__new__(Rational)
    r._numerator = n
    r._denominator = d
    return r


def _lift(x):
    """A Fraction result as a Rational; anything else (a float, NotImplemented)
    as it is."""
    return _rational(x._numerator, x._denominator) if type(x) is Fraction else x


class Rational(Fraction):
    """A Fraction whose +, -, * and / with another Rational skip Fraction's
    generic operator dispatch and its constructor: they run CPython's own
    normalizing algorithms on the two slots.  With any other operand they
    take Fraction's method and lift a Fraction result back.  Equality, hash
    and str are Fraction's."""

    __slots__ = ()

    def __add__(a, b):
        if type(b) is not Rational:
            return _lift(Fraction.__add__(a, b))
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _rational(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _rational(t, s * db)
        return _rational(t // g2, s * (db // g2))

    def __sub__(a, b):
        if type(b) is not Rational:
            return _lift(Fraction.__sub__(a, b))
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _rational(na * db - da * nb, da * db)
        s = da // g
        t = na * (db // g) - nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _rational(t, s * db)
        return _rational(t // g2, s * (db // g2))

    def __mul__(a, b):
        if type(b) is not Rational:
            return _lift(Fraction.__mul__(a, b))
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _rational(na * nb, db * da)

    def __truediv__(a, b):
        if type(b) is not Rational:
            return _lift(Fraction.__truediv__(a, b))
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        if nb == 0:
            raise ZeroDivisionError("Fraction(%s, 0)" % (na * db))
        g1 = gcd(na, nb)
        if g1 > 1:
            na //= g1
            nb //= g1
        g2 = gcd(db, da)
        if g2 > 1:
            da //= g2
            db //= g2
        n, d = na * db, nb * da
        return _rational(-n, -d) if d < 0 else _rational(n, d)

    def __radd__(b, a):
        return _lift(Fraction.__radd__(b, a))

    def __rsub__(b, a):
        return _lift(Fraction.__rsub__(b, a))

    def __rmul__(b, a):
        return _lift(Fraction.__rmul__(b, a))

    def __rtruediv__(b, a):
        return _lift(Fraction.__rtruediv__(b, a))

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    def __bool__(a):
        return a._numerator != 0


class Rationals:
    characteristic = 0

    def __init__(self):
        self.zero = _rational(0, 1)
        self.one = _rational(1, 1)

    def from_int(self, n):
        return _rational(n, 1)

    def from_fraction(self, num, den=1):
        """num/den for ints num and den, normalized with one gcd."""
        if den == 0:
            raise ZeroDivisionError("Fraction(%s, 0)" % num)
        g = gcd(num, den)
        if den < 0:
            g = -g
        return _rational(num // g, den // g)

    def random(self, rng):
        return _rational(rng.randint(-9, 9), 1)

    def elements(self):
        raise ValueError("the rationals are not enumerable")

    @property
    def order(self):
        return None

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def from_fraction(self, num, den=1):
        if den % self.p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % self.p)
        return FpElement(num, self.p) / FpElement(den, self.p)

    def random(self, rng):
        return FpElement(rng.randrange(self.p), self.p)

    def elements(self):
        return [FpElement(v, self.p) for v in range(self.p)]

    @property
    def order(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F%d" % self.p


# ---------------------------------------------------------------------------
# dense vectors: plain tuples of scalars


def basis_vec(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Matrix:
    """Immutable matrix over an exact field, kept as its sparse native rows.

    `cols` is needed only for a matrix with no rows; otherwise it is read
    off the rows (and checked when given).
    """

    __slots__ = ("field", "rows", "cols", "_data", "_sparse")

    def __init__(self, field, data, cols=None):
        rows = [tuple(r) for r in data]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ShapeMismatchError("ragged rows")
        self.field, self.rows, self.cols, self._data = field, len(rows), cols, None
        self._sparse = tuple(_native(r, field) for r in rows)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_sparse_rows(field, rows, cols):
        """The len(rows) x cols matrix whose rows are the dicts {column:
        nonzero native scalar}.  It keeps the dicts, which nothing may change
        afterwards; two rows may be the same dict."""
        m = object.__new__(Matrix)
        m.field, m.rows, m.cols, m._data, m._sparse = field, len(rows), cols, None, tuple(rows)
        return m

    @staticmethod
    def zeros(field, rows, cols):
        return Matrix.from_sparse_rows(field, [{}] * rows, cols)

    @staticmethod
    def identity(field, n):
        return Matrix.from_sparse_rows(field, [_basis_row(field, i) for i in range(n)], n)

    @staticmethod
    def from_cols(field, cols):
        return Matrix(field, list(zip(*cols)), len(cols))

    @staticmethod
    def from_sparse_cols(field, rows, cols):
        """The rows x len(cols) matrix with the sparse native columns {row:
        nonzero native scalar}."""
        out = [{} for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                out[i][j] = c
        return Matrix.from_sparse_rows(field, out, len(cols))

    # -- the rows and their views -------------------------------------------

    @property
    def data(self):
        """The dense rows of field scalars, derived and kept on the first read."""
        if self._data is None:
            self._data = tuple(_dense_vec(self.field, r, self.cols) for r in self._sparse)
        return self._data

    def _native_rows(self):
        """The sparse rows; a caller copies a row before it changes it."""
        return self._sparse

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self._sparse == other._sparse
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols))

    def __repr__(self):
        return "Matrix(%r, %d x %d)" % (self.field, self.rows, self.cols)

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def native_cols(self):
        """Every column as a sparse native dict {row: c}, read off the
        sparse rows in one pass."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._sparse):
            for j, a in row.items():
                cols[j][i] = a
        return cols

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("matrix addition shape mismatch")
        p = self.field.characteristic
        rows = [dict(r) for r in self._sparse]
        for row, b in zip(rows, other._sparse):
            _subtract(row, -1 if p else -self.field.one, b, p)
        return Matrix.from_sparse_rows(self.field, rows, self.cols)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        p = self.field.characteristic
        c = c.value if p else c
        rows = [_scaled(r, c, p) for r in self._sparse] if c else [{}] * self.rows
        return Matrix.from_sparse_rows(self.field, rows, self.cols)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatchError(
                "cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        p = self.field.characteristic
        right = other._sparse
        out = []
        for r in self._sparse:
            row = {}
            for j, a in r.items():
                _subtract(row, -a, right[j], p)
            out.append(row)
        return Matrix.from_sparse_rows(self.field, out, other.cols)

    def apply(self, vec):
        """Matrix times column vector (vec as tuple), as a tuple, by
        `apply_sparse`."""
        if len(vec) != self.cols:
            raise ShapeMismatchError("vector length %d != cols %d" % (len(vec), self.cols))
        return _dense_vec(self.field, self.apply_sparse(_native(vec, self.field)), self.rows)

    def apply_sparse(self, vec):
        """Matrix times a sparse native column vector, as a sparse native
        vector."""
        p = self.field.characteristic
        return {i: s for i, row in enumerate(self._sparse) if (s := _dot(row, vec, p))}

    def transpose(self):
        return Matrix.from_sparse_rows(self.field, self.native_cols(), self.rows)

    def is_zero(self):
        return not any(self._sparse)

    # -- echelon machinery ---------------------------------------------------

    def rref(self, transform=True):
        """Reduced row echelon form, on the sparse rows.

        Returns (R, pivots, T) with T * self == R, T invertible; T is None
        when `transform` is false, and is then never built.  Pivot choice is
        leftmost nonzero column, topmost available row.
        """
        f = self.field
        p = f.characteristic
        one = 1 if p else f.one
        n = self.rows
        m = [dict(r) for r in self._sparse]
        t = [{i: one} for i in range(n)] if transform else None
        pivots = []
        pr = 0
        for pc in range(self.cols):
            if pr == n:
                break
            sel = pr
            while sel < n and pc not in m[sel]:
                sel += 1
            if sel == n:
                continue
            if sel != pr:
                m[pr], m[sel] = m[sel], m[pr]
                if t is not None:
                    t[pr], t[sel] = t[sel], t[pr]
            piv = m[pr][pc]
            if piv != 1:  # a pivot of one needs no scaling
                inv = pow(piv, p - 2, p) if p else one / piv
                m[pr] = _scaled(m[pr], inv, p)
                if t is not None:
                    t[pr] = _scaled(t[pr], inv, p)
            for i in range(n):
                c = m[i].get(pc)
                if c and i != pr:
                    _subtract(m[i], c, m[pr], p)
                    if t is not None:
                        _subtract(t[i], c, t[pr], p)
            pivots.append(pc)
            pr += 1
        r = Matrix.from_sparse_rows(f, m, self.cols)
        return r, tuple(pivots), (Matrix.from_sparse_rows(f, t, n) if t is not None else None)

    def rank(self):
        return len(self.rref(transform=False)[1])

    def det(self):
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of non-square matrix")
        f = self.field
        p = f.characteristic
        n = self.rows
        m = [dict(r) for r in self._sparse]
        det = 1 if p else f.one
        for c in range(n):
            sel = next((i for i in range(c, n) if c in m[i]), None)
            if sel is None:
                return f.zero
            if sel != c:
                m[c], m[sel] = m[sel], m[c]
                det = -det
            a = m[c][c]
            if p:
                det = det * a % p
                inv = pow(a, p - 2, p)
            else:
                det = det * a
                inv = f.one / a
            for i in range(c + 1, n):
                x = m[i].get(c)
                if x:
                    _subtract(m[i], x * inv % p if p else x * inv, m[c], p)
        return f.from_int(det) if p else det

    def kernel_rows(self):
        """Canonical basis of the right kernel (reduced echelon complement),
        as sparse native rows."""
        r, pivots, _ = self.rref(transform=False)
        return _kernel_of_rref(r, pivots, self.cols)

    def inverse(self):
        if self.rows != self.cols:
            raise ShapeMismatchError("inverse of non-square matrix")
        _, pivots, t = self.rref()
        if len(pivots) != self.rows:
            raise SingularMatrixError("matrix of rank %d < %d" % (len(pivots), self.rows))
        return t

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


# ---------------------------------------------------------------------------
# sparse rows of native scalars: {column: nonzero}, ints mod p over F_p
# (p = the characteristic) and Rationals over Q (p = 0)

_QZERO = _rational(0, 1)


def _native(vec, field):
    """The nonzeros of a dense vector of field scalars as a sparse native
    row.  Most zeros are the field's own zero object, which `is` skips
    without a call to __bool__."""
    z = field.zero
    if field.characteristic:
        return {j: a.value for j, a in enumerate(vec) if a is not z and a.value}
    return {j: a for j, a in enumerate(vec) if a is not z and a}


def vtensor(u, v, n, p):
    """u (x) v for sparse native rows u and v, v of length n, with the
    coordinate of e_i (x) e_j at i * n + j (the flat index `algebra.ti`);
    p is the characteristic."""
    if p:
        return {i * n + j: a * b % p for i, a in u.items() for j, b in v.items()}
    return {i * n + j: a * b for i, a in u.items() for j, b in v.items()}


def _reduced(row, p):
    """A sparse native sum with its zeros dropped, each entry reduced mod p
    over F_p (p > 0)."""
    if p:
        return {j: r for j, a in row.items() if (r := a % p)}
    return {j: a for j, a in row.items() if a}


def _basis_row(field, i):
    """e_i as a sparse native row."""
    return {i: 1 if field.characteristic else field.one}


def _dense_vec(field, row, n):
    """The length-n tuple of a sparse native row, in the field's type."""
    v = [field.zero] * n
    p = field.characteristic
    for j, a in row.items():
        v[j] = FpElement(a, p) if p else a
    return tuple(v)


def _dot(u, v, p):
    """The native sum of u[j] * v[j] over the indices of the smaller dict."""
    if len(v) < len(u):
        u, v = v, u
    if p:
        return sum([a * v[j] for j, a in u.items() if j in v]) % p
    return sum([a * v[j] for j, a in u.items() if j in v], _QZERO)


def _scaled(row, c, p):
    if p:
        return {j: a * c % p for j, a in row.items()}
    return {j: a * c for j, a in row.items()}


def _subtract(row, c, pivot_row, p):
    """row -= c * pivot_row, in place, keeping only nonzero entries."""
    get = row.get
    if p:
        for j, a in pivot_row.items():
            v = (get(j, 0) - c * a) % p
            if v:
                row[j] = v
            else:
                del row[j]
        return
    for j, a in pivot_row.items():
        v = get(j, _QZERO) - c * a  # int - Rational would take the slow reflected path
        if v:
            row[j] = v
        else:
            del row[j]


def connected_components(n, links):
    """The classes of range(n) under the equivalence generated by the pairs
    (i, j) in links, each a sorted list, in the order of their least member."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in links:
        parent[root(i)] = root(j)
    classes = {}  # filled in index order, so each class by its least member
    for i in range(n):
        classes.setdefault(root(i), []).append(i)
    return list(classes.values())


def _reduce(vec, pivot_rows, p):
    """vec minus c * row for each (pivot column, pivot row) of a reduced
    echelon form, with c the entry of vec at the pivot, in place: the
    remainder of vec modulo their span, zero at every pivot column."""
    for pc, row in pivot_rows:
        c = vec.get(pc)
        if c is not None:
            _subtract(vec, c, row, p)
    return vec


def _kernel_of_rref(r, pivots, cols):
    """The kernel basis read off a reduced echelon form R with its pivots,
    over the first `cols` columns, as sparse native rows: one vector per free
    column j, with 1 at j and -R[row, j] at each pivot, read off the nonzeros
    of R's pivot rows."""
    f = r.field
    p = f.characteristic
    pivset = set(pivots)
    free = {j: {j: 1 if p else f.one} for j in range(cols) if j not in pivset}
    for row, pc in zip(r._native_rows(), pivots):
        for j, a in row.items():
            v = free.get(j)
            if v is not None:
                v[pc] = -a % p if p else -a
    return list(free.values())


class SolveResult:
    """Outcome of solve_linear, every vector a sparse native row.

    Either `solution` is x with M x = b and `kernel` spans the homogeneous
    solutions, or `solution` is None and `certificate` is a row combination
    y with y^T M = 0 and y^T b != 0 proving inconsistency.  Each is derived
    on its first read: the kernel off the elimination that found x, the
    certificate by eliminating M again, with the transform."""

    def __init__(self, m, b, solution, eliminated):
        self.solution = solution
        self._system = (m, b)
        self._eliminated = eliminated  # (R, pivots) of [M | b], and n = M.cols

    @cached_property
    def kernel(self):
        return None if self._eliminated is None else _kernel_of_rref(*self._eliminated)

    @cached_property
    def certificate(self):
        if self.solution is not None:
            return None
        m, b = self._system
        _, pivots, t = m.rref()
        p = m.field.characteristic
        return next(y for y in t._native_rows()[len(pivots):] if _dot(y, b, p))


def solve_linear(m, b):
    """Solve M x = b exactly, for b a sparse native row; see SolveResult.
    [M | b] is eliminated once into R, whose pivots are those of M, plus the
    last column exactly when the system is inconsistent; x is read off R.
    The sparse rows of [M | b] are those of M, with b's nonzeros appended at
    column n."""
    if any(not 0 <= i < m.rows for i in b):
        raise ShapeMismatchError("rhs index outside the %d rows" % m.rows)
    n = m.cols
    rows = [{**row, n: b[i]} if i in b else row for i, row in enumerate(m._native_rows())]
    r, pivots, _ = Matrix.from_sparse_rows(m.field, rows, n + 1).rref(transform=False)
    if pivots and pivots[-1] == n:
        return SolveResult(m, b, None, None)
    # pivot rows of the rref have a 1 in column pc; back substitution is immediate
    x = {pc: row[n] for row, pc in zip(r._native_rows(), pivots) if n in row}
    return SolveResult(m, b, x, (r, pivots, n))


def column_coordinates(m, eliminated=None):
    """The map b -> the solution x of M x = b that solve_linear returns, or
    None when b is outside the column space, with b and x sparse native
    rows.  M is eliminated once, here, unless the
    caller passes its m.rref() as eliminated; the transform T is kept as
    sparse native columns, and T b adds only the columns that the nonzeros
    of b hit."""
    p = m.field.characteristic
    _, pivots, t = eliminated or m.rref()
    rank = len(pivots)
    tcols = t.native_cols()

    def coords(b):
        tb = {}
        for j, x in b.items():
            _subtract(tb, -x, tcols[j], p)
        if any(i >= rank for i in tb):
            return None
        return {pc: tb[ri] for ri, pc in enumerate(pivots) if ri in tb}

    return coords


def _rref_rows(field, vectors, n):
    """(pivot column, sparse native row) for each pivot row of the RREF of
    the given length-n sparse native rows, eliminated without their zero
    vectors (most products of basis monomials are zero)."""
    rows = [row for row in vectors if row]
    if not rows:
        return []
    r, pivots, _ = Matrix.from_sparse_rows(field, rows, n).rref(transform=False)
    return list(zip(pivots, r._native_rows()))


def row_space_basis(field, vectors, n):
    """Canonical (RREF) basis of the span of the given length-n vectors, as
    sparse native rows; the pivot of a row is its least index."""
    return [row for _, row in _rref_rows(field, vectors, n)]


def _pivot_rows(basis_rref):
    """(pivot column, row) for each row of an RREF basis: its least index."""
    return [(min(r), r) for r in basis_rref]


def span_coordinates(field, basis_rref):
    """The map v -> the coordinates {s: c} of v against an RREF row basis
    (as from row_space_basis), or None when v is outside its span.  The
    coordinates are the entries of v at the pivot columns, and v is in the
    span exactly when reducing it by the pivot rows leaves nothing."""
    rows = _pivot_rows(basis_rref)
    p = field.characteristic

    def coords(v):
        x = {s: v[pc] for s, (pc, _) in enumerate(rows) if pc in v}
        return None if _reduce(dict(v), rows, p) else x

    return coords


def in_span(field, basis_rref, vec):
    """Membership test against an RREF row basis (as from row_space_basis)."""
    return span_coordinates(field, basis_rref)(vec) is not None


def echelon_complement(field, basis_rref, vectors):
    """The vectors, in order, that lie outside the span of an RREF row basis
    and of the vectors before them.  Each is reduced once by the pivot rows;
    the normalized remainder of one that is kept joins them, zero at every
    earlier pivot, so reducing by the rows in the order they joined clears
    every pivot."""
    rows = _pivot_rows(basis_rref)
    p = field.characteristic
    out = []
    for vec in vectors:
        rem = _reduce(dict(vec), rows, p)
        if rem:
            out.append(vec)
            pc = min(rem)
            inv = pow(rem[pc], p - 2, p) if p else field.one / rem[pc]
            rows.append((pc, _scaled(rem, inv, p)))
    return out


class QuotientSpace:
    """Ambient space modulo a relation subspace, with canonical complement.

    The complement basis consists of the standard basis vectors at the
    non-pivot coordinates of the relation RREF, so projection and lifting are
    reproducible across runs.  Relations, vectors and coordinates are sparse
    native rows; the RREF is kept as sparse native pivot rows.
    """

    def __init__(self, field, ambient_dim, relations):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = _rref_rows(field, relations, ambient_dim)
        pivset = {pc for pc, _ in self._rows}
        self.complement = [j for j in range(ambient_dim) if j not in pivset]
        self._at = {j: t for t, j in enumerate(self.complement)}
        self.dim = len(self.complement)

    def reduce(self, vec):
        """Canonical representative of vec modulo the relations: zero at
        every pivot column."""
        return _reduce(dict(vec), self._rows, self.field.characteristic)

    def project(self, vec):
        """Coordinates of the class of vec in the complement basis."""
        at = self._at
        return {at[j]: c for j, c in self.reduce(vec).items()}

    def lift(self, coords):
        """Standard-basis lift of quotient coordinates to the ambient space."""
        comp = self.complement
        return {comp[t]: c for t, c in coords.items()}
