"""Exact scalar fields and the dense linear-algebra kernel.

Scalars are `fractions.Fraction` over the rationals and `FpElement` over a
prime field.  Both support the arithmetic operators, so the matrix code below
is field-agnostic.  Everything is exact; there is no floating point anywhere.

Echelon forms always pick the leftmost nonzero column and the topmost row as
pivot, so every derived basis (kernels, images, quotient complements) is
canonical and reproducible.
"""

from fractions import Fraction

from .errors import ShapeMismatchError, SingularMatrixError


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


class Rationals:
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, num, den=1):
        return Fraction(num, den)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9))

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
# vectors: plain tuples of scalars


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v):
    return tuple(c * a for a in v)


def vzero(field, n):
    return (field.zero,) * n


def is_zero_vec(v):
    return all(not a for a in v)


def basis_vec(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data):
        self.field = field
        rows = tuple(tuple(r) for r in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.cols:
                raise ShapeMismatchError("ragged rows")
        self.data = rows

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero
        return Matrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(field, cols):
        return Matrix(field, list(zip(*cols))) if cols else Matrix(field, [])

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return "Matrix(%r, %d x %d)" % (self.field, self.rows, self.cols)

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("matrix addition shape mismatch")
        return Matrix(self.field, [vadd(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("matrix subtraction shape mismatch")
        return Matrix(self.field, [vsub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        return Matrix(self.field, [vscale(c, r) for r in self.data])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatchError(
                "cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        z = self.field.zero
        ot = list(zip(*other.data))
        out = []
        for r in self.data:
            nz = [(j, a) for j, a in enumerate(r) if a]
            row = []
            for c in ot:
                s = z
                for j, a in nz:
                    if c[j]:
                        s = s + a * c[j]
                row.append(s)
            out.append(row)
        return Matrix(self.field, out)

    def apply(self, vec):
        """Matrix times column vector (vec as tuple)."""
        if len(vec) != self.cols:
            raise ShapeMismatchError("vector length %d != cols %d" % (len(vec), self.cols))
        z = self.field.zero
        out = []
        for r in self.data:
            s = z
            for a, x in zip(r, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return tuple(out)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.data)) if self.data else [])

    def kron(self, other):
        """Kronecker product; index (i,k) maps to i*other.rows + k."""
        out = []
        for r1 in self.data:
            for r2 in other.data:
                row = []
                for a in r1:
                    row.extend(a * b for b in r2)
                out.append(row)
        return Matrix(self.field, out)

    def is_zero(self):
        return all(is_zero_vec(r) for r in self.data)

    # -- echelon machinery ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots, T) with T * self == R, T invertible.  Pivot choice
        is leftmost nonzero column, topmost available row.
        """
        f = self.field
        m = [list(r) for r in self.data]
        t = [list(r) for r in Matrix.identity(f, self.rows).data]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            sel = None
            for i in range(pr, self.rows):
                if m[i][pc]:
                    sel = i
                    break
            if sel is None:
                continue
            if sel != pr:
                m[pr], m[sel] = m[sel], m[pr]
                t[pr], t[sel] = t[sel], t[pr]
            inv = f.one / m[pr][pc]
            m[pr] = [inv * a for a in m[pr]]
            t[pr] = [inv * a for a in t[pr]]
            for i in range(self.rows):
                if i != pr and m[i][pc]:
                    c = m[i][pc]
                    m[i] = [a - c * b for a, b in zip(m[i], m[pr])]
                    t[i] = [a - c * b for a, b in zip(t[i], t[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Matrix(f, m), tuple(pivots), Matrix(f, t)

    def rank(self):
        _, pivots, _ = self.rref()
        return len(pivots)

    def det(self):
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of non-square matrix")
        f = self.field
        m = [list(r) for r in self.data]
        n = self.rows
        det = f.one
        for c in range(n):
            sel = None
            for i in range(c, n):
                if m[i][c]:
                    sel = i
                    break
            if sel is None:
                return f.zero
            if sel != c:
                m[c], m[sel] = m[sel], m[c]
                det = -det
            det = det * m[c][c]
            inv = f.one / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    factor = m[i][c] * inv
                    m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
        return det

    def kernel_basis(self):
        """Canonical basis of the right kernel (reduced echelon complement)."""
        r, pivots, _ = self.rref()
        return _kernel_of_rref(r, pivots)

    def inverse(self):
        if self.rows != self.cols:
            raise ShapeMismatchError("inverse of non-square matrix")
        _, pivots, t = self.rref()
        if len(pivots) != self.rows:
            raise SingularMatrixError("matrix of rank %d < %d" % (len(pivots), self.rows))
        return t

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def _kernel_of_rref(r, pivots):
    """The kernel basis read off a reduced echelon form R with its pivots:
    one vector per free column j, with 1 at j and -R[row, j] at each pivot."""
    f = r.field
    pivset = set(pivots)
    basis = []
    for j in range(r.cols):
        if j in pivset:
            continue
        v = [f.zero] * r.cols
        v[j] = f.one
        for ri, pc in enumerate(pivots):
            v[pc] = -r.data[ri][j]
        basis.append(tuple(v))
    return basis


class LinearMap:
    """A matrix with named domain/codomain bases (shape codomain x domain)."""

    def __init__(self, matrix, domain_labels, codomain_labels):
        if matrix.cols != len(domain_labels) or matrix.rows != len(codomain_labels):
            raise ShapeMismatchError("linear map label/shape mismatch")
        self.matrix = matrix
        self.domain_dim = matrix.cols
        self.codomain_dim = matrix.rows
        self.domain_labels = tuple(domain_labels)
        self.codomain_labels = tuple(codomain_labels)

    def __call__(self, vec):
        return self.matrix.apply(vec)

    def is_bijective(self):
        return self.matrix.is_invertible()


class SolveResult:
    """Outcome of solve_linear.

    Either `solution` is a vector with M x = b and `kernel` spans the
    homogeneous solutions, or `certificate` is a row combination y with
    y^T M = 0 and y^T b != 0 proving inconsistency.
    """

    def __init__(self, solution=None, kernel=None, certificate=None):
        self.solution = solution
        self.kernel = kernel
        self.certificate = certificate

    @property
    def consistent(self):
        return self.solution is not None


def solve_linear(m, b):
    """Solve M x = b exactly; see SolveResult."""
    if len(b) != m.rows:
        raise ShapeMismatchError("rhs length %d != rows %d" % (len(b), m.rows))
    f = m.field
    r, pivots, t = m.rref()
    tb = t.apply(b)
    for i in range(len(pivots), m.rows):
        if tb[i]:
            return SolveResult(certificate=t.row(i))
    # pivot rows of the rref have a 1 in column pc; back substitution is immediate
    sol = [f.zero] * m.cols
    for ri, pc in enumerate(pivots):
        sol[pc] = tb[ri]
    return SolveResult(solution=tuple(sol), kernel=_kernel_of_rref(r, pivots))


def column_coordinates(m):
    """The map b -> the solution x of M x = b that solve_linear returns, or
    None when b is outside the column space.  M is eliminated once, here,
    and the transform is reused for every b."""
    f = m.field
    _, pivots, t = m.rref()
    rank = len(pivots)

    def coords(b):
        tb = t.apply(b)
        if any(tb[rank:]):
            return None
        x = [f.zero] * m.cols
        for ri, pc in enumerate(pivots):
            x[pc] = tb[ri]
        return tuple(x)

    return coords


def kernel_basis(m):
    return m.kernel_basis()


def row_space_basis(field, vectors, n):
    """Canonical (RREF) basis of the span of the given length-n vectors."""
    if not vectors:
        return []
    m = Matrix(field, list(vectors))
    r, pivots, _ = m.rref()
    return [r.row(i) for i in range(len(pivots))]


def in_span(field, basis_rref, vec):
    """Membership test against an RREF row basis (as from row_space_basis)."""
    v = list(vec)
    for row in basis_rref:
        pc = next(j for j, a in enumerate(row) if a)
        if v[pc]:
            c = v[pc]
            v = [a - c * b for a, b in zip(v, row)]
    return all(not a for a in v)


class QuotientSpace:
    """Ambient space modulo a relation subspace, with canonical complement.

    The complement basis consists of the standard basis vectors at the
    non-pivot coordinates of the relation RREF, so projection and lifting are
    reproducible across runs.
    """

    def __init__(self, field, ambient_dim, relations):
        self.field = field
        self.ambient_dim = ambient_dim
        rels = row_space_basis(field, relations, ambient_dim)
        self.relations = rels
        self._pivots = [next(j for j, a in enumerate(r) if a) for r in rels]
        pivset = set(self._pivots)
        self.complement = [j for j in range(ambient_dim) if j not in pivset]
        self.dim = len(self.complement)

    def reduce(self, vec):
        """Canonical representative of vec modulo the relations."""
        v = list(vec)
        for pc, row in zip(self._pivots, self.relations):
            if v[pc]:
                c = v[pc]
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def project(self, vec):
        """Coordinates of the class of vec in the complement basis."""
        v = self.reduce(vec)
        return tuple(v[j] for j in self.complement)

    def lift(self, coords):
        """Standard-basis lift of quotient coordinates to the ambient space."""
        v = [self.field.zero] * self.ambient_dim
        for j, c in zip(self.complement, coords):
            v[j] = c
        return tuple(v)
