import operator
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcross.algebra import ti
from hopfcross.errors import ShapeMismatchError, SingularMatrixError
from hopfcross.linalg import (
    FpElement,
    Matrix,
    PrimeField,
    QuotientSpace,
    Rational,
    Rationals,
    _dense_vec,
    _native,
    column_coordinates,
    in_span,
    is_prime,
    row_space_basis,
    solve_linear,
    vtensor,
)
from tests.oracles import kernel_basis

Q = Rationals()
F5 = PrimeField(5)


def qmat(rows):
    return Matrix(Q, [[Fraction(x) for x in r] for r in rows])


def fpmat(field, rows):
    return Matrix(field, [[field.from_int(x) for x in r] for r in rows])


def test_prime_check():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        PrimeField(4)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_prime_check_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division(n)]


def test_prime_check_is_exact_and_fast_below_2_64():
    # a strong pseudoprime to every base from 2 to 23 is caught by 29, 31 or
    # 37; the largest prime below 2^64 is accepted at once; 2^64 and above
    # are refused rather than decided
    assert not is_prime(3825123056546413051)
    start = time.monotonic()
    assert is_prime(2 ** 64 - 59) and not is_prime(2 ** 64 - 57)
    assert time.monotonic() - start < 0.1
    for n in (2 ** 64, 2 ** 64 + 13):
        with pytest.raises(ValueError, match="below 2\\^64"):
            is_prime(n)


def test_fp_arithmetic():
    a = F5.from_int(3)
    b = F5.from_int(4)
    assert a + b == F5.from_int(2)
    assert a * b == F5.from_int(2)
    assert a / b == a * F5.from_int(4)  # 4^{-1} = 4 mod 5
    assert -a == F5.from_int(2)
    assert not F5.zero
    assert F5.one


def test_solve_identity():
    m = Matrix.identity(Q, 3)
    b = {0: Q.from_int(1), 1: Q.from_int(2), 2: Q.from_int(3)}
    res = solve_linear(m, b)
    assert res.solution is not None
    assert res.solution == b
    assert res.kernel == []


def test_solve_inconsistent_certificate():
    m = qmat([[1, 1], [1, 1]])
    res = solve_linear(m, {0: Q.one})
    assert res.solution is None
    y = _dense_vec(Q, res.certificate, 2)
    # y^T M = 0 but y^T b != 0
    assert all(
        sum(y[i] * m.data[i][j] for i in range(2)) == 0 for j in range(2)
    )
    assert y[0] * 1 + y[1] * 0 != 0


def test_solve_f5_against_exhaustive_oracle():
    m = fpmat(F5, [[2, 1], [1, 1]])
    b = (F5.one, F5.one)
    # oracle: exhaustive check of all 25 candidate vectors
    hits = [
        (F5.from_int(x), F5.from_int(y))
        for x in range(5)
        for y in range(5)
        if m.apply((F5.from_int(x), F5.from_int(y))) == b
    ]
    assert hits == [(F5.zero, F5.one)]
    res = solve_linear(m, _native(b, F5))
    assert res.solution == {1: 1}


def test_solve_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        solve_linear(Matrix.identity(Q, 2), {2: Q.one})


def test_kernel_zero_matrix():
    m = Matrix.zeros(Q, 2, 3)
    basis = kernel_basis(m)
    assert basis == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_invertible_empty():
    m = qmat([[1, 2], [3, 4]])
    assert kernel_basis(m) == []


def test_kernel_rank_one():
    m = qmat([[1, 1], [1, 1]])
    # oracle: brute-force nullity over a small integer grid
    grid_null = [
        (x, y)
        for x in range(-2, 3)
        for y in range(-2, 3)
        if x + y == 0 and (x, y) != (0, 0)
    ]
    assert grid_null  # nullity >= 1
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert m.apply(v) == (Fraction(0), Fraction(0))
    # up to scaling: (1, -1)
    assert v[0] * Fraction(-1) == v[1]


def test_invert_examples():
    assert Matrix.identity(Q, 3).inverse() == Matrix.identity(Q, 3)
    swap = qmat([[0, 1], [1, 0]])
    assert swap.inverse() == swap
    with pytest.raises(SingularMatrixError):
        qmat([[1, 1], [1, 1]]).inverse()


def test_det():
    assert qmat([[2, 0], [0, 3]]).det() == 6
    assert qmat([[0, 1], [1, 0]]).det() == -1
    assert qmat([[1, 1], [1, 1]]).det() == 0


def test_rank_nullity_on_random_sparse_matrices():
    rng = random.Random(20240811)
    for field in (Q, PrimeField(7)):
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            data = [[field.zero] * cols for _ in range(rows)]
            for _ in range(rng.randint(0, rows * cols // 2)):
                data[rng.randrange(rows)][rng.randrange(cols)] = field.random(rng)
            m = Matrix(field, data)
            assert m.rank() + len(kernel_basis(m)) == cols
            assert m.rank() <= min(rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_solve_recovers_known_solution(rows, x):
    m = qmat(rows)
    xv = tuple(Fraction(v) for v in x)
    res = solve_linear(m, m.apply_sparse(_native(xv, Q)))
    assert res.solution is not None
    # x lies in the returned affine solution space
    diff = tuple(a - b2 for a, b2 in zip(xv, _dense_vec(Q, res.solution, m.cols)))
    span = row_space_basis(Q, res.kernel, m.cols)
    assert in_span(Q, span, _native(diff, Q))


def test_rref_determinism():
    m = qmat([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    r1 = m.rref()
    r2 = qmat([[0, 2, 4], [1, 1, 1], [1, 3, 5]]).rref()
    assert r1[0] == r2[0] and r1[1] == r2[1]


def test_quotient_space():
    # Q^3 modulo span{(1, 1, 0)}
    rels = [_native((Q.one, Q.one, Q.zero), Q)]
    q = QuotientSpace(Q, 3, rels)
    assert q.dim == 2
    assert q.complement == [1, 2]
    coords = q.project(_native(tuple(Q.from_int(c) for c in (2, 3, 4)), Q))
    # class of v equals class of its lift
    assert q.project(q.lift(coords)) == coords
    # relation vector projects to zero, the empty sparse row
    assert q.project(rels[0]) == {}


def test_vtensor_indexing():
    # the coordinate of e_i (x) e_j sits at i * n + j, the flat index ti,
    # for v of length n; a zero coordinate is no entry
    u, v = {0: Q.one, 1: Q.from_int(2)}, {0: Q.from_int(3), 1: Q.from_int(4)}
    w = vtensor(u, v, 3, 0)
    assert w == {ti(i, j, 3): u[i] * v[j] for i in u for j in v}
    assert w == {0: 3, 1: 4, 3: 6, 4: 8} and all(type(c) is Rational for c in w.values())
    # over F_p each entry is reduced mod p
    assert vtensor({1: 1}, {0: 2, 2: 4}, 3, 5) == {3: 2, 5: 4}
    assert vtensor({0: 3}, {0: 4}, 1, 5) == {0: 2}
    assert vtensor({}, v, 3, 0) == {} and vtensor(u, {}, 3, 0) == {}


def test_zero_row_matrices_keep_their_columns():
    assert Matrix.zeros(Q, 0, 3).cols == 3
    assert Matrix.from_cols(Q, [(), ()]).cols == 2
    assert Matrix.zeros(Q, 0, 3).transpose().rows == 3
    assert (Matrix.zeros(Q, 2, 0) * Matrix.zeros(Q, 0, 3)) == Matrix.zeros(Q, 2, 3)
    # no constraints: every vector is in the kernel
    assert kernel_basis(Matrix(F5, [], 3)) == [
        (F5.one, F5.zero, F5.zero), (F5.zero, F5.one, F5.zero), (F5.zero, F5.zero, F5.one)]
    assert Matrix.zeros(Q, 0, 3) != Matrix.zeros(Q, 0, 2)


# ---------------------------------------------------------------------------
# the dense elimination the sparse kernel replaced, kept as its oracle


def dense_rref(m):
    f = m.field
    rows = [list(r) for r in m.data]
    t = [list(r) for r in Matrix.identity(f, m.rows).data]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        sel = None
        for i in range(pr, m.rows):
            if rows[i][pc]:
                sel = i
                break
        if sel is None:
            continue
        if sel != pr:
            rows[pr], rows[sel] = rows[sel], rows[pr]
            t[pr], t[sel] = t[sel], t[pr]
        inv = f.one / rows[pr][pc]
        rows[pr] = [inv * a for a in rows[pr]]
        t[pr] = [inv * a for a in t[pr]]
        for i in range(m.rows):
            if i != pr and rows[i][pc]:
                c = rows[i][pc]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[pr])]
                t[i] = [a - c * b for a, b in zip(t[i], t[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Matrix(f, rows, m.cols), tuple(pivots), Matrix(f, t, m.rows)


def dense_det(m):
    f = m.field
    rows = [list(r) for r in m.data]
    n = m.rows
    det = f.one
    for c in range(n):
        sel = None
        for i in range(c, n):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            return f.zero
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = f.one / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = rows[i][c] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return det


def dense_solve(m, b):
    """(solution, kernel) or None, from the dense transform."""
    f = m.field
    r, pivots, t = dense_rref(m)
    tb = t.apply(b)
    if any(tb[len(pivots):]):
        return None
    sol = [f.zero] * m.cols
    for ri, pc in enumerate(pivots):
        sol[pc] = tb[ri]
    kernel = []
    for j in range(m.cols):
        if j not in pivots:
            v = [f.zero] * m.cols
            v[j] = f.one
            for ri, pc in enumerate(pivots):
                v[pc] = -r.data[ri][j]
            kernel.append(tuple(v))
    return tuple(sol), kernel


ORACLE_FIELDS = [Q, PrimeField(2), PrimeField(3), F5, PrimeField(7)]


def nonzero(field, rng):
    x = field.random(rng)
    return x if x else field.one


def oracle_matrices(field, rng):
    """Seeded matrices of each kind the kernel meets."""
    z = field.zero
    out = [Matrix.zeros(field, 0, 4), Matrix.zeros(field, 3, 0), Matrix.zeros(field, 4, 5),
           Matrix.zeros(field, 3, 3)]
    for _ in range(6):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        out.append(Matrix(field, [[field.random(rng) for _ in range(c)] for _ in range(r)]))
        sparse = [[z] * c for _ in range(r)]
        for _ in range(rng.randint(1, r * c // 3 + 1)):
            sparse[rng.randrange(r)][rng.randrange(c)] = field.random(rng)
        out.append(Matrix(field, sparse))
        # rank-deficient: a product through a narrower middle
        k = rng.randint(1, min(r, c))
        left = Matrix(field, [[field.random(rng) for _ in range(k)] for _ in range(r)])
        right = Matrix(field, [[field.random(rng) for _ in range(c)] for _ in range(k)])
        out.append(left * right)
    # block-permutation, like the convolution operator of k[G]: blocks of size
    # d placed by a permutation of n blocks, each block a scaled permutation
    for n, d in ((4, 1), (5, 2), (3, 3)):
        data = [[z] * (n * d) for _ in range(n * d)]
        for blk, img in enumerate(rng.sample(range(n), n)):
            for i, j in enumerate(rng.sample(range(d), d)):
                data[blk * d + i][img * d + j] = nonzero(field, rng)
        out.append(Matrix(field, data))
    return out


def scalar_type(field):
    return Rational if field.characteristic == 0 else FpElement


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_sparse_elimination_matches_the_dense_oracle(field):
    rng = random.Random(7 * (field.characteristic or 1) + 11)
    for m in oracle_matrices(field, rng):
        r, pivots, t = m.rref()
        assert (r, pivots, t) == dense_rref(m)
        assert m.rref(transform=False) == (r, pivots, None)
        typ = scalar_type(field)
        assert all(type(a) is typ for mat in (r, t) for row in mat.data for a in row)
        if m.rows == m.cols:
            det = m.det()
            assert det == dense_det(m) and type(det) is typ


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_solve_linear_matches_the_dense_oracle(field):
    rng = random.Random(13 * (field.characteristic or 1) + 5)
    inconsistent = 0
    for m in oracle_matrices(field, rng):
        x = tuple(field.random(rng) for _ in range(m.cols))
        targets = [m.apply(x), tuple(field.random(rng) for _ in range(m.rows))]
        for b in targets:
            res = solve_linear(m, _native(b, field))
            expected = dense_solve(m, b)
            if expected is not None:
                assert (_dense_vec(field, res.solution, m.cols),
                        [_dense_vec(field, v, m.cols) for v in res.kernel]) == expected
                continue
            inconsistent += 1
            y = _dense_vec(field, res.certificate, m.rows)
            assert all(not sum((y[i] * m.data[i][j] for i in range(m.rows)), field.zero)
                       for j in range(m.cols))
            assert sum((a * c for a, c in zip(y, b)), field.zero)
    assert inconsistent >= 5


def test_questions_without_a_transform_eliminate_once(monkeypatch):
    rref = Matrix.rref
    transforms = []

    def counting(self, *args, **kwargs):
        out = rref(self, *args, **kwargs)
        transforms.append(out[2])
        return out

    monkeypatch.setattr(Matrix, "rref", counting)
    m = fpmat(F5, [[1, 2, 0], [2, 4, 1], [0, 0, 3]])
    for question in (lambda: solve_linear(m, m.apply_sparse({0: 1, 1: 1})),
                     m.rank, lambda: kernel_basis(m), m.is_invertible):
        transforms.clear()
        question()
        assert transforms == [None]


def test_an_inconsistent_system_eliminates_again_only_for_its_certificate(monkeypatch):
    rref = Matrix.rref
    transforms = []

    def counting(self, *args, **kwargs):
        out = rref(self, *args, **kwargs)
        transforms.append(out[2])
        return out

    monkeypatch.setattr(Matrix, "rref", counting)
    res = solve_linear(qmat([[1, 1], [1, 1]]), {0: Q.one})
    assert res.solution is None
    assert transforms == [None]
    y = res.certificate
    assert len(transforms) == 2 and transforms[1] is not None
    assert res.certificate is y and len(transforms) == 2


# ---------------------------------------------------------------------------
# the dense coordinate layer the sparse kernels replaced, kept as its oracle


def ref_apply(m, vec):
    if len(vec) != m.cols:
        raise ShapeMismatchError("vector length %d != cols %d" % (len(vec), m.cols))
    z = m.field.zero
    out = []
    for r in m.data:
        s = z
        for a, x in zip(r, vec):
            if a and x:
                s = s + a * x
        out.append(s)
    return tuple(out)


def ref_column_coordinates(m):
    f = m.field
    _, pivots, t = dense_rref(m)
    rank = len(pivots)

    def coords(b):
        tb = ref_apply(t, b)
        if any(tb[rank:]):
            return None
        x = [f.zero] * m.cols
        for ri, pc in enumerate(pivots):
            x[pc] = tb[ri]
        return tuple(x)

    return coords


def ref_in_span(field, basis_rref, vec):
    v = list(vec)
    for row in basis_rref:
        pc = next(j for j, a in enumerate(row) if a)
        if v[pc]:
            c = v[pc]
            v = [a - c * b for a, b in zip(v, row)]
    return all(not a for a in v)


def ref_row_space_basis(field, vectors, n):
    """The RREF basis of the span of dense vectors, by dense_rref."""
    if not vectors:
        return []
    r, pivots, _ = dense_rref(Matrix(field, [tuple(v) for v in vectors], n))
    return [r.data[i] for i in range(len(pivots))]


class RefQuotientSpace:
    def __init__(self, field, ambient_dim, relations):
        rels = ref_row_space_basis(field, relations, ambient_dim)
        self.field = field
        self.ambient_dim = ambient_dim
        self.relations = rels
        self._pivots = [next(j for j, a in enumerate(r) if a) for r in rels]
        pivset = set(self._pivots)
        self.complement = [j for j in range(ambient_dim) if j not in pivset]

    def reduce(self, vec):
        v = list(vec)
        for pc, row in zip(self._pivots, self.relations):
            if v[pc]:
                c = v[pc]
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def project(self, vec):
        v = self.reduce(vec)
        return tuple(v[j] for j in self.complement)

    def lift(self, coords):
        v = [self.field.zero] * self.ambient_dim
        for j, c in zip(self.complement, coords):
            v[j] = c
        return tuple(v)


def draw(field, rng):
    """A seeded field scalar; over Q a fraction with denominator up to 6."""
    if field.characteristic:
        return field.random(rng)
    return field.from_fraction(rng.randint(-9, 9), rng.randint(1, 6))


def drawn_matrix(field, rng, r, c, density=1.0):
    return Matrix(field, [[draw(field, rng) if rng.random() < density else field.zero
                           for _ in range(c)] for _ in range(r)], c)


def coordinate_matrices(field, rng):
    """Seeded matrices M, as in column_coordinates(M) and the Coinvariants
    inclusions: empty, zero, dense, sparse, rank-deficient and invertible."""
    out = [Matrix.zeros(field, 0, 3), Matrix.zeros(field, 4, 0), Matrix.zeros(field, 0, 0),
           Matrix.zeros(field, 4, 3), Matrix.identity(field, 5)]
    for _ in range(5):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        out.append(drawn_matrix(field, rng, r, c))
        out.append(drawn_matrix(field, rng, r, c, density=0.25))
        k = rng.randint(1, min(r, c))
        out.append(drawn_matrix(field, rng, r, k) * drawn_matrix(field, rng, k, c))
    return out


def coordinate_vectors(field, rng, n, image_of=None):
    """Seeded length-n vectors: zero, a basis vector, sparse and dense, and
    when given a matrix, two vectors of its column space."""
    out = [(field.zero,) * n]
    if n:
        out.append(tuple(field.one if j == n - 1 else field.zero for j in range(n)))
    out += [tuple(draw(field, rng) if rng.random() < density else field.zero
                  for _ in range(n)) for density in (0.2, 1.0)]
    if image_of is not None:
        out += [image_of.apply(v) for v in coordinate_vectors(field, rng, image_of.cols)[2:]]
    return out


def assert_field_typed(field, vec):
    assert all(type(a) is scalar_type(field) for a in vec)


def assert_native(field, row):
    """A sparse native row: nonzero ints mod p over F_p, nonzero Rationals
    over Q."""
    p = field.characteristic
    assert all(type(a) is (int if p else Rational) and a and (not p or 0 < a < p)
               for a in row.values())


def dense_or_none(field, row, n):
    return None if row is None else _dense_vec(field, row, n)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_apply_matches_the_dense_oracle(field):
    rng = random.Random(17 * (field.characteristic or 1) + 3)
    for m in coordinate_matrices(field, rng):
        for v in coordinate_vectors(field, rng, m.cols):
            out = m.apply(v)
            assert out == ref_apply(m, v)
            assert_field_typed(field, out)
        for apply in (m.apply, lambda v: ref_apply(m, v)):
            with pytest.raises(ShapeMismatchError):
                apply((field.zero,) * (m.cols + 1))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_column_coordinates_match_the_dense_oracle(field):
    rng = random.Random(19 * (field.characteristic or 1) + 7)
    outside = 0
    for m in coordinate_matrices(field, rng):
        coords, ref = column_coordinates(m), ref_column_coordinates(m)
        for b in coordinate_vectors(field, rng, m.rows, image_of=m):
            x = coords(_native(b, field))
            assert dense_or_none(field, x, m.cols) == ref(b)
            if x is None:
                outside += 1
                continue
            assert m.apply(_dense_vec(field, x, m.cols)) == b
            assert_native(field, x)
    assert outside >= 5


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_quotients_and_spans_match_the_dense_oracle(field):
    rng = random.Random(23 * (field.characteristic or 1) + 1)
    hits = 0
    for m in coordinate_matrices(field, rng):
        n = m.cols
        # the rows of M as relations: none, rank-deficient, full rank (identity)
        rows = list(m._native_rows())
        quot, ref = QuotientSpace(field, n, rows), RefQuotientSpace(field, n, m.data)
        assert quot.complement == ref.complement and quot.dim == len(ref.complement)
        basis = row_space_basis(field, rows, n)
        assert [_dense_vec(field, r, n) for r in basis] == ref_row_space_basis(field, m.data, n)
        for v in coordinate_vectors(field, rng, n, image_of=m.transpose()):
            row = _native(v, field)
            for out, expected in ((quot.reduce(row), ref.reduce(v)),
                                  (quot.project(row), ref.project(v))):
                assert _dense_vec(field, out, len(expected)) == expected
                assert_native(field, out)
            assert quot.project(quot.lift(quot.project(row))) == quot.project(row)
            member = in_span(field, basis, row)
            assert member == ref_in_span(field, [_dense_vec(field, r, n) for r in basis], v)
            hits += member and any(v)
    assert hits >= 5


def test_coordinate_queries_eliminate_once_and_never_apply(monkeypatch):
    rref, calls = Matrix.rref, []

    def counting_rref(self, *args, **kwargs):
        calls.append("rref")
        return rref(self, *args, **kwargs)

    rng = random.Random(29)
    m = drawn_matrix(Q, rng, 6, 4, density=0.5)
    queries = [m.apply(tuple(draw(Q, rng) for _ in range(4))) for _ in range(25)]
    queries += [tuple(draw(Q, rng) for _ in range(6)) for _ in range(25)]
    queries = [_native(b, Q) for b in queries]
    monkeypatch.setattr(Matrix, "rref", counting_rref)
    monkeypatch.setattr(Matrix, "apply", lambda self, vec: calls.append("apply"))
    coords = column_coordinates(m)
    answers = [coords(b) for b in queries]
    assert calls == ["rref"]
    assert len(answers) == 50 and all(x is not None for x in answers[:25])


# ---------------------------------------------------------------------------
# a matrix built from sparse rows against the same matrix built dense


def sparse_twin(m):
    """m rebuilt by Matrix.from_sparse_rows, from its nonzeros as native
    scalars: ints mod p over F_p, Rationals over Q."""
    p = m.field.characteristic
    rows = [{j: a.value if p else a for j, a in enumerate(r) if a} for r in m.data]
    return Matrix.from_sparse_rows(m.field, rows, m.cols)


def twin_matrices(field, rng):
    """The oracle matrices with the empty, zero-row and zero-column cases."""
    edge = [Matrix.zeros(field, 0, 0), Matrix(field, [], 3), Matrix(field, [(), ()], 0),
            Matrix.identity(field, 4)]
    return edge + oracle_matrices(field, rng)


def assert_same_typed(field, got, expected):
    assert got == expected
    for vec in (got if isinstance(got, list) else [got]):
        assert_field_typed(field, vec)


@pytest.mark.parametrize("field", [Q, PrimeField(3), PrimeField(7)], ids=repr)
def test_a_matrix_built_sparse_matches_it_built_dense(field):
    rng = random.Random(31 * (field.characteristic or 1) + 2)
    inconsistent = 0
    for m in twin_matrices(field, rng):
        s = sparse_twin(m)
        assert s._data is None
        assert s.rref() == m.rref() and s.rref(transform=False) == m.rref(transform=False)
        assert s.rank() == m.rank()
        assert_same_typed(field, kernel_basis(s), kernel_basis(m))
        if m.rows == m.cols:
            det = s.det()
            assert det == m.det() and type(det) is scalar_type(field)
            if m.is_invertible():
                assert s.inverse() == m.inverse()
            else:
                with pytest.raises(SingularMatrixError):
                    s.inverse()
        coords, ref = column_coordinates(s), column_coordinates(m)
        for b in coordinate_vectors(field, rng, m.rows, image_of=m):
            b = _native(b, field)
            x = coords(b)
            assert x == ref(b)
            if x is not None:
                assert_native(field, x)
            res, expected = (solve_linear(t, b) for t in (s, m))
            got = (res.solution, res.kernel, res.certificate)
            assert got == (expected.solution, expected.kernel, expected.certificate)
            for row in ([got[2]] if got[0] is None else [got[0]] + got[1]):
                assert_native(field, row)
            inconsistent += got[0] is None
        for v in coordinate_vectors(field, rng, m.cols):
            assert_same_typed(field, s.apply(v), m.apply(v))
        # none of the above derived the dense view of s
        assert s._data is None
        assert s == m and hash(s) == hash(m)
        assert s.data == m.data and all(type(a) is scalar_type(field)
                                        for row in s.data for a in row)
    assert inconsistent >= 5


def test_eliminations_return_their_forms_built_sparse():
    m = fpmat(F5, [[1, 2, 0], [2, 4, 1], [0, 0, 3]])
    r, _, t = m.rref()
    assert r._data is None and t._data is None
    # a dense matrix derives its sparse rows once, and keeps them
    rows = m._native_rows()
    m.rank()
    assert m._native_rows() is rows
    # an elimination leaves the rows it read unchanged
    assert rows == (({0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}, {2: 3}))
    s = Matrix.from_sparse_rows(F5, rows, 3)
    s.det()
    s.rref()
    assert rows == (({0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}, {2: 3}))


# ---------------------------------------------------------------------------
# Rational against Fraction: it reads and writes Fraction's private slots, so
# every operator is checked for the value, the type and the normal form

BIG = 2 ** 80
numerators = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-BIG, BIG))
denominators = st.one_of(st.integers(1, 12), st.integers(1, BIG))


@st.composite
def operand_pairs(draw):
    """Two operands, at least one a Rational, the other a Rational, a base
    Fraction or an int; their denominators are often equal or coprime."""
    d1 = draw(denominators)
    d2 = draw(st.one_of(st.just(d1), st.just(d1 + 1), denominators))
    x, y = (Fraction(draw(numerators), d) for d in (d1, d2))
    kinds = draw(st.sampled_from([("Q", "Q"), ("Q", "F"), ("F", "Q"), ("Q", "int"),
                                  ("int", "Q")]))

    def make(kind, v):
        if kind == "Q":
            return Q.from_fraction(v.numerator, v.denominator)
        return v if kind == "F" else v.numerator

    return make(kinds[0], x), make(kinds[1], y)


def assert_normal_rational(r, expected):
    assert type(r) is Rational and type(expected) is Fraction
    assert r == expected and expected == r
    assert hash(r) == hash(expected) and str(r) == str(expected)
    n, d = r.numerator, r.denominator
    assert type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1
    assert bool(r) == bool(expected)


def as_fraction(x):
    return Fraction(x.numerator, x.denominator)


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
def test_rational_operators_match_fraction(pair):
    x, y = pair
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and y == 0:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
        else:
            assert_normal_rational(op(x, y), op(as_fraction(x), as_fraction(y)))
    q = x if type(x) is Rational else y
    assert_normal_rational(-q, -as_fraction(q))


@settings(max_examples=200, deadline=None)
@given(numerators, st.one_of(denominators, denominators.map(operator.neg)))
def test_rationals_make_normal_rationals(n, d):
    assert_normal_rational(Q.from_fraction(n, d), Fraction(n, d))
    assert_normal_rational(Q.from_int(n), Fraction(n))
    with pytest.raises(ZeroDivisionError):
        Q.from_fraction(n, 0)
    for c in (Q.zero, Q.one, Q.random(random.Random(n))):
        assert type(c) is Rational
