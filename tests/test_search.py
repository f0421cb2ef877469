"""find_invertible_combination against a brute-force oracle.

The oracle walks the same ladder as the search (enumeration over a small
finite field, else standard basis vectors, -1/0/1 vectors, the evaluation
grid and seeded random draws), but it tries every coefficient vector and
builds each sum(c_i * M_i) from scratch before taking its determinant.
"""

import itertools
import random

import pytest

from hopfcross.linalg import Matrix, PrimeField, Rationals
from hopfcross.search import SearchBudget, find_invertible_combination

Q = Rationals()
FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5), "Q": Q}
SMALL = SearchBudget(draws=40)


def combine(field, mats, coeffs):
    n, cols = mats[0].rows, mats[0].cols
    return Matrix(field, [[sum((c * mat.data[i][j] for c, mat in zip(coeffs, mats)), field.zero)
                           for j in range(cols)] for i in range(n)])


def oracle(field, mats, budget):
    """(coeffs, definitive) of the first witness in the search's order."""
    m, n = len(mats), mats[0].rows

    def first(candidates):
        return next((c for c in candidates if combine(field, mats, c).det()), None)

    def nonzero(values):
        return (c for c in itertools.product(values, repeat=m) if any(c))

    if field.order is not None and field.order ** m <= budget.enumeration_bound:
        return first(nonzero(field.elements())), True
    ladder = [tuple(field.one if j == i else field.zero for j in range(m)) for i in range(m)]
    if m <= budget.ladder_dim_cap:
        ladder = itertools.chain(ladder, nonzero((field.zero, field.one, -field.one)))
    found = first(ladder)
    if found is not None:
        return found, True
    if (n + 1) ** m <= budget.zero_cert_bound:
        points = [field.from_int(v) for v in range(n + 1)]
        return first(itertools.product(points, repeat=m)), True
    rng = random.Random(budget.seed)
    found = first(tuple(field.random(rng) for _ in range(m)) for _ in range(budget.draws))
    return found, found is not None


def random_matrix(field, rng, n, rank=None):
    """A random n x n matrix; of rank at most `rank` when it is given."""
    k = n if rank is None else rank
    left = [[field.from_int(rng.randrange(-2, 3)) for _ in range(k)] for _ in range(n)]
    right = [[field.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(k)]
    return Matrix(field, left) * Matrix(field, right) if k else Matrix.zeros(field, n, n)


def family(field, kind, m, rng, n=3):
    if kind == "full-rank":
        mats = []
        while len(mats) < m:
            mat = random_matrix(field, rng, n)
            if mat.det():
                mats.append(mat)
        return mats
    if kind == "rank-deficient":
        return [random_matrix(field, rng, n, rank=1 + i % (n - 1)) for i in range(m)]
    # all singular: every M_i kills the last column of an invertible Q
    while True:
        q = random_matrix(field, rng, n)
        if q.det():
            break
    kill = Matrix(field, [[field.one if i == j < n - 1 else field.zero for j in range(n)]
                          for i in range(n)])
    return [random_matrix(field, rng, n) * kill * q.inverse() for _ in range(m)]


def check_against_oracle(field, mats, budget, dets=None):
    """The search's outcome, checked against the oracle; with a det counter,
    also check that `tried` counts the determinants the search took."""
    outcome = find_invertible_combination(field, mats, budget)
    if dets is not None:
        assert outcome.tried == len(dets)
    assert (outcome.coeffs, outcome.definitive) == oracle(field, mats, budget)
    return outcome


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "all-singular"])
@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_first_witness_matches_the_oracle(fname, m, kind):
    field = FIELDS[fname]
    rng = random.Random("%s-%d-%s" % (fname, m, kind))
    outcome = check_against_oracle(field, family(field, kind, m, rng), SMALL)
    if kind == "full-rank":
        assert outcome.found
    if kind == "all-singular":
        assert not outcome.found and outcome.definitive


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "all-singular"])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_first_witness_on_the_f5_ladder_matches_the_oracle(m, kind):
    # an enumeration bound of 1 sends F5 up the ladder, as Q goes
    field = FIELDS["F5"]
    rng = random.Random("F5-ladder-%d-%s" % (m, kind))
    check_against_oracle(field, family(field, kind, m, rng),
                         SearchBudget(draws=40, enumeration_bound=1))


def diagonal(field, *entries):
    n = len(entries)
    return Matrix(field, [[field.from_int(entries[i]) if i == j else field.zero
                           for j in range(n)] for i in range(n)])


def hidden_from_the_ladder(field, m):
    """det = c1 c2 (c1 - c2)(c1 + c2): zero on every -1/0/1 vector, not zero."""
    mats = [diagonal(field, 1, 0, 1, 1), diagonal(field, 0, 1, -1, 1)]
    return mats + [Matrix.zeros(field, 4, 4)] * (m - 2)


def count_dets(monkeypatch):
    calls = []
    det = Matrix.det

    def counted(self):
        calls.append(1)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counted)
    return calls


@pytest.mark.parametrize("fname", ["Q", "F5"])
def test_the_grid_finds_what_the_ladder_misses(fname, monkeypatch):
    field = FIELDS[fname]
    budget = SearchBudget(enumeration_bound=1)
    dets = count_dets(monkeypatch)
    outcome = check_against_oracle(field, hidden_from_the_ladder(field, 2), budget, dets)
    assert outcome.coeffs == (field.one, field.from_int(2)) and outcome.definitive
    # 2 basis vectors, the 4 of 8 nonzero -1/0/1 vectors that lead with 1,
    # and the grid points (0,0)..(0,4), (1,0), (1,1), (1,2)
    assert outcome.tried == 2 + 4 + 8


def test_the_grid_certifies_an_all_singular_family(monkeypatch):
    dets = count_dets(monkeypatch)
    outcome = check_against_oracle(Q, [Matrix.zeros(Q, 2, 2)] * 2, SMALL, dets)
    assert not outcome.found and outcome.definitive
    assert outcome.tried == 2 + 4 + 9


def test_random_draws_find_what_the_grid_cannot_afford(monkeypatch):
    # (4 + 1) ** 6 grid points exceed the certificate bound
    dets = count_dets(monkeypatch)
    outcome = check_against_oracle(Q, hidden_from_the_ladder(Q, 6), SMALL, dets)
    assert outcome.found and outcome.definitive


def test_random_draws_leave_an_all_singular_family_open():
    outcome = check_against_oracle(Q, [Matrix.zeros(Q, 4, 4)] * 6, SMALL)
    assert not outcome.found and not outcome.definitive
    assert outcome.tried == 6 + (3 ** 6 - 1) // 2 + SMALL.draws
