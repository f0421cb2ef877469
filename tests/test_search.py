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
from hopfcross import search
from hopfcross.search import SearchBudget, _blocks, find_invertible_combination
from tests.test_linalg import fpmat as matrix

Q = Rationals()
FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5), "Q": Q}
SMALL = SearchBudget(draws=40)


def native(field, coeffs):
    """Field-scalar coefficients as the native scalars the search returns."""
    return tuple(c.value for c in coeffs) if field.characteristic and coeffs else coeffs


def combine(field, mats, coeffs):
    """sum(c_i * mats[i]) for field-scalar or native coefficients."""
    coeffs = [field.from_int(c) if type(c) is int else c for c in coeffs]
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

    if field.order is not None and field.order ** m <= search.ENUMERATION_BOUND:
        return first(nonzero(field.elements())), True
    ladder = [tuple(field.one if j == i else field.zero for j in range(m)) for i in range(m)]
    if m <= search.LADDER_DIM_CAP:
        ladder = itertools.chain(ladder, nonzero((field.zero, field.one, -field.one)))
    found = first(ladder)
    if found is not None:
        return found, True
    if (n + 1) ** m <= search.ZERO_CERT_BOUND:
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
    coeffs, definitive = oracle(field, mats, budget)
    assert (outcome.coeffs, outcome.definitive) == (native(field, coeffs), definitive)
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
def test_first_witness_on_the_f5_ladder_matches_the_oracle(m, kind, monkeypatch):
    # an enumeration bound of 1 sends F5 up the ladder, as Q goes
    monkeypatch.setattr(search, "ENUMERATION_BOUND", 1)
    field = FIELDS["F5"]
    rng = random.Random("F5-ladder-%d-%s" % (m, kind))
    check_against_oracle(field, family(field, kind, m, rng), SMALL)


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
    monkeypatch.setattr(search, "ENUMERATION_BOUND", 1)
    dets = count_dets(monkeypatch)
    outcome = check_against_oracle(field, hidden_from_the_ladder(field, 2), SearchBudget(), dets)
    assert outcome.coeffs == native(field, (field.one, field.from_int(2))) and outcome.definitive
    # 2 basis vectors, the 4 of 8 nonzero -1/0/1 vectors that lead with 1,
    # and the grid points (0,0)..(0,4), (1,0), (1,1), (1,2)
    assert outcome.tried == 2 + 4 + 8


def test_the_grid_certifies_an_all_singular_family(monkeypatch):
    # one block: det(c1 M1 + c2 M2) = (c1 + 2 c2)(c1 - c2) - (same) = 0
    mats = [matrix(Q, [[1, 1], [1, 1]]), matrix(Q, [[2, 2], [-1, -1]])]
    dets = count_dets(monkeypatch)
    outcome = check_against_oracle(Q, mats, SMALL, dets)
    assert not outcome.found and outcome.definitive
    assert outcome.tried == 2 + 4 + 9


def test_random_draws_find_what_the_grid_cannot_afford(monkeypatch):
    # (4 + 1) ** 6 grid points exceed the certificate bound
    dets = count_dets(monkeypatch)
    outcome = check_against_oracle(Q, hidden_from_the_ladder(Q, 6), SMALL, dets)
    assert outcome.found and outcome.definitive


def test_random_draws_leave_an_all_singular_family_open():
    mats = family(Q, "all-singular", 6, random.Random("draws-open"), n=4)
    outcome = check_against_oracle(Q, mats, SMALL)
    assert not outcome.found and not outcome.definitive
    assert outcome.tried == 6 + (3 ** 6 - 1) // 2 + SMALL.draws


def test_zero_families_are_definitive_negatives_without_a_search(monkeypatch):
    dets = count_dets(monkeypatch)
    for mats in ([Matrix.zeros(Q, 2, 2)] * 2, [Matrix.zeros(Q, 4, 4)] * 6):
        outcome = find_invertible_combination(Q, mats, SMALL)
        assert (outcome.coeffs, outcome.definitive, outcome.tried) == (None, True, 0)
    assert not dets


# families that split into independent blocks


def block_family(field, rng):
    """Two or three blocks of one to three rows, each a small family() of
    its own kind, embedded block-diagonally under seeded row and column
    permutations, the matrices shuffled, sometimes with an all-zero one."""
    blocks = []
    for k in range(rng.choice([2, 3])):
        n = rng.choice([1, 2, 3])
        kind = rng.choice(["full-rank"] * 3 + ["rank-deficient"] * (n > 1) + ["all-singular"])
        blocks.append((n, family(field, kind, rng.choice([1, 2]) if k < 2 else 1, rng, n=n)))
    size = sum(n for n, _ in blocks)
    rows, cols = list(range(size)), list(range(size))
    rng.shuffle(rows)
    rng.shuffle(cols)
    mats, offset = [], 0
    for n, block in blocks:
        for mat in block:
            data = [[field.zero] * size for _ in range(size)]
            for i in range(n):
                for j in range(n):
                    data[rows[offset + i]][cols[offset + j]] = mat.data[i][j]
            mats.append(Matrix(field, data))
        offset += n
    if len(mats) < 5:
        mats += [Matrix.zeros(field, size, size)] * rng.choice([0, 0, 1])
    rng.shuffle(mats)
    return mats


SPLIT_CASES = [(fname, None) for fname in sorted(FIELDS)] + [("F5", 1)]


@pytest.mark.parametrize("fname,enumeration_bound", SPLIT_CASES)
def test_split_families_keep_the_first_witness(fname, enumeration_bound, monkeypatch):
    # where the whole-family oracle decides, the split search gives its
    # answer; elsewhere (the draws) a witness it gives must be one
    field = FIELDS[fname]
    monkeypatch.setattr(search, "ZERO_CERT_BOUND", 1000)
    if enumeration_bound is not None:
        monkeypatch.setattr(search, "ENUMERATION_BOUND", enumeration_bound)
    rng = random.Random("split-%s-%s" % (fname, enumeration_bound))
    compared = 0
    for _ in range(40):
        mats = block_family(field, rng)
        outcome = find_invertible_combination(field, mats, SMALL)
        coeffs, definitive = oracle(field, mats, SMALL)
        if definitive:
            assert (outcome.coeffs, outcome.definitive) == (native(field, coeffs), definitive)
            compared += 1
        elif outcome.found:
            assert combine(field, mats, outcome.coeffs).det()
    assert compared >= 20


@pytest.mark.parametrize("fname", ["F2", "Q"])
def test_basis_vectors_stay_out_of_a_split_search(fname):
    # the whole family's ladder tries (1,0,0) only after (0,1,1); the
    # standard basis vectors, tried per block, would give (1,0,1)
    field = FIELDS[fname]
    mats = [diagonal(field, 1, 1, 0), matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
            diagonal(field, 0, 0, 1)]
    expected = tuple(field.from_int(c) for c in (0, 1, 1))
    assert oracle(field, mats, SMALL) == (expected, True)
    assert check_against_oracle(field, mats, SMALL).coeffs == native(field, expected)


@pytest.mark.parametrize("fname", ["F2", "Q"])
def test_an_all_zero_matrix_beside_two_blocks_gets_zero(fname):
    field = FIELDS[fname]
    mats = [diagonal(field, 1, 0), Matrix.zeros(field, 2, 2), diagonal(field, 0, 1)]
    outcome = check_against_oracle(field, mats, SMALL)
    assert outcome.coeffs == native(field, (field.one, field.zero, field.one))


def test_a_block_left_open_leaves_the_family_open(monkeypatch):
    # two blocks, each [[c1, c1], [c2, 0]] with det -c1 c2: with the ladder,
    # the grid and the draws switched off, each block is searched on its own
    # and tries only its two singular basis vectors, so neither is decided
    monkeypatch.setattr(search, "LADDER_DIM_CAP", 0)
    monkeypatch.setattr(search, "ZERO_CERT_BOUND", 0)
    mats = [matrix(Q, [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
            matrix(Q, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
            matrix(Q, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]]),
            matrix(Q, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])]
    assert len(_blocks(mats)) == 2
    outcome = check_against_oracle(Q, mats, SearchBudget(draws=0))
    assert (outcome.coeffs, outcome.definitive, outcome.tried) == (None, False, 4)


@pytest.mark.parametrize("mats", [
    # blocks of 2 x 1 and 1 x 2
    [matrix(Q, [[1, 0, 0], [1, 0, 0], [0, 0, 0]]), matrix(Q, [[0, 0, 0], [0, 0, 0], [0, 1, 1]])],
    # row 1 is in no support
    [matrix(Q, [[1, 0], [0, 0]]), matrix(Q, [[0, 1], [0, 0]])],
], ids=["non-square-block", "untouched-row"])
def test_a_shape_that_forces_det_zero_is_decided_without_a_search(mats, monkeypatch):
    dets = count_dets(monkeypatch)
    outcome = find_invertible_combination(Q, mats, SMALL)
    assert (outcome.coeffs, outcome.definitive, outcome.tried) == (None, True, 0)
    assert not dets
    assert oracle(Q, mats, SMALL) == (None, True)


def ref_blocks(mats):
    """search._blocks before it shared linalg.connected_components: its own
    union-find over the matrices."""
    parent = list(range(len(mats)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    supports = []
    for i, mat in enumerate(mats):
        rows = {r for r, row in enumerate(mat.data) if any(row)}
        cols = {c for row in mat.data for c, x in enumerate(row) if x}
        supports.append((rows, cols))
        for line in [("r", r) for r in rows] + [("c", c) for c in cols]:
            parent[root(owner.setdefault(line, i))] = root(i)
    blocks = {}
    for i, (rows, cols) in enumerate(supports):
        if rows:
            idx, rs, cs = blocks.setdefault(root(i), ([], set(), set()))
            idx.append(i)
            rs |= rows
            cs |= cols
    if (sum(len(rs) for _, rs, _ in blocks.values()) < mats[0].rows
            or any(len(rs) != len(cs) for _, rs, cs in blocks.values())):
        return None
    return [(idx, sorted(rs), sorted(cs)) for idx, rs, cs in blocks.values()]


def test_blocks_match_their_own_union_find():
    families = []
    for fname, field in sorted(FIELDS.items()):
        for kind in ["full-rank", "rank-deficient", "all-singular"]:
            for m in range(1, 7):
                rng = random.Random("%s-%d-%s" % (fname, m, kind))
                families.append(family(field, kind, m, rng))
        rng = random.Random("split-%s-None" % fname)
        families += [block_family(field, rng) for _ in range(40)]
        families += [[diagonal(field, 1, 0), Matrix.zeros(field, 2, 2), diagonal(field, 0, 1)],
                     [diagonal(field, 1, 1, 0), matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
                      diagonal(field, 0, 0, 1)],
                     [Matrix.zeros(field, 4, 4)] * 6,
                     [matrix(field, [[1, 0], [0, 0]]), matrix(field, [[0, 1], [0, 0]])]]
    shapes = set()
    for mats in families:
        blocks = _blocks(mats)
        assert blocks == ref_blocks(mats)
        shapes.add(0 if blocks is None else min(len(blocks), 2))
    assert shapes == {0, 1, 2}  # refused, whole and split families
