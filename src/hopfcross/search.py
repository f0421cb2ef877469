"""Budgeted search for invertible elements in a linear family of matrices.

Used wherever an invertible element must be found inside a linear subspace:
units of a graded component (left-multiplication matrices) and sections of
a comodule algebra (the normal-basis maps B (x) H -> A of colinear maps).
The determinant of the family is a polynomial in the coefficients;
invertible elements form its non-vanishing locus, so random evaluation
succeeds whenever any exists.  The deterministic ladder is exhausted in a
fixed order before any randomness so results are reproducible; over a
finite field small families are enumerated exhaustively, which makes a
negative answer definitive.  Coefficients are native scalars (see linalg)
from the first candidate to the returned `SearchOutcome.coeffs`.

The determinant is homogeneous: det(l * M) = l^n det(M).  So among the
multiples {l * c} of a coefficient vector the enumeration and the -1/0/1
ladder test only the one whose first nonzero coefficient is 1.  In the
order both walk, itertools.product order over scalars listed 0 before 1
before every other, that member comes first, so the first witness found is
the same as with every vector tried.

The family splits into independent blocks: two matrices share a block when
their row supports or their column supports meet.  Then
det(sum c_i M_i) = +-prod_k det(block_k), and a block that is not square, or
a row no matrix touches, makes it vanish identically: a definitive negative
without a search.  The witnesses form the Cartesian product of the blocks'
witnesses (an all-zero matrix takes any coefficient), so the first witness in
itertools.product order is the tuple of the blocks' firsts, 0 on all-zero
matrices.  The ladder's stages stay global, gated on the whole family's m
and n as before, and each stage walks the blocks one by one:
  - the F_p enumeration and the -1/0/1 stage take per-block firsts;
  - the basis vectors are skipped: with two blocks or more none is a
    witness, and they come out of product order, so per block they would
    change it;
  - the grid takes per-block firsts on the same points 0..n, and a block
    with none certifies det == 0 for the whole family;
  - where the whole family would fall to random draws, each block is
    searched on its own, with its own m and n.  Only there do answers
    change: families the draws left open may be decided.
A family of one block is searched whole, all-zero matrices included.
"""

import random

from .linalg import Matrix, _subtract, connected_components


# the ladder's limits: F_p families of at most this many candidates are
# enumerated, families of at most this many matrices walk the -1/0/1 vectors,
# and an evaluation grid of at most this many points certifies det == 0
ENUMERATION_BOUND = 10 ** 6
LADDER_DIM_CAP = 12
ZERO_CERT_BOUND = 4096


class SearchBudget:
    def __init__(self, seed=0, draws=1000):
        self.seed = seed
        self.draws = draws


DEFAULT_BUDGET = SearchBudget()


class SearchOutcome:
    def __init__(self, coeffs, definitive, tried):
        self.coeffs = coeffs  # native scalars (see linalg), one per matrix
        self.definitive = definitive
        self.tried = tried  # candidates whose determinant was evaluated

    @property
    def found(self):
        return self.coeffs is not None


def _walk(values, base, mats, p, lead=False):
    """Yield (coeffs, rows of base + sum(c_i * mats[i])) for coeffs in
    itertools.product(values, repeat=len(mats)) order; values[0] is zero,
    values[1] is one when lead is set, and values, base and the rows are
    native (see linalg) in characteristic p.  With lead, only the vectors
    whose first nonzero entry is values[1] are yielded.

    Each c adds c * mats[0] to base once, copying only the rows mats[0]
    touches, and the rest of the vector is walked on that sum, so the
    candidates sharing a prefix share its partial sum.
    """
    if not mats:
        if not lead:
            yield (), base
        return
    support = [(i, row) for i, row in enumerate(mats[0]._native_rows()) if row]
    for c in values[:2] if lead else values:
        rows = base
        if c:
            rows = list(base)
            for i, src in support:
                row = dict(rows[i])
                _subtract(row, -c, src, p)
                rows[i] = row
        for rest, out in _walk(values, rows, mats[1:], p, lead and not c):
            yield (c,) + rest, out


def _blocks(mats):
    """The independent blocks of the family as (indices, rows, cols), rows
    and cols sorted; None when a row is in no support or a block is not
    square.  All-zero matrices are in no block."""
    owner = {}  # ("r", row) or ("c", col) -> first matrix whose support has it
    supports, links = [], []
    for i, mat in enumerate(mats):
        native = mat._native_rows()
        rows = {r for r, row in enumerate(native) if row}
        cols = set().union(*native)
        supports.append((rows, cols))
        for line in [("r", r) for r in rows] + [("c", c) for c in cols]:
            links.append((owner.setdefault(line, i), i))
    blocks = []
    for idx in connected_components(len(mats), links):
        rows = set().union(*(supports[i][0] for i in idx))
        if rows:  # an all-zero matrix is a class of its own
            cols = set().union(*(supports[i][1] for i in idx))
            blocks.append((idx, sorted(rows), sorted(cols)))
    if (sum(len(rs) for _, rs, _ in blocks) < mats[0].rows
            or any(len(rs) != len(cs) for _, rs, cs in blocks)):
        return None
    return blocks


def find_invertible_combination(field, mats, budget=DEFAULT_BUDGET):
    """Search for coefficients c with sum(c_i * mats[i]) invertible, walking
    native scalars (see linalg) on the sparse rows and returning them."""
    if not mats:
        return SearchOutcome(None, True, 0)
    blocks = _blocks(mats)
    if blocks is None:
        return SearchOutcome(None, True, 0)
    m = len(mats)
    n = mats[0].rows
    p = field.characteristic
    native = (lambda c: c.value) if p else (lambda c: c)
    zero, one, minus_one = (native(c) for c in (field.zero, field.one, -field.one))
    if len(blocks) < 2:
        parts = [(range(m), mats)]
    else:
        parts = [(idx, [Matrix.from_sparse_rows(field, [{cols.index(c): a for c, a in
                                                         mats[i]._native_rows()[r].items()}
                                                        for r in rows], len(cols)) for i in idx])
                 for idx, rows, cols in blocks]
    tried = 0

    def first_witness(candidates):
        nonlocal tried
        for coeffs, rows in candidates:
            tried += 1
            if Matrix.from_sparse_rows(field, rows, len(rows)).det():
                return coeffs
        return None

    def per_block(values, lead=False):
        # the tuple of the blocks' first witnesses in the walk over values
        # (see _walk), None if a block has none
        coeffs = [zero] * m
        for idx, sub in parts:
            found = first_witness(_walk(values, ({},) * sub[0].rows, sub, p, lead))
            if found is None:
                return None
            for i, c in zip(idx, found):
                coeffs[i] = c
        return tuple(coeffs)

    # exhaustive enumeration over small finite families: definitive either way
    if field.order is not None and field.order ** m <= ENUMERATION_BOUND:
        values = [native(c) for c in field.elements()]
        return SearchOutcome(per_block(values, True), True, tried)

    # deterministic ladder: standard basis vectors first (a witness only for
    # one block), then all -1/0/1 vectors for small families
    coeffs = None
    if len(parts) == 1:
        basis = [tuple(one if j == i else zero for j in range(m)) for i in range(m)]
        coeffs = first_witness(zip(basis, (mat._native_rows() for mat in mats)))
    if coeffs is None and m <= LADDER_DIM_CAP:
        coeffs = per_block((zero, one, minus_one), True)
    if coeffs is not None:
        return SearchOutcome(coeffs, True, tried)

    # certify det == 0 as a polynomial when the evaluation grid is affordable:
    # total degree <= n, so a grid of n+1 points per variable decides, and a
    # grid point where det is nonzero is itself a witness
    if (n + 1) ** m <= ZERO_CERT_BOUND:
        points = [native(field.from_int(v)) for v in range(n + 1)]
        return SearchOutcome(per_block(points), True, tried)

    if len(parts) > 1:
        # each block searched on its own, with its own m and n
        coeffs, definitive = [zero] * m, True
        for idx, sub in parts:
            outcome = find_invertible_combination(field, sub, budget)
            tried += outcome.tried
            if outcome.found:
                for i, c in zip(idx, outcome.coeffs):
                    coeffs[i] = c
            elif outcome.definitive:
                return SearchOutcome(None, True, tried)
            else:
                definitive = False
        return SearchOutcome(tuple(coeffs) if definitive else None, definitive, tried)

    # seeded random draws
    rows = [mat._native_rows() for mat in mats]

    def combination(coeffs):
        out = [{} for _ in range(n)]
        for c, mat in zip(coeffs, rows):
            if c:
                for i, row in enumerate(mat):
                    _subtract(out[i], -c, row, p)
        return out

    rng = random.Random(budget.seed)
    draws = (tuple(native(field.random(rng)) for _ in range(m)) for _ in range(budget.draws))
    coeffs = first_witness((c, combination(c)) for c in draws)
    return SearchOutcome(coeffs, coeffs is not None, tried)
