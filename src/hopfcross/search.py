"""Budgeted search for invertible elements in a linear family of matrices.

Used wherever an invertible element must be found inside a linear subspace:
units of a graded component (left-multiplication matrices) and sections of
a comodule algebra (the normal-basis maps B (x) H -> A of colinear maps).
The determinant of the family is a polynomial in the coefficients;
invertible elements form its non-vanishing locus, so random evaluation
succeeds whenever any exists.  The deterministic ladder is exhausted in a
fixed order before any randomness so results are reproducible; over a
finite field small families are enumerated exhaustively, which makes a
negative answer definitive.

The determinant is homogeneous: det(l * M) = l^n det(M).  So among the
multiples {l * c} of a coefficient vector the enumeration and the -1/0/1
ladder test only the one whose first nonzero coefficient is 1.  In the
order both walk (0 before 1 before every other scalar) that member comes
first, so the first witness found is the same as with every vector tried.
"""

import random

from .linalg import Matrix


class SearchBudget:
    def __init__(self, seed=0, draws=1000, enumeration_bound=10 ** 6,
                 ladder_dim_cap=12, zero_cert_bound=4096):
        self.seed = seed
        self.draws = draws
        self.enumeration_bound = enumeration_bound
        self.ladder_dim_cap = ladder_dim_cap
        self.zero_cert_bound = zero_cert_bound


DEFAULT_BUDGET = SearchBudget()


class SearchOutcome:
    def __init__(self, coeffs, definitive, tried):
        self.coeffs = coeffs
        self.definitive = definitive
        self.tried = tried  # candidates whose determinant was evaluated

    @property
    def found(self):
        return self.coeffs is not None


def _walk(values, base, mats):
    """Yield (coeffs, rows of base + sum(c_i * mats[i])) for coeffs in
    itertools.product(values, repeat=len(mats)) order; values[0] is zero,
    base is a tuple of row tuples.

    The prefix sums S_k = base + sum_{i<k} c_i * mats[i] are kept.  When the
    odometer advances position k, the later positions return to zero, so
    S_{k+1}, ..., S_r all become S_{k+1} + (new c_k - old c_k) * mats[k]:
    one sparse matrix addition per candidate, which rebuilds only the rows
    it touches.
    """
    r = len(mats)
    last = len(values) - 1
    # the step from values[j] to values[j+1] adds diffs[j] * mats[k], which
    # touches only the nonzero entries of mats[k]
    diffs = [values[j + 1] - values[j] for j in range(last)]
    unit = [d == values[1] for d in diffs]
    support = [[(i, row, [p for p, x in enumerate(row) if x])
                for i, row in enumerate(mat.data) if any(row)] for mat in mats]
    idx = [0] * r
    sums = [base] * (r + 1)
    yield tuple(values[x] for x in idx), base
    while True:
        k = r - 1
        while k >= 0 and idx[k] == last:
            idx[k] = 0
            k -= 1
        if k < 0:
            return
        j = idx[k]
        d = diffs[j]
        s = list(sums[k + 1])
        for i, src, cols in support[k]:
            row = list(s[i])
            if unit[j]:
                for p in cols:
                    row[p] = row[p] + src[p]
            else:
                for p in cols:
                    row[p] = row[p] + d * src[p]
            s[i] = tuple(row)
        idx[k] = j + 1
        sums[k + 1:] = [s] * (r - k)
        yield tuple(values[x] for x in idx), s


def find_invertible_combination(field, mats, budget=DEFAULT_BUDGET):
    """Search for coefficients c with sum(c_i * mats[i]) invertible."""
    if not mats:
        return SearchOutcome(None, True, 0)
    m = len(mats)
    n = mats[0].rows
    zero, one = field.zero, field.one
    basis = [tuple(one if j == i else zero for j in range(m)) for i in range(m)]
    rows = [mat.data for mat in mats]
    zero_rows = Matrix.zeros(field, n, mats[0].cols).data

    def combination(coeffs):
        data = zero_rows
        for c, mat in zip(coeffs, rows):
            if c:
                data = [tuple(a + c * b for a, b in zip(u, v)) for u, v in zip(data, mat)]
        return data

    def family(values):
        # leading coefficient 1 only: (0,..,0, 1, rest) for k = m-1 down to 0
        for k in reversed(range(m)):
            for rest, data in _walk(values, rows[k], mats[k + 1:]):
                yield basis[k][:k + 1] + rest, data

    tried = 0

    def first_witness(candidates):
        nonlocal tried
        for coeffs, data in candidates:
            tried += 1
            if Matrix(field, data).det():
                return coeffs
        return None

    # exhaustive enumeration over small finite families: definitive either way
    if field.order is not None and field.order ** m <= budget.enumeration_bound:
        return SearchOutcome(first_witness(family(field.elements())), True, tried)

    # deterministic ladder: standard basis vectors first, then all -1/0/1
    # vectors for small families
    coeffs = first_witness(zip(basis, rows))
    if coeffs is None and m <= budget.ladder_dim_cap:
        coeffs = first_witness(family((zero, one, -one)))
    if coeffs is not None:
        return SearchOutcome(coeffs, True, tried)

    # certify det == 0 as a polynomial when the evaluation grid is affordable:
    # total degree <= n, so a grid of n+1 points per variable decides, and a
    # grid point where det is nonzero is itself a witness
    if (n + 1) ** m <= budget.zero_cert_bound:
        points = [field.from_int(v) for v in range(n + 1)]
        coeffs = first_witness(_walk(points, zero_rows, mats))
        return SearchOutcome(coeffs, True, tried)

    # seeded random draws
    rng = random.Random(budget.seed)
    draws = (tuple(field.random(rng) for _ in range(m)) for _ in range(budget.draws))
    coeffs = first_witness((c, combination(c)) for c in draws)
    return SearchOutcome(coeffs, coeffs is not None, tried)
