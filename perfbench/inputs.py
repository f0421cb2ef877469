"""Seeded input generators for the hopfcross benchmark.

Every generator takes a `random.Random` and returns a presentation document
plus the answers known from how that document was built.  Only public
library constructors and encoders are used; the change of basis and the
cocycle twist are this file's own copies, so a change inside the library
cannot silently change what the benchmark feeds it.

Changes of basis are split in two parts.  A dense part U is fixed per job
slot (it comes from the slot's name, not from the seed), so every seed asks
for the same amount of arithmetic.  The seed picks a signed or scaled
permutation M on top, so no two inputs of a run are equal.  The document
presents the same structure in the basis given by the columns of U * M.
"""

import random

from hopfcross.algebra import FAlgebra, FBialgebra, FHopf, group_hopf_algebra
from hopfcross.cli import (
    encode_comodule_algebra,
    encode_crossed_system,
    encode_graded_algebra,
    encode_hmodule,
    encode_hopf,
    encode_lift_problem,
    encode_super_hopf,
)
from hopfcross.cohomology import (
    AugmentedAlgebra,
    HModuleStructure,
    NormalizedCochain,
    crossed_system_from_cocycle,
    differential,
)
from hopfcross.comodule import ComoduleAlgebra, crossed_product
from hopfcross.graded import GradedAlgebra
from hopfcross.groups import GroupTable
from hopfcross.linalg import Matrix, PrimeField, Rationals, basis_vec
from hopfcross.standard import dual_numbers, matrix2, monoid_bialgebra, sweedler
from hopfcross.superalg import SuperPresentation, exterior_hopf, super_tensor_product

Q = Rationals()


def field_of(name):
    """"Q" or "F<p>"."""
    return Q if name == "Q" else PrimeField(int(name[1:]))


# ---------------------------------------------------------------------------
# changes of basis


def fixed_dense(field, parity, slot, density=1.0):
    """The slot's dense parity-preserving invertible matrix.

    Entries are in -3..3; off-diagonal entries are kept with probability
    `density`.  The matrix depends only on `slot`, never on the run's seed.
    """
    rng = random.Random("dense:" + slot)
    dim = len(parity)
    while True:
        rows = [
            [
                field.from_int(rng.randrange(-3, 4))
                if parity[i] == parity[j] and (i == j or rng.random() < density)
                else field.zero
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        t = Matrix(field, rows)
        if t.is_invertible():
            return t


def monomial(field, parity, rng):
    """A seeded parity-preserving permutation times nonzero scalars.

    Over Q the scalars are +-1; over F_p any nonzero residue.
    """
    dim = len(parity)
    target = list(range(dim))
    for bit in (0, 1):
        block = [i for i in range(dim) if parity[i] == bit]
        shuffled = list(block)
        rng.shuffle(shuffled)
        for src, dst in zip(block, shuffled):
            target[src] = dst
    p = field.characteristic
    cols = []
    for i in range(dim):
        scalar = field.from_int(rng.choice((1, -1)) if p == 0 else rng.randrange(1, p))
        cols.append(tuple(scalar if j == target[i] else field.zero for j in range(dim)))
    return Matrix.from_cols(field, cols)


def transport(b, t):
    """The algebra, bialgebra or Hopf structure of `b` in the basis given by
    the columns of t."""
    f = b.field
    dim = b.dim
    tinv = t.inverse()
    product = {}
    for i in range(dim):
        for j in range(dim):
            prod = tinv.apply(b.mult(t.col(i), t.col(j)))
            product[(i, j)] = {k: c for k, c in enumerate(prod) if c}
    unit = tinv.apply(b.one())
    if isinstance(b, FAlgebra):
        return FAlgebra(f, b.basis, product, unit)
    coproduct = {}
    for i in range(dim):
        out = {}
        for (j, k), c in b.delta(t.col(i)).items():
            for x, u in enumerate(tinv.col(j)):
                if not u:
                    continue
                for y, v in enumerate(tinv.col(k)):
                    if v:
                        out[(x, y)] = out.get((x, y), f.zero) + c * u * v
        coproduct[i] = {key: c for key, c in out.items() if c}
    counit = t.transpose().apply(b.counit)
    if isinstance(b, FHopf):
        return FHopf(f, b.basis, product, unit, coproduct, counit, tinv * b.antipode * t)
    return FBialgebra(f, b.basis, product, unit, coproduct, counit)


def shuffled_group(table, rng):
    """The same group with its elements listed in a seeded order."""
    order = list(range(table.order))
    rng.shuffle(order)
    pos = {g: i for i, g in enumerate(order)}
    elements = [table.elements[g] for g in order]
    mult = [[pos[table.mult[a][b]] for b in order] for a in order]
    return GroupTable(elements, mult)


# ---------------------------------------------------------------------------
# Hopf superalgebras


def super_tensor(m, n, field=Q):
    """Lambda(m) (x) k[Z/n] as a Hopf superalgebra (Lambda(m) when n == 1)."""
    ext = exterior_hopf(m, field).presentation
    if n == 1:
        return ext
    even = group_hopf_algebra(GroupTable.cyclic(n), field)
    return super_tensor_product(ext, SuperPresentation(even, (0,) * n))


class SuperSlot:
    """Scrambles of Lambda(m) (x) k[Z/n]: fixed dense part, seeded monomial part.

    Whatever the basis, check must pass and super-decompose must find h of
    dimension n and w of dimension m.
    """

    def __init__(self, slot, m, n, density=1.0):
        base = super_tensor(m, n)
        self.parity = base.parity
        self.hopf = transport(base.hopf, fixed_dense(base.field, base.parity, slot, density))
        self.expected = {"h_dimension": n, "w_dimension": m}

    def doc(self, rng):
        moved = transport(self.hopf, monomial(self.hopf.field, self.parity, rng))
        return encode_super_hopf(SuperPresentation(moved, self.parity)), self.expected


def exterior_doc(m, rng):
    """(document, expected) for Lambda(m) under a seeded signed permutation."""
    sp = exterior_hopf(m, Q).presentation
    moved = SuperPresentation(transport(sp.hopf, monomial(Q, sp.parity, rng)), sp.parity)
    return encode_super_hopf(moved), {"h_dimension": 1, "w_dimension": m}


# ---------------------------------------------------------------------------
# group algebras: antipode and dual


def group_doc(table, field, rng, kind):
    """(document, expected) for k[G] with its elements in a seeded order.

    The antipode is g -> g^-1 and the dual is k^G (orthogonal idempotents,
    coproduct read off the multiplication table); both are read off the
    shuffled table.
    """
    g = shuffled_group(table, rng)
    n = g.order
    one = [1]  # 1 encodes the same way over Q and F_p
    expected = {
        "antipode": {"rows": n, "cols": n,
                     "entries": sorted([g.inv[j], j] + one for j in range(n))},
        "dual": {
            "product": [[i, i, i] + one for i in range(n)],
            "coproduct": sorted([g.mult[a][b], a, b] + one for a in range(n) for b in range(n)),
            "unit": [[i] + one for i in range(n)],
            "counit": [[g.identity] + one],
        },
    }
    return encode_hopf(group_hopf_algebra(g, field), kind=kind), expected


def small_corpus_docs(rng):
    """Seeded monomial variants of the small bundled Hopf, super and graded algebras.

    Returns {name: (document, bundled corpus file with the same answers)}.
    """
    out = {}
    for name, b in (
        ("kz2", group_hopf_algebra(GroupTable.cyclic(2), Q)),
        ("kz3-f3", group_hopf_algebra(GroupTable.cyclic(3), PrimeField(3))),
        ("ks3", group_hopf_algebra(GroupTable.symmetric(3), Q)),
        ("sweedler", sweedler(Q)),
    ):
        out[name] = (encode_hopf(transport(b, monomial(b.field, (0,) * b.dim, rng))),
                     name + ".json")
    b = monoid_bialgebra(Q)
    doc = encode_hopf(transport(b, monomial(Q, (0,) * b.dim, rng)), kind="bialgebra")
    out["monoid2"] = (doc, "monoid2.json")
    out["lambda3"] = (exterior_doc(3, rng)[0], "lambda3.json")
    # Z/2-graded algebras; the permutation keeps each basis vector's degree
    z2 = GroupTable.cyclic(2)
    for name, alg, degree in (("m2-z2-graded", matrix2(Q), (0, 0, 1, 1)),
                              ("kx2-graded", dual_numbers(Q), (0, 1))):
        moved = transport(alg, monomial(Q, degree, rng))
        out[name] = (encode_graded_algebra(GradedAlgebra(moved, z2, degree)), name + ".json")
    return out


# ---------------------------------------------------------------------------
# cleft extensions from cohomologous cocycles sigma + d(t)


def trivial_module(field, n):
    """H = field[Z/n] acting trivially on B+ for B = field[x]/(x^2)."""
    h = group_hopf_algebra(GroupTable.cyclic(n), field)
    aug = AugmentedAlgebra(dual_numbers(field), (field.one, field.zero))
    act = HModuleStructure(h, aug, Matrix.from_cols(field, [basis_vec(field, 1, 0)] * n))
    return h, aug, act


def regular_comodule(h):
    """H as a comodule algebra over itself through Delta."""
    f = h.field
    dh = h.dim
    cols = []
    for m in range(dh):
        v = [f.zero] * (dh * dh)
        for (p, q), c in h.delta_basis(m).items():
            v[p * dh + q] = c
        cols.append(tuple(v))
    return ComoduleAlgebra(h.as_algebra(), h, Matrix.from_cols(f, cols))


class CleftFamily:
    """B x|_sigma H for H = k[Z/n] acting trivially on B = k[x]/(x^2).

    With trivial coefficients HH^2 is the group cohomology H^2(Z/n, k),
    which is k when char k divides n and 0 otherwise; the carry cocycle
    s(g^a, g^b) = [a + b >= n] represents a generator.  A member's cocycle is
    c * carry + d(t) for a seeded t, so its class is nonzero exactly when
    the dimension is 1 and p does not divide c.  Every member is cleft by
    construction, its coinvariants are B, and its lift of id_H exists
    exactly when the class is zero.
    """

    def __init__(self, field, n):
        self.field = field
        self.h, self.aug, self.act = trivial_module(field, n)
        p = field.characteristic
        self.hh2_dimension = 1 if p and n % p == 0 else 0
        self.carry = Matrix(field, [[
            field.one if a + b >= n else field.zero for a in range(n) for b in range(n)
        ]])

    def cocycle(self, rng, c):
        """(c * carry + d(t) for a seeded t, whether its class is nonzero)."""
        f = self.field
        tcol = [f.zero] + [f.from_int(rng.randrange(-2, 3)) for _ in range(self.h.dim - 1)]
        twist = differential(NormalizedCochain(1, Matrix(f, [tcol])), self.act).matrix
        nonzero = self.hh2_dimension == 1 and c % f.characteristic != 0
        return NormalizedCochain(2, self.carry.scale(f.from_int(c)) + twist), nonzero

    def _expected(self, nonzero):
        return {"hh2_dimension": self.hh2_dimension, "nonzero_class": nonzero,
                "coinvariants": self.aug.algebra.dim}

    def _system(self, rng, c):
        s, nonzero = self.cocycle(rng, c)
        return crossed_system_from_cocycle(self.act, s), nonzero

    def crossed_system_doc(self, rng, c):
        system, nonzero = self._system(rng, c)
        return encode_crossed_system(system), self._expected(nonzero)

    def cleft_doc(self, rng, c):
        """The crossed product as an augmented comodule algebra."""
        system, nonzero = self._system(rng, c)
        h = self.h
        eps = tuple(
            self.aug.augmentation[i] * h.counit[g]
            for i in range(self.aug.algebra.dim)
            for g in range(h.dim)
        )
        doc = encode_comodule_algebra(crossed_product(system), augmentation=eps)
        return doc, self._expected(nonzero)

    def lift_doc(self, rng, c):
        """Lift id_H through the surjection eps (x) id : B x|_sigma H -> H."""
        system, nonzero = self._system(rng, c)
        f, h, aug = self.field, self.h, self.aug
        varpi = Matrix.from_cols(f, [
            tuple(aug.augmentation[i] * x for x in basis_vec(f, h.dim, g))
            for i in range(aug.algebra.dim)
            for g in range(h.dim)
        ])
        doc = encode_lift_problem(crossed_product(system), regular_comodule(h), varpi,
                                  Matrix.identity(f, h.dim))
        return doc, self._expected(nonzero)

    def hmodule_doc(self, rng, c):
        """The H-module B+ carrying a seeded cocycle."""
        s, nonzero = self.cocycle(rng, c)
        return encode_hmodule(self.act, s), self._expected(nonzero)
