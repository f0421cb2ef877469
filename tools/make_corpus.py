"""Regenerate the bundled example corpus under src/hopfcross/corpus/.

Every file is written with sorted keys so regeneration is reproducible.
"""

import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hopfcross.algebra import (
    ComoduleCoalgebraData,
    FCoalgebra,
    group_hopf_algebra,
    ti,
)
from hopfcross.cli import (
    _field_to_json,
    _sparse3_to_json,
    _vector_to_json,
    encode_algebra,
    encode_comodule_algebra,
    encode_comodule_coalgebra,
    encode_crossed_system,
    encode_graded_algebra,
    encode_hmodule,
    encode_hopf,
    encode_lift_problem,
    encode_super_hopf,
    FORMAT_VERSION,
)
from hopfcross.cohomology import (
    AugmentedAlgebra,
    HModuleStructure,
    NormalizedCochain,
    crossed_system_from_cocycle,
    hh2,
)
from hopfcross.comodule import ComoduleAlgebra, crossed_product
from hopfcross.graded import GradedAlgebra
from hopfcross.groups import GroupTable
from hopfcross.linalg import Matrix, PrimeField, Rationals, basis_vec
from hopfcross.standard import (
    dual_numbers,
    kz2,
    kz3,
    ks3,
    matrix2,
    monoid_bialgebra,
    sweedler,
)
from hopfcross.superalg import SuperPresentation, exterior_hopf, super_tensor_product

Q = Rationals()
F3 = PrimeField(3)

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")


def write(name, doc):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote", name)


def bialgebra_doc(b):
    doc = encode_algebra(b.as_algebra())
    doc["kind"] = "bialgebra"
    doc["coproduct"] = _sparse3_to_json(b.field, b.as_coalgebra())
    doc["counit"] = _vector_to_json(b.field, b.counit)
    return doc


def trivial_hmodule(field, n):
    """H = field[Z/n] acting trivially on B+ for B = field[x]/(x^2)."""
    h = group_hopf_algebra(GroupTable.cyclic(n), field)
    aug = AugmentedAlgebra(dual_numbers(field), (field.one, field.zero))
    act = HModuleStructure(
        h, aug, Matrix.from_cols(field, [basis_vec(field, 1, 0)] * n)
    )
    return h, aug, act


def counit_times_identity(aug, h):
    f = h.field
    cols = []
    for i in range(aug.algebra.dim):
        for g in range(h.dim):
            cols.append(tuple(aug.augmentation[i] * c for c in basis_vec(f, h.dim, g)))
    return Matrix.from_cols(f, cols)


def regular_comodule(h):
    f = h.field
    dh = h.dim
    cols = []
    for m in range(dh):
        v = [f.zero] * (dh * dh)
        for (p, q), c in h.delta_basis(m).items():
            v[ti(p, q, dh)] = c
        cols.append(tuple(v))
    return ComoduleAlgebra(h.as_algebra(), h, Matrix.from_cols(f, cols))


def scramble(sp, seed):
    """Transport the structure through a random parity-preserving change of
    basis; the result presents the same Hopf superalgebra."""
    h = sp.hopf
    f = h.field
    dim = h.dim
    rng = random.Random(seed)
    while True:
        cols = []
        for i in range(dim):
            col = [
                f.from_int(rng.randrange(-3, 4)) if sp.parity[j] == sp.parity[i] else f.zero
                for j in range(dim)
            ]
            cols.append(tuple(col))
        t = Matrix.from_cols(f, cols)
        if t.is_invertible():
            break
    tinv = t.inverse()
    product = {}
    for i in range(dim):
        for j in range(dim):
            prod = tinv.apply(h.mult(t.col(i), t.col(j)))
            product[(i, j)] = {k: c for k, c in enumerate(prod) if c}
    unit = tinv.apply(h.one())
    coproduct = {}
    for i in range(dim):
        out = {}
        for (j, k), c in h.delta(t.col(i)).items():
            for x, u in enumerate(tinv.col(j)):
                for y, v in enumerate(tinv.col(k)):
                    w = c * u * v
                    if w:
                        out[(x, y)] = out.get((x, y), f.zero) + w
        coproduct[i] = {k: c for k, c in out.items() if c}
    counit = t.transpose().apply(h.counit)
    antipode = tinv * h.antipode * t
    from hopfcross.algebra import FHopf

    scrambled = FHopf(f, h.basis, product, unit, coproduct, counit, antipode)
    return SuperPresentation(scrambled, sp.parity)


def main():
    os.makedirs(OUT, exist_ok=True)

    write("kz2.json", encode_hopf(kz2(Q)))
    write("kz3-f3.json", encode_hopf(group_hopf_algebra(GroupTable.cyclic(3), F3)))
    write("ks3.json", encode_hopf(ks3(Q)))
    write("sweedler.json", encode_hopf(sweedler(Q)))
    write("monoid2.json", bialgebra_doc(monoid_bialgebra(Q)))

    z2 = GroupTable.cyclic(2)
    # M2(k): diagonal part in degree 0, antidiagonal part in degree 1
    write("m2-z2-graded.json",
          encode_graded_algebra(GradedAlgebra(matrix2(Q), z2, (0, 0, 1, 1))))
    # k[x]/(x^2) with x in degree 1: graded but not strongly graded
    write("kx2-graded.json",
          encode_graded_algebra(GradedAlgebra(dual_numbers(Q), z2, (0, 1))))

    # crossed system from the nonzero HH^2 class of F3[Z/3] on k[x]/(x^2)
    h3, aug3, act3 = trivial_hmodule(F3, 3)
    rep = hh2(h3, act3).representative_cochains()[0]
    system = crossed_system_from_cocycle(act3, rep)
    write("f3z3-crossed.json", encode_crossed_system(system))
    write("f3z3-hmodule.json", encode_hmodule(act3, rep))

    hq, augq, actq = trivial_hmodule(Q, 3)
    write("qz3-hmodule.json", encode_hmodule(actq))

    # the crossed product as an augmented comodule algebra (cleft by design)
    cp = crossed_product(system)
    eps = []
    for i in range(aug3.algebra.dim):
        for g in range(h3.dim):
            eps.append(aug3.augmentation[i] * h3.counit[g])
    write("f3z3-cleft.json", encode_comodule_algebra(cp, augmentation=tuple(eps)))

    # lift problems: B x|_0 H -> H splits over Q; the F3 cocycle obstructs
    h2 = group_hopf_algebra(GroupTable.cyclic(2), Q)
    aug2 = AugmentedAlgebra(dual_numbers(Q), (Q.one, Q.zero))
    act2 = HModuleStructure(h2, aug2, Matrix.from_cols(Q, [basis_vec(Q, 1, 0)] * 2))
    zero = NormalizedCochain(2, Matrix.zeros(Q, 1, 4))
    cp2 = crossed_product(crossed_system_from_cocycle(act2, zero))
    write("lift-split.json", encode_lift_problem(
        cp2, regular_comodule(h2),
        counit_times_identity(aug2, h2), Matrix.identity(Q, 2),
    ))
    write("lift-obstructed.json", encode_lift_problem(
        cp, regular_comodule(h3),
        counit_times_identity(aug3, h3), Matrix.identity(F3, 3),
    ))

    # comodule coalgebra: dual of k[x]/(x^2) graded over Z/2 by deg(c_i) = g^i
    hz2 = kz2(Q)
    d = FCoalgebra(
        Q,
        ("c0", "c1"),
        {0: {(0, 0): Q.one}, 1: {(0, 1): Q.one, (1, 0): Q.one}},
        (Q.one, Q.zero),
    )
    cols = []
    for i in range(2):
        v = [Q.zero] * 4
        v[ti(i, i, 2)] = Q.one
        cols.append(tuple(v))
    write("smash-example.json", encode_comodule_coalgebra(
        ComoduleCoalgebraData(d, hz2, Matrix.from_cols(Q, cols))
    ))

    # super examples: Lambda(3), and a scrambled Lambda(2) (x) kZ/2
    write("lambda3.json", encode_super_hopf(exterior_hopf(3, Q).presentation))
    tensor = super_tensor_product(
        exterior_hopf(2, Q).presentation,
        SuperPresentation(kz2(Q), (0, 0)),
    )
    write("super-scrambled.json", encode_super_hopf(scramble(tensor, seed=7)))


if __name__ == "__main__":
    main()
