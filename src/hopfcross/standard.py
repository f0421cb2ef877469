"""Stock presentations used by the test corpus and the bundled files."""

from .algebra import FAlgebra, FBialgebra, FHopf, group_hopf_algebra
from .groups import GroupTable
from .linalg import Matrix, basis_vec


def group_algebra(field, table):
    return group_hopf_algebra(table, field)


def kz2(field):
    return group_algebra(field, GroupTable.cyclic(2))


def kz3(field):
    return group_algebra(field, GroupTable.cyclic(3))


def ks3(field):
    return group_algebra(field, GroupTable.symmetric(3))


def sweedler(field):
    """Sweedler's 4-dimensional Hopf algebra: g^2 = 1, x^2 = 0, xg = -gx."""
    o = field.one
    z = field.zero
    basis = ("1", "g", "x", "gx")
    product = {
        (0, 0): {0: o}, (0, 1): {1: o}, (0, 2): {2: o}, (0, 3): {3: o},
        (1, 0): {1: o}, (2, 0): {2: o}, (3, 0): {3: o},
        (1, 1): {0: o},
        (1, 2): {3: o},
        (1, 3): {2: o},
        (2, 1): {3: -o},
        (2, 2): {},
        (2, 3): {},
        (3, 1): {2: -o},
        (3, 2): {},
        (3, 3): {},
    }
    unit = basis_vec(field, 4, 0)
    coproduct = {
        0: {(0, 0): o},
        1: {(1, 1): o},
        2: {(2, 0): o, (1, 2): o},
        3: {(3, 1): o, (0, 3): o},
    }
    counit = (o, o, z, z)
    # S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x, one column each
    antipode = Matrix(field, [(o, z, z, z), (z, o, z, z), (z, z, z, o), (z, z, -o, z)])
    return FHopf(field, basis, product, unit, coproduct, counit, antipode)


def monoid_bialgebra(field):
    """Bialgebra on the 2-element monoid {1, e} with e idempotent; not Hopf."""
    o = field.one
    basis = ("1", "e")
    product = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}, (1, 1): {1: o}}
    unit = basis_vec(field, 2, 0)
    coproduct = {0: {(0, 0): o}, 1: {(1, 1): o}}
    counit = (o, o)
    return FBialgebra(field, basis, product, unit, coproduct, counit)


def dual_numbers(field, square=None, labels=("1", "x")):
    """k[x]/(x^2 = c) as a plain algebra (c defaults to 0)."""
    o = field.one
    c = field.zero if square is None else square
    product = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}, (1, 1): {0: c}}
    if not c:
        product[(1, 1)] = {}
    return FAlgebra(field, labels, product, basis_vec(field, 2, 0))


def matrix2(field):
    """M_2(k) on the elementary-matrix basis e11, e22, e12, e21.

    Ordered so the first two vectors span the diagonal (degree-0) part and
    the last two the antidiagonal (degree-1) part of the Z/2 grading.
    """
    o = field.one
    basis = ("e11", "e22", "e12", "e21")
    # e_ab e_cd = delta_bc e_ad
    pairs = {"e11": (0, 0), "e22": (1, 1), "e12": (0, 1), "e21": (1, 0)}
    idx = {v: k for k, v in enumerate(basis)}
    names = {v: k for k, v in pairs.items()}
    product = {}
    for li, lbl_l in enumerate(basis):
        a, b = pairs[lbl_l]
        for ri, lbl_r in enumerate(basis):
            c, d = pairs[lbl_r]
            if b == c:
                product[(li, ri)] = {idx[names[(a, d)]]: o}
            else:
                product[(li, ri)] = {}
    unit = (o, o, field.zero, field.zero)
    return FAlgebra(field, basis, product, unit)
