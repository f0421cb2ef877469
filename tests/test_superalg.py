"""Koszul-sign arithmetic, exterior Hopf superalgebras, the duality pairing,
even quotients, odd cotangents/primitives, and the tensor decomposition."""

import copy
import itertools
import json
import random
from functools import cached_property

import pytest

import hopfcross.algebra
import hopfcross.superalg
from hopfcross.algebra import (
    MAX_VIOLATIONS,
    FAlgebra,
    FHopf,
    _bialgebra_laws,
    _lowered,
    _lowering,
    check_axioms,
    dual_structure,
    group_hopf_algebra,
    induced_algebra,
)
from hopfcross.cli import MAX_PAIRING_N, encode_super_hopf, main
from hopfcross.cohomology import ideal_power_chain
from hopfcross.errors import (
    CharacteristicTwoError,
    KernelNotNilpotentError,
    NotSuperCommutativeError,
    ValidationError,
)
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    Matrix,
    PrimeField,
    QuotientSpace,
    Rationals,
    _basis_row,
    _dense_vec,
    _native,
    basis_vec,
    row_space_basis,
)
from hopfcross.superalg import (
    ExteriorHopf,
    SuperPresentation,
    SuperVectorSpace,
    _super_tensor_violations,
    decompose,
    duality_pairing,
    even_quotient,
    exterior_hopf,
    odd_primitives,
    super_tensor_product,
)
from tests.oracles import evaluate, is_cocommutative, is_commutative, vscale
from tests.test_algebra import ref_induced_coproduct, ref_mult
from tests.test_linalg import (
    RefQuotientSpace,
    dense_rref,
    ref_in_span,
    ref_row_space_basis,
)

Q = Rationals()
F5 = PrimeField(5)


def even_presentation(hopf):
    return SuperPresentation(hopf, (0,) * hopf.dim)


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
                    if u and v:
                        key = (x, y)
                        out[key] = out.get(key, f.zero) + c * u * v
        coproduct[i] = {k: v for k, v in out.items() if v}
    counit = tuple(evaluate(f, h.counit, t.col(i)) for i in range(dim))
    antipode = tinv * h.antipode * t
    labels = tuple("a%d" % i for i in range(dim))
    return SuperPresentation(
        FHopf(f, labels, product, unit, coproduct, counit, antipode), sp.parity
    )


# ---------------------------------------------------------------------------
# tensor products


def test_characteristic_two_rejected():
    f2 = PrimeField(2)
    with pytest.raises(CharacteristicTwoError):
        even_presentation(group_hopf_algebra(GroupTable.cyclic(2), f2))
    with pytest.raises(CharacteristicTwoError):
        exterior_hopf(1, f2)


def test_tensor_of_purely_even_is_plain():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    tp = super_tensor_product(even_presentation(h), even_presentation(h))
    assert tp.is_super_commutative()
    assert all(p == 0 for p in tp.parity)


RIGHT_FACTORS = [pytest.param(m, lambda f, n=n: even_presentation(
    group_hopf_algebra(GroupTable.cyclic(n), f)), id="L%d-Z%d" % (m, n))
    for m in (1, 2, 3) for n in (1, 2, 3)] + [
    pytest.param(m, lambda f: exterior_hopf(1, f).presentation, id="L%d-L1" % m) for m in (1, 2)]


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5, PrimeField(7)],
                         ids=["Q", "F3", "F5", "F7"])
@pytest.mark.parametrize("m, right", RIGHT_FACTORS)
def test_super_tensor_products_pass_the_super_axioms(field, m, right):
    # super_tensor_product does not check what it builds: the Koszul signs
    # of its product and coproduct are checked here, on Lambda(m) (x) k[Z/n]
    # and, where both factors have odd elements, on Lambda(m) (x) Lambda(1)
    tp = super_tensor_product(exterior_hopf(m, field).presentation, right(field))
    assert tp.check_super_axioms() == []


def test_exterior_tensor_is_bigger_exterior():
    # Lambda(v) (x) Lambda(w) ~ Lambda(v, w) via v (x) 1 and 1 (x) w
    e1 = exterior_hopf(1, Q)
    tp = super_tensor_product(e1.presentation, e1.presentation)
    e2 = exterior_hopf(2, Q)
    # the iso maps the subset basis {1, v1, v2, v1^v2} to
    # {1(x)1, v(x)1, 1(x)w, v(x)w}
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    cols = [basis_vec(Q, 4, perm[i]) for i in range(4)]
    m = Matrix.from_cols(Q, cols)
    for i in range(4):
        for j in range(4):
            lhs = m.apply(e2.hopf.mult(basis_vec(Q, 4, i), basis_vec(Q, 4, j)))
            rhs = tp.hopf.mult(m.col(i), m.col(j))
            assert lhs == rhs
    # the Koszul sign shows up: (1 (x) w)(v (x) 1) = -(v (x) w)
    one_w = m.col(e2.index[(2,)])
    v_one = m.col(e2.index[(1,)])
    v_w = m.col(e2.index[(1, 2)])
    assert tp.hopf.mult(one_w, v_one) == tuple(-c for c in v_w)


# ---------------------------------------------------------------------------
# exterior Hopf superalgebras


def test_exterior_dims():
    for n in range(6):
        assert exterior_hopf(n, Q).dim == 2 ** n


def test_exterior_n1_primitive():
    ext = exterior_hopf(1, Q)
    assert ext.hopf.mult_basis(1, 1) == {}
    assert ext.hopf.delta_basis(1) == {(0, 1): Q.one, (1, 0): Q.one}


def test_exterior_n2_coproduct_signs():
    ext = exterior_hopf(2, Q)
    i12 = ext.index[(1, 2)]
    i1, i2, i0 = ext.index[(1,)], ext.index[(2,)], ext.index[()]
    assert ext.hopf.delta_basis(i12) == {
        (i12, i0): Q.one,
        (i1, i2): Q.one,
        (i2, i1): -Q.one,
        (i0, i12): Q.one,
    }


def test_exterior_axioms_over_both_fields():
    for field in (Q, F5):
        for n in range(1, 4):
            ext = exterior_hopf(n, field)
            assert not ext.presentation.check_super_axioms()
            assert ext.presentation.is_super_commutative()


def test_exterior_antipode_sign():
    ext = exterior_hopf(3, Q)
    for i, s in enumerate(ext.subsets):
        expected = basis_vec(Q, 8, i) if len(s) % 2 == 0 else tuple(
            -c for c in basis_vec(Q, 8, i)
        )
        assert ext.hopf.antipode.col(i) == expected


# Lambda(n) for n >= 2 is certified by its super tensor structure over the
# checked Lambda(1) (superalg._super_tensor_violations); the generic super
# axiom check, which the library no longer runs on it, is the oracle here.

FIELDS = [Q, PrimeField(3), F5, PrimeField(7)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_generic_checker_passes_every_exterior_construction(field):
    for n in range(7):
        assert check_axioms("super-hopf", ExteriorHopf(n, field).presentation).ok


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_every_exterior_construction_equals_its_dual(field):
    # what makes the pairing iso, the identity, an isomorphism onto Lambda(V)*
    for n in range(7):
        h = exterior_hopf(n, field).hopf
        dual = dual_structure(h)
        assert dual.canonical_constants() == h.canonical_constants(), n
        assert dual.antipode == h.antipode, n


LAW_LOOPS = ("_parity_laws", "_algebra_laws", "_coalgebra_laws", "_bialgebra_laws",
             "_antipode_laws")


def test_exterior_hopf_runs_no_law_loop_beyond_the_base(monkeypatch):
    dims = []
    for name in LAW_LOOPS:
        def spy(s, *args, real=getattr(hopfcross.algebra, name)):
            dims.append(s.dim)
            return real(s, *args)

        monkeypatch.setattr(hopfcross.algebra, name, spy)
    for field in (Q, F5):
        for n in range(2, 7):
            ext = exterior_hopf(n, field)
            assert ext.hopf.algebra_violations == []  # recorded, not computed
    assert dims and set(dims) == {2}


def native_ops(field):
    """(negate, change) on native scalars of field; change adds one."""
    p = field.characteristic
    if p:
        return (lambda c: -c % p), (lambda c: (c + 1) % p)
    return (lambda c: -c), (lambda c: c + field.one)


def with_tables(ext, rows=None, coproduct=None, unit=None, counit=None, antipode_cols=None,
                parity=None):
    """A copy of ext with some of its native tables replaced."""
    h = ext.hopf
    out = copy.copy(ext)
    cols = antipode_cols or h.antipode.native_cols()
    out.hopf = FHopf._native(
        h.field, h.basis, native_rows=rows or h.native_rows, native_unit=unit or h.native_unit,
        native_coproduct=coproduct or h.native_coproduct,
        native_counit=h.native_counit if counit is None else counit,
        antipode=Matrix.from_sparse_cols(h.field, h.dim, cols))
    out.parity = parity or ext.parity
    out.presentation = SuperPresentation(out.hopf, out.parity)
    return out


def single_entry_mutations(ext):
    """(what, mutated copy of ext): each product and coproduct term negated,
    dropped or joined by a spurious term; a spurious product entry for each
    pair of meeting subsets; the unit changed or joined by a spurious term;
    each counit and antipode entry changed; each parity flipped."""
    h, dim, one = ext.hopf, ext.dim, _native((ext.field.one,), ext.field)[0]
    negate, change = native_ops(ext.field)

    def rows_with(i, j, terms):
        rows = {x: dict(row) for x, row in h.native_rows.items()}
        if terms:
            rows.setdefault(i, {})[j] = terms
        else:
            del rows[i][j]
        return rows

    def coproduct_with(i, terms):
        return {**h.native_coproduct, i: terms}

    for i, row in h.native_rows.items():
        for j, terms in row.items():
            for k, c in terms.items():
                yield ("negated product", i, j, k), with_tables(
                    ext, rows=rows_with(i, j, {**terms, k: negate(c)}))
                yield ("dropped product", i, j, k), with_tables(
                    ext, rows=rows_with(i, j, {x: e for x, e in terms.items() if x != k}))
                yield ("spurious product", i, j, k), with_tables(
                    ext, rows=rows_with(i, j, {**terms, (k + 1) % dim: one}))
    for i, s in enumerate(ext.masks):
        for j, t in enumerate(ext.masks):
            if s & t:
                yield ("spurious product entry", i, j), with_tables(
                    ext, rows=rows_with(i, j, {0: one}))
    for i, terms in h.native_coproduct.items():
        for key, c in terms.items():
            yield ("negated coproduct", i, key), with_tables(
                ext, coproduct=coproduct_with(i, {**terms, key: negate(c)}))
            yield ("dropped coproduct", i, key), with_tables(
                ext, coproduct=coproduct_with(i, {x: e for x, e in terms.items() if x != key}))
        spurious = next(key for key in itertools.product(range(dim), repeat=2)
                        if key not in terms)
        yield ("spurious coproduct", i, spurious), with_tables(
            ext, coproduct=coproduct_with(i, {**terms, spurious: one}))
    yield ("changed unit",), with_tables(ext, unit={0: change(h.native_unit[0])})
    yield ("spurious unit",), with_tables(ext, unit={**h.native_unit, 1: one})
    cols = h.antipode.native_cols()
    for i in range(dim):
        counit = {**h.native_counit, i: change(h.native_counit.get(i, 0))}
        yield ("changed counit", i), with_tables(
            ext, counit={x: c for x, c in counit.items() if c})
        yield ("changed antipode", i), with_tables(
            ext, antipode_cols=cols[:i] + [{i: negate(cols[i][i])}] + cols[i + 1:])
        parity = ext.parity[:i] + (1 - ext.parity[i],) + ext.parity[i + 1:]
        yield ("flipped parity", i), with_tables(ext, parity=parity)


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exterior_hopf_rejects_every_single_entry_mutation(field, n, monkeypatch):
    intact = ExteriorHopf(n, field)
    assert not list(_super_tensor_violations(intact, exterior_hopf(1, field)))
    assert check_axioms("super-hopf", intact.presentation).ok
    built = {}
    monkeypatch.setattr(hopfcross.superalg, "ExteriorHopf",
                        lambda m, f: built.get(m) or ExteriorHopf(m, f))
    base, count = exterior_hopf(1, field), 0
    for what, mutant in single_entry_mutations(intact):
        # the witnesses themselves, in order, are those of the dict comparison
        assert list(_super_tensor_violations(mutant, base)) == list(
            ref_super_tensor_violations(mutant, base)), what
        built[n] = mutant
        with pytest.raises(ValidationError, match="^exterior construction broke an axiom"):
            exterior_hopf(n, field)
            pytest.fail("accepted %r" % (what,))
        count += 1
    built.clear()
    assert exterior_hopf(n, field).hopf.canonical_constants() == intact.hopf.canonical_constants()
    assert count > 3 ** n


# The construction on subset tuples that the bitmask one replaced, the
# pairing read off determinants and the tensor certificate's whole-dict
# comparison, kept as oracles.


def ref_merge_inversions(s, t):
    """Number of pairs (a, b) in s x t with a > b; None when s and t meet."""
    if set(s) & set(t):
        return None
    inv = 0
    for a in s:
        for b in t:
            if a > b:
                inv += 1
    return inv


def ref_sign(f, exponent):
    return f.one if exponent % 2 == 0 else -f.one


def ref_exterior(n, field):
    """(subsets, index, hopf, parity) of Lambda(V), dim V = n."""
    f = field
    subsets = sorted(
        (tuple(c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)),
        key=lambda s: (len(s), s),
    )
    index = {s: i for i, s in enumerate(subsets)}
    dim = len(subsets)
    labels = tuple("1" if not s else "^".join("v%d" % i for i in s) for s in subsets)
    product = {}
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            inv = ref_merge_inversions(s, t)
            if inv is None:
                product[(i, j)] = {}
            else:
                product[(i, j)] = {index[tuple(sorted(s + t))]: ref_sign(f, inv)}
    unit = basis_vec(f, dim, index[()])
    coproduct = {}
    for i, s in enumerate(subsets):
        out = {}
        for r in range(len(s) + 1):
            for left in itertools.combinations(s, r):
                right = tuple(x for x in s if x not in left)
                out[(index[left], index[right])] = ref_sign(f, ref_merge_inversions(left, right))
        coproduct[i] = out
    counit = tuple(f.one if not s else f.zero for s in subsets)
    antipode = Matrix.from_cols(
        f, [vscale(ref_sign(f, len(s)), basis_vec(f, dim, i)) for i, s in enumerate(subsets)]
    )
    hopf = FHopf(f, labels, product, unit, coproduct, counit, antipode)
    return subsets, index, hopf, tuple(len(s) % 2 for s in subsets)


def ref_pairing_matrix(subsets, f):
    """<e*_S, e_T> as the determinant of the evaluation matrix f_s(v_t)."""
    rows = []
    for s in subsets:
        row = []
        for t in subsets:
            if len(s) != len(t):
                row.append(f.zero)
            elif not s:
                row.append(f.one)
            else:
                row.append(Matrix(f, [[f.one if a == b else f.zero for b in t] for a in s]).det())
        rows.append(row)
    return Matrix(f, rows)


def ref_super_tensor_violations(ext, base):
    """superalg._super_tensor_violations as it was before its one-term
    comparison: every product entry's formula built as a dict, cleaned and
    compared whole."""
    sp = ext.presentation
    h, b, parity, base_parity = sp.hopf, base.hopf, sp.parity, base.parity
    masks, at = ext.masks, ext.mask_index
    cols, cols1 = h.antipode.native_cols(), b.antipode.native_cols()
    lower, d, clean = _lowering((h, b), (cols, cols1))
    if d != 1:
        yield ("denominator", ())
        return
    rows, rows1 = h.lowered_rows(1), b.lowered_rows(1)
    cols, cols1 = [_lowered(c, lower) for c in cols], [_lowered(c, lower) for c in cols1]
    top = [1 << (m.bit_length() - 1) if m else 0 for m in masks]
    rest = [at[m & ~k] for m, k in zip(masks, top)]

    def up(x, k, c):
        return at[masks[x] | k] if c else x

    if not (rows.get(0, {}).get(0) == {0: 1} and cols[0] == {0: 1} and parity[0] == 0
            and _lowered(h.native_unit, lower) == _lowered(b.native_unit, lower) == {0: 1}):
        yield ("ground", ())
    for i, row in rows.items():
        for j, terms in row.items():
            k = max(top[i], top[j])
            if not k:
                continue
            x, a = (rest[i], 1) if top[i] == k else (i, 0)
            y, c = (rest[j], 1) if top[j] == k else (j, 0)
            odd = base_parity[a] and parity[y]
            want = clean({up(z, k, w): -s * t if odd else s * t
                          for z, s in rows.get(x, {}).get(y, {}).items()
                          for w, t in rows1.get(a, {}).get(c, {}).items()})
            if not want or terms != want:
                yield ("product", (i, j))
    if sum(map(len, rows.values())) != sum(map(len, rows1.values())) ** ext.n:
        yield ("product-count", ())
    for i in range(1, ext.dim):
        k, x = top[i], rest[i]
        if cols[i] != clean({up(z, k, w): s * t for z, s in cols[x].items()
                             for w, t in cols1[1].items()}):
            yield ("antipode", (i,))
        if parity[i] != (parity[x] + base_parity[1]) % 2:
            yield ("parity", (i,))


def ordered(sparse):
    """A sparse table with the key order of its outer and inner dicts."""
    return [(key, list(terms.items())) for key, terms in sparse.items()]


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5, PrimeField(7)], ids=repr)
def test_exterior_construction_and_pairing_match_the_subset_oracle(field):
    # over F7 up to the largest n pairing accepts; the determinant pairing
    # oracle, which takes 4^n determinants, only below n = 7
    for n in range(MAX_PAIRING_N + 1 if field == PrimeField(7) else 7):
        subsets, index, ref, parity = ref_exterior(n, field)
        pairing = duality_pairing(n, field)
        ext, h = pairing.exterior, pairing.exterior.hopf
        assert (ext.subsets, ext.index, ext.parity) == (subsets, index, parity)
        assert list(ext.index) == list(index)
        assert h.basis == ref.basis
        assert ordered(h.product) == ordered(ref.product)
        assert ordered(h.coproduct) == ordered(ref.coproduct)
        assert (h.unit, h.counit, h.antipode) == (ref.unit, ref.counit, ref.antipode)
        if n < 7:
            assert pairing.matrix == ref_pairing_matrix(subsets, field)


# ---------------------------------------------------------------------------
# duality pairing


@pytest.mark.parametrize("build", [ExteriorHopf, exterior_hopf, duality_pairing])
def test_a_negative_dimension_is_named(build):
    for field in (Q, F5):
        with pytest.raises(ValidationError, match=r"dim V = n >= 0, got n = -1$"):
            build(-1, field)
    assert build(0, Q).n == 0  # Lambda(0) = k


def test_pairing_n1_is_evaluation():
    p = duality_pairing(1, Q)
    assert p.matrix == Matrix.identity(Q, 2)


def test_pairing_n2_determinant_formula():
    # <f1 ^ f2, v1 ^ v2> = f1(v1) f2(v2) - f1(v2) f2(v1) = 1 on the subset basis
    p = duality_pairing(2, Q)
    ext = exterior_hopf(2, Q)
    i12 = ext.index[(1, 2)]
    assert p.matrix.data[i12][i12] == Q.one


def test_pairing_diagonal_and_block_orthogonal():
    # on the subset bases the pairing and its iso are the identity
    for n in (1, 2, 3):
        p = duality_pairing(n, Q)
        assert p.matrix == p.iso == Matrix.identity(Q, 2 ** n)


# ---------------------------------------------------------------------------
# even quotient, odd cotangent, odd primitives


def test_even_quotient_of_exterior_is_scalars():
    H, pi = even_quotient(exterior_hopf(2, Q).presentation)
    assert H.dim == 1
    assert pi.rank() == 1


def test_even_quotient_of_purely_even_is_identity():
    h = group_hopf_algebra(GroupTable.cyclic(3), Q)
    H, pi = even_quotient(even_presentation(h))
    assert H.dim == 3
    assert pi == Matrix.identity(Q, 3)


def test_even_quotient_of_tensor_recovers_group_algebra():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    A = super_tensor_product(exterior_hopf(2, Q).presentation, even_presentation(h))
    H, pi = even_quotient(A)
    assert H.dim == 2
    assert is_commutative(H) and is_cocommutative(H)


def test_even_quotient_rejects_non_supercommutative():
    # declare every index odd in a group algebra: products of odd elements
    # land in odd degree, and the (-1) rule fails
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    sp = SuperPresentation.__new__(SuperPresentation)
    sp.hopf = h
    sp.space = SuperVectorSpace((0, 1))
    sp.parity = (0, 1)
    with pytest.raises(NotSuperCommutativeError):
        even_quotient(sp)


def test_decompose_rejects_non_supercommutative_before_the_axioms():
    # k[Z/2] with g odd is not super-commutative (g g = 1 != -g g), and it
    # also breaks the parity laws (Delta g = g (x) g is even); the
    # super-commutativity test answers first
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    sp = SuperPresentation(h, (0, 1))
    assert sp.check_super_axioms()
    with pytest.raises(NotSuperCommutativeError):
        decompose(sp)


def test_a_decomposition_tests_super_commutativity_once(monkeypatch):
    tested = []
    test = SuperPresentation._super_commutative.func

    def counted(sp):
        tested.append(sp)
        return test(sp)

    kept = cached_property(counted)
    kept.__set_name__(SuperPresentation, "_super_commutative")
    monkeypatch.setattr(SuperPresentation, "_super_commutative", kept)
    a = super_tensor_product(exterior_hopf(2, Q).presentation,
                             even_presentation(group_hopf_algebra(GroupTable.cyclic(2), Q)))
    decompose(a)
    assert tested == [a]
    even_quotient(a)  # the answer is kept on the presentation
    assert tested == [a]


def test_odd_primitives_of_exterior():
    u = odd_primitives(exterior_hopf(2, Q).presentation)
    assert len(u) == 2
    ext = exterior_hopf(2, Q)
    # the primitives are supported on the degree-1 subset coordinates
    for v in u:
        assert ext.index[()] not in v
        assert ext.index[(1, 2)] not in v


def test_odd_primitives_purely_even_empty():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    assert odd_primitives(even_presentation(h)) == []


def test_primitive_count_matches_cotangent_on_corpus():
    # dim A_1/A_0^+A_1 is m on Lambda(m) (x) k[G], so the odd primitives
    # count m: decompose reads W as their dual
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    corpus = [
        exterior_hopf(1, Q).presentation,
        exterior_hopf(2, Q).presentation,
        exterior_hopf(3, Q).presentation,
        even_presentation(h),
        super_tensor_product(exterior_hopf(2, Q).presentation, even_presentation(h)),
    ]
    assert [len(odd_primitives(sp)) for sp in corpus] == [1, 2, 3, 0, 2]


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_tensor_product():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    A = super_tensor_product(exterior_hopf(2, Q).presentation, even_presentation(h))
    res = decompose(A)
    assert res.h.dim == 2
    assert res.w.odd_dim == 2
    assert res.alpha.is_invertible()
    assert res.exterior.dim * res.h.dim == A.dim == 8


def test_decompose_scrambled_basis():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    A = super_tensor_product(exterior_hopf(2, Q).presentation, even_presentation(h))
    scrambled = scramble(A, seed=7)
    assert not scrambled.check_super_axioms()
    res = decompose(scrambled)
    assert res.h.dim == 2 and res.w.odd_dim == 2
    assert res.alpha.is_invertible()


def test_decompose_purely_even_is_identity_like():
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    res = decompose(even_presentation(h))
    assert res.w.odd_dim == 0
    assert res.h.dim == 2
    assert res.alpha.is_invertible()


def test_decompose_exterior_n3():
    res = decompose(exterior_hopf(3, Q).presentation)
    assert res.h.dim == 1
    assert res.w.odd_dim == 3
    assert res.alpha.is_invertible()
    # here alpha = delta is an automorphism of Lambda(V)
    assert res.delta.is_invertible()


def test_decompose_over_f5():
    h = group_hopf_algebra(GroupTable.cyclic(2), F5)
    A = super_tensor_product(exterior_hopf(1, F5).presentation, even_presentation(h))
    res = decompose(A)
    assert res.w.odd_dim == 1 and res.h.dim == 2


def test_odd_squares_vanish_on_supercommutative():
    A = super_tensor_product(
        exterior_hopf(2, Q).presentation,
        even_presentation(group_hopf_algebra(GroupTable.cyclic(2), Q)),
    )
    rng = random.Random(3)
    odd_idx = [i for i, p in enumerate(A.parity) if p == 1]
    for _ in range(20):
        v = [Q.zero] * A.dim
        for i in odd_idx:
            v[i] = Q.from_int(rng.randrange(-5, 6))
        sq = A.hopf.mult(tuple(v), tuple(v))
        assert all(c == Q.zero for c in sq)


# ---------------------------------------------------------------------------
# laws the super check leaves to the Hopf laws


def f3_family(parity):
    """Every two-dimensional presentation over F3 on the basis (1, v) with 1
    the unit, Delta(1) = 1 (x) 1, eps(1) = 1 and S(1) = 1: v.v, Delta(v),
    eps(v) and S(v) take all 3^9 values."""
    f3 = PrimeField(3)
    o, z = f3.one, f3.zero
    for a, b, c00, c01, c10, c11, e, s0, s1 in itertools.product(f3.elements(), repeat=9):
        product = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}, (1, 1): {0: a, 1: b}}
        coproduct = {0: {(0, 0): o}, 1: {(0, 0): c00, (0, 1): c01, (1, 0): c10, (1, 1): c11}}
        antipode = Matrix(f3, [[o, s0], [z, s1]])
        h = FHopf(f3, ("1", "v"), product, (o, z), coproduct, (o, e), antipode)
        yield SuperPresentation(h, parity)


def implied_law_witnesses(sp):
    """Reference check of S o mu = mu o (S (x) S) o c, of
    Delta o S = c o (S (x) S) o Delta, and of v.v = 0 for odd v in a
    super-commutative algebra, where c is the Koszul swap."""
    h = sp.hopf
    f = h.field
    p = sp.parity
    s = h.antipode
    dim = h.dim
    out = []
    for i in range(dim):
        for j in range(dim):
            lhs = [f.zero] * dim
            for k, c in h.mult_basis(i, j).items():
                lhs = [x + c * y for x, y in zip(lhs, s.col(k))]
            sign = f.one if p[i] * p[j] == 0 else -f.one
            rhs = [sign * x for x in h.mult(s.col(j), s.col(i))]
            if lhs != rhs:
                out.append(("antipode-antimultiplicative", (i, j)))
    for i in range(dim):
        lhs = {}
        for x, c in enumerate(s.col(i)):
            for key, d in h.delta_basis(x).items():
                lhs[key] = lhs.get(key, f.zero) + c * d
        rhs = {}
        for (j, k), c in h.delta_basis(i).items():
            sign = f.one if p[j] * p[k] == 0 else -f.one
            for x, u in enumerate(s.col(k)):
                for y, v in enumerate(s.col(j)):
                    rhs[(x, y)] = rhs.get((x, y), f.zero) + sign * c * u * v
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            out.append(("antipode-anticomultiplicative", (i,)))
    if sp.is_super_commutative():
        for i in range(dim):
            if p[i] and h.mult_basis(i, i):
                out.append(("odd-square-nonzero", (i,)))
    return out


def test_super_check_implies_the_antipode_and_odd_square_laws():
    for parity in ((0, 0), (0, 1)):
        passed = 0
        for sp in f3_family(parity):
            if not sp.check_super_axioms():
                passed += 1
                assert implied_law_witnesses(sp) == [], sp.hopf.canonical_constants()
        assert passed


# ---------------------------------------------------------------------------
# the staged Delta-multiplicativity contraction against the nested loop


def nested_loop_multiplicativity(b, p):
    """Reference for the multiplicativity laws: Delta(e_i) Delta(e_j) formed
    from every pair of coproduct terms, m(a1, b1) (x) m(a2, b2) with the
    Koszul sign of a2 crossing b1, in the checker's witness order."""
    f = b.field
    z = f.zero
    unit = [(i, c) for i, c in enumerate(b.unit) if c]
    if b.delta(b.unit) != {(i, j): x * y for i, x in unit for j, y in unit}:
        yield ("coproduct-of-unit", ())
    if evaluate(f, b.counit, b.unit) != f.one:
        yield ("counit-of-unit", ())
    for i in range(b.dim):
        for j in range(b.dim):
            lhs = {}
            s = z
            for k, c in b.mult_basis(i, j).items():
                for key, u in b.delta_basis(k).items():
                    lhs[key] = lhs.get(key, z) + c * u
                s = s + c * b.counit[k]
            rhs = {}
            for (a1, a2), c in b.delta_basis(i).items():
                for (b1, b2), d in b.delta_basis(j).items():
                    cd = -c * d if p[a2] and p[b1] else c * d
                    for x, u in b.mult_basis(a1, b1).items():
                        cdu = cd * u
                        for y, v in b.mult_basis(a2, b2).items():
                            rhs[(x, y)] = rhs.get((x, y), z) + cdu * v
            if {k: c for k, c in lhs.items() if c} != {k: c for k, c in rhs.items() if c}:
                yield ("coproduct-multiplicative", (i, j))
            if s != b.counit[i] * b.counit[j]:
                yield ("counit-multiplicative", (i, j))


def corrupt_constant(sp, seed):
    """sp with one product or coproduct constant shifted by a seeded nonzero
    amount."""
    h = sp.hopf
    f = h.field
    rng = random.Random(seed)
    bump = f.from_int(rng.randrange(1, 5))
    product = {key: dict(terms) for key, terms in h.product.items()}
    coproduct = {i: dict(terms) for i, terms in h.coproduct.items()}
    i, j, k = (rng.randrange(h.dim) for _ in range(3))
    if rng.randrange(2):
        terms = product.setdefault((i, j), {})
        terms[k] = terms.get(k, f.zero) + bump
    else:
        terms = coproduct.setdefault(i, {})
        terms[(j, k)] = terms.get((j, k), f.zero) + bump
    hopf = FHopf(f, h.basis, product, h.unit, coproduct, h.counit, h.antipode)
    return SuperPresentation(hopf, sp.parity)


def first_witnesses(laws):
    return list(itertools.islice(laws, MAX_VIOLATIONS))


@pytest.mark.parametrize("field, m, n", [(Q, 2, 2), (Q, 1, 3), (F5, 2, 2), (F5, 1, 3)])
def test_staged_multiplicativity_matches_the_nested_loop(field, m, n):
    even = even_presentation(group_hopf_algebra(GroupTable.cyclic(n), field))
    sp = scramble(super_tensor_product(exterior_hopf(m, field).presentation, even), seed=7)
    assert 1 in sp.parity
    for seed in range(4):
        bad = corrupt_constant(sp, seed)
        expected = first_witnesses(nested_loop_multiplicativity(bad.hopf, bad.parity))
        assert expected
        assert first_witnesses(_bialgebra_laws(bad.hopf, bad.parity)) == expected, seed


def test_staged_multiplicativity_keeps_a_long_witness_list_and_the_cap(monkeypatch):
    even = even_presentation(group_hopf_algebra(GroupTable.cyclic(2), F5))
    sp = scramble(super_tensor_product(exterior_hopf(2, F5).presentation, even), seed=7)
    bad = corrupt_constant(sp, 0)
    expected = list(nested_loop_multiplicativity(bad.hopf, bad.parity))
    assert len(expected) > MAX_VIOLATIONS
    assert list(_bialgebra_laws(bad.hopf, bad.parity)) == expected
    # here the coalgebra laws leave room, so the cap falls inside these laws
    capped = corrupt_constant(sp, 3)
    report = check_axioms("super-hopf", capped).violations
    assert len(report) == MAX_VIOLATIONS and report[-1][0] == "coproduct-multiplicative"
    # check_axioms also hands the law a generating set, which the nested loop
    # has no use for: it checks every pair
    monkeypatch.setattr("hopfcross.algebra._bialgebra_laws",
                        lambda b, p, gens: nested_loop_multiplicativity(b, p))
    assert check_axioms("super-hopf", capped).violations == report


def test_staged_multiplicativity_matches_the_nested_loop_on_the_f3_family():
    failing = 0
    for sp in f3_family((0, 1)):
        expected = list(nested_loop_multiplicativity(sp.hopf, sp.parity))
        assert list(_bialgebra_laws(sp.hopf, sp.parity)) == expected, sp.hopf.canonical_constants()
        failing += bool(expected)
    assert failing


# ---------------------------------------------------------------------------
# the sparse decomposition path against its dense predecessors
#
# ref_* are the dense implementations the decomposition read before its
# vectors went sparse, on their own dense eliminations (dense_rref), kept as
# oracles.


F3 = PrimeField(3)
F7 = PrimeField(7)


def super_family(field, m, n):
    """Lambda(m) (x) k[Z/n], with k[Z/n] even."""
    return super_tensor_product(exterior_hopf(m, field).presentation,
                                even_presentation(group_hopf_algebra(GroupTable.cyclic(n), field)))


def ref_kernel_basis(m):
    r, pivots, _ = dense_rref(m)
    f = m.field
    out = []
    for j in range(m.cols):
        if j not in pivots:
            v = [f.zero] * m.cols
            v[j] = f.one
            for row, pc in enumerate(pivots):
                v[pc] = -r.data[row][j]
            out.append(tuple(v))
    return out


def ref_ideal_power_chain(algebra, ideal_basis):
    f = algebra.field
    n = algebra.dim
    chain = [ref_row_space_basis(f, ideal_basis, n)]
    while chain[-1]:
        prods = [ref_mult(algebra, x, y) for x in chain[-1] for y in chain[0]]
        nxt = ref_row_space_basis(f, prods, n)
        if len(nxt) == len(chain[-1]):
            if all(ref_in_span(f, chain[-1], v) for v in nxt):
                raise KernelNotNilpotentError("ideal power chain stabilized above zero")
        chain.append(nxt)
        if len(chain) > n + 1:
            raise KernelNotNilpotentError("ideal power chain does not terminate")
    return chain


def ref_induced_algebra(a, basis, coords, labels):
    product = {}
    for s, u in enumerate(basis):
        for t, v in enumerate(basis):
            product[(s, t)] = {k: c for k, c in enumerate(coords(ref_mult(a, u, v))) if c}
    return FAlgebra(a.field, labels, product, tuple(coords(a.one())))


def ref_even_quotient(sp):
    h = sp.hopf
    f = h.field
    dim = h.dim
    gens = []
    for v in [basis_vec(f, dim, i) for i in range(dim) if sp.parity[i] == 1]:
        gens.append(v)
        for j in range(dim):
            gens.append(ref_mult(h, v, basis_vec(f, dim, j)))
    ideal = ref_row_space_basis(f, gens, dim)
    quot = RefQuotientSpace(f, dim, ideal)
    dq = len(quot.complement)
    for v in ideal:
        if evaluate(f, h.counit, v):
            raise ValidationError("ideal does not lie in the augmentation ideal")
        if any(c for c in quot.project(h.antipode.apply(v))):
            raise ValidationError("ideal is not antipode-stable")
        if ref_induced_coproduct(h, [v], quot.project)[0]:
            raise ValidationError("ideal is not a coideal")
    lifts = [quot.lift(basis_vec(f, dq, s)) for s in range(dq)]
    labels = tuple("h%d" % s for s in range(dq))
    alg = ref_induced_algebra(h, lifts, quot.project, labels)
    counit = tuple(evaluate(f, h.counit, v) for v in lifts)
    anti_cols = [quot.project(h.antipode.apply(v)) for v in lifts]
    quotient_hopf = FHopf(f, labels, alg.product, alg.unit,
                          ref_induced_coproduct(h, lifts, quot.project), counit,
                          Matrix.from_cols(f, anti_cols))
    for t in quot.complement:
        if sp.parity[t] == 1:
            raise ValidationError("even quotient retained an odd coordinate")
    report = check_axioms("hopf", quotient_hopf)
    if not report.ok:
        raise ValidationError("even quotient is not a Hopf algebra: %r" % (report,))
    if ideal:
        ref_ideal_power_chain(h.as_algebra(), ideal)
    pi = Matrix.from_cols(f, [quot.project(basis_vec(f, dim, j)) for j in range(dim)])
    return quotient_hopf, pi


def power_chain_outcome(chain_of, algebra, basis):
    try:
        return chain_of(algebra, basis)
    except KernelNotNilpotentError as e:
        return str(e)


# natural bases up to dimension 24 (the dense oracles take about 20 s on
# Lambda(4) (x) k[Z/3]), scrambled ones up to 16
SUPER_ORACLE_CASES = ([(m, n, None) for m in (1, 2, 3, 4) for n in (1, 2, 3) if 2 ** m * n <= 24]
                      + [(1, 2, 11), (2, 3, 12), (3, 2, 13), (4, 1, 14)])


@pytest.mark.parametrize("m, n, seed", SUPER_ORACLE_CASES,
                         ids=lambda x: "natural" if x is None else str(x))
@pytest.mark.parametrize("field", [Q, F3, F5, F7], ids=repr)
def test_the_sparse_decomposition_path_matches_the_dense_oracles(field, m, n, seed):
    # Lambda(m) (x) k[Z/n] in its natural basis, or scrambled by a seeded
    # parity-preserving change of basis (the smaller cases: a scrambled
    # basis makes every constant dense)
    sp = super_family(field, m, n)
    if seed is not None:
        sp = scramble(sp, seed)
    h, parity = sp.hopf, sp.parity
    a = h.as_algebra()
    dim = h.dim
    quotient, pi = even_quotient(sp)
    ref_quotient, ref_pi = ref_even_quotient(sp)
    assert quotient.canonical_constants() == ref_quotient.canonical_constants()
    assert quotient.antipode == ref_quotient.antipode and pi == ref_pi
    # the power chains of ker pi = A_1 A, nilpotent, and of the augmentation
    # ideal, which is nilpotent only for n = 1 or n = p
    ideal = ref_kernel_basis(ref_pi)
    for basis in (ideal, ref_kernel_basis(Matrix(field, [h.counit]))):
        got = power_chain_outcome(ideal_power_chain, a, [_native(v, field) for v in basis])
        if not isinstance(got, str):
            got = [[_dense_vec(field, row, dim) for row in step] for step in got]
        assert got == power_chain_outcome(ref_ideal_power_chain, a, basis)
    # even_quotient builds no chain: odd elements square to zero and
    # anticommute, so (A_1 A)^(m+1) = 0 for m = dim A_1
    assert len(ideal_power_chain(a, [_native(v, field) for v in ideal])) <= sum(parity) + 1
    # algebras induced on A / ker pi and on the even subalgebra A_0
    quot = QuotientSpace(field, dim, row_space_basis(field, [_native(v, field) for v in ideal], dim))
    ref_quot = RefQuotientSpace(field, dim, ideal)
    labels = tuple("q%d" % t for t in range(quot.dim))
    got = induced_algebra(a, [quot.lift(_basis_row(field, t)) for t in range(quot.dim)],
                          quot.project, labels)
    ref = ref_induced_algebra(a, [ref_quot.lift(basis_vec(field, quot.dim, t))
                                  for t in range(quot.dim)], ref_quot.project, labels)
    assert got.canonical_constants() == ref.canonical_constants()
    even = [i for i in range(dim) if parity[i] == 0]
    at = {i: t for t, i in enumerate(even)}
    labels = tuple("e%d" % t for t in range(len(even)))
    got = induced_algebra(a, [_basis_row(field, i) for i in even],
                          lambda v: {at[i]: c for i, c in v.items()}, labels)
    ref = ref_induced_algebra(a, [basis_vec(field, dim, i) for i in even],
                              lambda v: tuple(v[i] for i in even), labels)
    assert got.canonical_constants() == ref.canonical_constants()


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 1)])
@pytest.mark.parametrize("field", [Q, F3, F5, F7], ids=repr)
def test_super_decompose_is_invariant_under_a_change_of_basis(field, m, n, tmp_path, capsys):
    # ROADMAP 9(a): a seeded parity-preserving change of basis keeps the h
    # and w dimensions, and the scrambled decomposition passes --certify
    sp = super_family(field, m, n)
    dims = []
    for label, pres in (("natural", sp), ("scrambled", scramble(sp, "%r:%d:%d" % (field, m, n)))):
        path = tmp_path / ("%s.json" % label)
        path.write_text(json.dumps(encode_super_hopf(pres)))
        capsys.readouterr()
        assert main(["super-decompose", str(path), "--certify", "--json"]) == 0
        witnesses = json.loads(capsys.readouterr().out)["witnesses"]
        dims.append((witnesses["h_dimension"], witnesses["w_dimension"]))
    assert dims == [(n, m), (n, m)]
