import itertools
import json
import os
import random
import re
from fractions import Fraction
from itertools import chain

import pytest

from hopfcross.algebra import (
    ComoduleCoalgebraData,
    FAlgebra,
    FBialgebra,
    FCoalgebra,
    FHopf,
    MAX_VIOLATIONS,
    WORD_PRIME,
    _Algebra,
    _Coalgebra,
    _algebra_laws,
    _antipode_laws,
    _bialgebra_laws,
    _coalgebra_components,
    _coalgebra_laws,
    _greedy_generators,
    _left_legs,
    _laws,
    _lower,
    _lowered,
    _lowering,
    _parity_laws,
    _product_rows,
    algebra_map_violations,
    check_axioms,
    compute_antipode,
    convolution_invert,
    counit_violations,
    dual_hopf,
    dual_structure,
    group_hopf_algebra,
    induced_coproduct,
    require_morphism,
    smash_coproduct,
    ti,
)
from hopfcross.cli import (
    _matrix,
    _matrix_block,
    _matrix_to_json,
    encode_hopf,
    main,
    parse_presentation,
)
from hopfcross.errors import NoAntipodeError, NotConvolutionInvertibleError, ValidationError
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    FpElement,
    Matrix,
    PrimeField,
    QuotientSpace,
    Rational,
    Rationals,
    _basis_row,
    _dense_vec,
    _native,
    basis_vec,
    row_space_basis,
    vtensor,
)
from hopfcross.standard import kz2, kz3, ks3, monoid_bialgebra, sweedler
import hopfcross.algebra
import hopfcross.superalg
from hopfcross.superalg import (
    ExteriorHopf,
    SuperPresentation,
    decompose,
    duality_pairing,
    exterior_hopf,
    super_tensor_product,
)
from tests.oracles import (delta2_basis, dense_tensor, evaluate, is_cocommutative,
                           is_commutative, vadd, vscale, vzero)
from tests.test_linalg import ORACLE_FIELDS, draw

Q = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)

PARTS = ("product", "coproduct", "unit", "counit", "antipode")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")
STOCK = (("kz2", kz2), ("kz3", kz3), ("ks3", ks3), ("sweedler", sweedler))


def corrupt(h, part, seed, bump=None):
    """h with one structure constant of the named part shifted by a seeded
    nonzero amount, or by bump when it is given."""
    f = h.field
    dim = h.dim
    rng = random.Random(seed)
    drawn = f.from_int(rng.randrange(1, 5))
    bump = drawn if bump is None else bump
    product = {key: dict(terms) for key, terms in h.product.items()}
    coproduct = {i: dict(terms) for i, terms in h.coproduct.items()}
    unit, counit = list(h.unit), list(h.counit)
    antipode = [list(row) for row in h.antipode.data]
    if part == "product":
        i, j, k = (rng.randrange(dim) for _ in range(3))
        terms = product.setdefault((i, j), {})
        terms[k] = terms.get(k, f.zero) + bump
    elif part == "coproduct":
        i, j, k = (rng.randrange(dim) for _ in range(3))
        terms = coproduct.setdefault(i, {})
        terms[(j, k)] = terms.get((j, k), f.zero) + bump
    elif part == "unit":
        unit[rng.randrange(dim)] += bump
    elif part == "counit":
        counit[rng.randrange(dim)] += bump
    else:
        antipode[rng.randrange(dim)][rng.randrange(dim)] += bump
    return FHopf(f, h.basis, product, tuple(unit), coproduct, tuple(counit),
                 Matrix(f, antipode))


def corrupted_inputs():
    """((stock name, field name, part), corrupted Hopf presentation) for every
    stock Hopf algebra over Q and F5 and every part."""
    for name, make in STOCK:
        for fname, field in (("Q", Q), ("F5", F5)):
            for part in PARTS:
                yield (name, fname, part), corrupt(make(field), part, "%s/%s/%s" % (name, fname, part))


def views(h):
    """The presentation each axiom kind is checked on."""
    return {"algebra": h.as_algebra(), "coalgebra": h.as_coalgebra(), "bialgebra": h, "hopf": h}


# --- axiom checks -----------------------------------------------------------


def test_kz2_passes_hopf_axioms():
    assert check_axioms("hopf", kz2(Q)).ok


def test_broken_counit_reports_witness():
    h = kz2(Q)
    bad = FBialgebra(Q, h.basis, h.product, h.unit, h.coproduct, (Q.one, Q.zero))
    report = check_axioms("coalgebra", bad.as_coalgebra())
    assert not report.ok
    names = {v[0] for v in report.violations}
    witnesses = {v[1] for v in report.violations}
    assert names & {"counit-left", "counit-right"}
    assert (1,) in witnesses  # basis element g


def test_sweedler_passes_hopf_axioms_brute_force():
    # oracle: the checker itself enumerates all basis triples; additionally
    # verify associativity independently on all triples of basis vectors here
    for field in (Q, F5):
        h = sweedler(field)
        dim = h.dim
        for i, j, k in itertools.product(range(dim), repeat=3):
            ei, ej, ek = (basis_vec(field, dim, t) for t in (i, j, k))
            assert h.mult(h.mult(ei, ej), ek) == h.mult(ei, h.mult(ej, ek))
        assert check_axioms("hopf", h).ok


def test_check_axioms_witness_lists_are_frozen():
    # GOLDEN holds every nonempty witness list of the seeded corruptions,
    # recorded from the checker before the super laws were merged into it
    for key, h in corrupted_inputs():
        for kind, data in views(h).items():
            assert check_axioms(kind, data).violations == GOLDEN.get(key + (kind,), []), key + (kind,)


def test_all_even_super_check_is_the_hopf_check():
    for key, h in corrupted_inputs():
        even = SuperPresentation(h, (0,) * h.dim)
        assert even.check_super_axioms() == check_axioms("hopf", h).violations, key


# --- the native-int laws against the field-scalar loops ----------------------
#
# The ref_* generators below are the law loops as they ran on Fraction and
# FpElement scalars, kept as the oracle for the checker, which lowers the
# constants to native ints (scaled by the lcm D of their denominators over Q,
# reduced mod p only at each comparison).


def ref_clean(sparse):
    return {k: c for k, c in sparse.items() if c}


def ref_add_scaled(out, c, terms):
    """out += c * terms on sparse dicts."""
    for k, u in terms.items():
        cu = c * u
        out[k] = out[k] + cu if k in out else cu


def ref_algebra_laws(a):
    dim = a.dim
    unit = {t: c for t, c in enumerate(a.unit) if c}
    for i in range(dim):
        e = {i: a.field.one}
        left, right = {}, {}
        for t, c in unit.items():
            ref_add_scaled(left, c, a.mult_basis(t, i))
            ref_add_scaled(right, c, a.mult_basis(i, t))
        if ref_clean(left) != e:
            yield ("left-unit", (i,))
        if ref_clean(right) != e:
            yield ("right-unit", (i,))
    for i in range(dim):
        for j in range(dim):
            eij = a.mult_basis(i, j)
            for l in range(dim):
                lhs, rhs = {}, {}
                for k, c in eij.items():
                    ref_add_scaled(lhs, c, a.mult_basis(k, l))
                for k, c in a.mult_basis(j, l).items():
                    ref_add_scaled(rhs, c, a.mult_basis(i, k))
                if ref_clean(lhs) != ref_clean(rhs):
                    yield ("associativity", (i, j, l))


def ref_coalgebra_laws(c):
    f = c.field
    for i in range(c.dim):
        rhs = {}
        for (j, k), u in c.delta_basis(i).items():
            for (a, b), v in c.delta_basis(k).items():
                key = (j, a, b)
                rhs[key] = rhs.get(key, f.zero) + u * v
        if delta2_basis(c, i) != ref_clean(rhs):
            yield ("coassociativity", (i,))
        left, right = {}, {}
        for (j, k), u in c.delta_basis(i).items():
            if c.counit[j]:
                left[k] = left.get(k, f.zero) + c.counit[j] * u
            if c.counit[k]:
                right[j] = right.get(j, f.zero) + u * c.counit[k]
        e = {i: f.one}
        if ref_clean(left) != e:
            yield ("counit-left", (i,))
        if ref_clean(right) != e:
            yield ("counit-right", (i,))


def ref_left_legs(b, i):
    """{b1: {a2: sum_a1 Delta_i^{a1 a2} e_a1 e_b1}} over the nonzero products."""
    product = b.product
    out = {}
    for (a1, a2), c in b.delta_basis(i).items():
        for b1 in range(b.dim):
            prod = product.get((a1, b1))
            if prod:
                ref_add_scaled(out.setdefault(b1, {}).setdefault(a2, {}), c, prod)
    return out


def ref_bialgebra_laws(b, p):
    """Delta and eps are algebra maps; in A (x) A the crossing of two odd
    tensor legs carries the Koszul sign -1.

    Delta(e_i) Delta(e_j) is contracted in stages, O(d^6) in all on dense
    constants where the pairs of coproduct terms cost O(d^8): the left legs
    U[b1][a2] of e_i once per i, then per pair
    V[a2, b2] = sum_b1 (-1)^{p(a2) p(b1)} U[b1][a2] Delta_j^{b1 b2}
    and the sum of V[a2, b2] (x) e_a2 e_b2."""
    f = b.field
    z = f.zero
    dim = b.dim
    product, coproduct, counit = b.product, b.coproduct, b.counit
    unit = [(i, c) for i, c in enumerate(b.unit) if c]
    if b.delta(b.unit) != {(i, j): x * y for i, x in unit for j, y in unit}:
        yield ("coproduct-of-unit", ())
    if evaluate(f, counit, b.unit) != f.one:
        yield ("counit-of-unit", ())
    for i in range(dim):
        legs = ref_left_legs(b, i)
        for j in range(dim):
            lhs = {}
            s = z
            for k, c in product.get((i, j), {}).items():
                ref_add_scaled(lhs, c, coproduct.get(k, {}))
                if counit[k]:
                    s = s + c * counit[k]
            v = {}
            for (b1, b2), d in coproduct.get(j, {}).items():
                for a2, u in legs.get(b1, {}).items():
                    ref_add_scaled(v.setdefault((a2, b2), {}), -d if p[a2] and p[b1] else d, u)
            rhs = {}
            for (a2, b2), vx in v.items():
                for y, w in product.get((a2, b2), {}).items():
                    for x, u in vx.items():
                        key = (x, y)
                        uw = u * w
                        rhs[key] = rhs[key] + uw if key in rhs else uw
            if ref_clean(lhs) != ref_clean(rhs):
                yield ("coproduct-multiplicative", (i, j))
            if s != counit[i] * counit[j]:
                yield ("counit-multiplicative", (i, j))


def ref_antipode_laws(h):
    """id * S = eta eps = S * id in the convolution algebra End(H)."""
    s_cols = [
        {m: s for m, s in enumerate(h.antipode.col(k)) if s} for k in range(h.dim)
    ]
    unit = {t: c for t, c in enumerate(h.unit) if c}
    for i in range(h.dim):
        lhs, rhs = {}, {}
        for (j, k), c in h.delta_basis(i).items():
            for m, s in s_cols[k].items():
                ref_add_scaled(lhs, c * s, h.mult_basis(j, m))
            for m, s in s_cols[j].items():
                ref_add_scaled(rhs, c * s, h.mult_basis(m, k))
        target = ref_clean({t: h.counit[i] * c for t, c in unit.items()})
        if ref_clean(lhs) != target:
            yield ("antipode-right", (i,))
        if ref_clean(rhs) != target:
            yield ("antipode-left", (i,))


def ref_algebra_map_violations(src, dst, m):
    """Witnesses that the linear map m : src -> dst (a dst.dim x src.dim
    matrix) is not a unital algebra map: ("unit", ()), then
    ("multiplicative", (i, j)) for each basis pair in order."""
    if m.apply(src.unit) != dst.unit:
        yield ("unit", ())
    z = dst.field.zero
    cols = [m.col(k) for k in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = [z] * dst.dim
            for k, c in src.mult_basis(i, j).items():
                for x, u in enumerate(cols[k]):
                    if u:
                        lhs[x] = lhs[x] + c * u
            if tuple(lhs) != dst.mult(cols[i], cols[j]):
                yield ("multiplicative", (i, j))


def ref_hopf_laws(h, parity):
    return list(chain(ref_algebra_laws(h), ref_coalgebra_laws(h), ref_bialgebra_laws(h, parity),
                      ref_antipode_laws(h)))


def native_hopf_laws(h, parity):
    return list(chain(_algebra_laws(h), _coalgebra_laws(h), _bialgebra_laws(h, parity),
                      _antipode_laws(h)))


def rational_bump(seed):
    """A seeded non-integer rational such as 1/3 or -5/7."""
    rng = random.Random(seed)
    return Fraction(rng.choice((1, -1, 2, 4, -5)), rng.choice((3, 7, 9)))


def has_denominators(h):
    """Whether h is over Q and some structure constant is not an integer."""
    scalars = chain(sparse_values(h.product), sparse_values(h.coproduct), h.unit, h.counit,
                    chain.from_iterable(h.antipode.data) if isinstance(h, FHopf) else ())
    return h.field == Q and any(c.denominator != 1 for c in scalars)


def sparse_values(sparse):
    return chain.from_iterable(terms.values() for terms in sparse.values())


def oracle_inputs():
    """(key, Hopf presentation, parity): the stock corruptions over Q and F5,
    the same with non-integer rational bumps over Q, the stock corruptions
    over F7, and Lambda(n) for n <= 4 over Q and F7, intact and with a
    rational or F7 bump in each part."""
    for key, h in corrupted_inputs():
        yield key, h, (0,) * h.dim
    for name, make in STOCK:
        for part in PARTS:
            seed = "%s/%s/rational" % (name, part)
            h = corrupt(make(Q), part, seed, rational_bump(seed))
            yield (name, "Q", part, "rational"), h, (0,) * h.dim
            h = corrupt(make(F7), part, "%s/%s/F7" % (name, part))
            yield (name, "F7", part), h, (0,) * h.dim
    for n in range(5):
        for fname, field in (("Q", Q), ("F7", F7)):
            ext = exterior_hopf(n, field)
            yield ("lambda", n, fname), ext.hopf, ext.parity
            for part in PARTS:
                seed = "lambda%d/%s/%s" % (n, fname, part)
                bump = rational_bump(seed) if field == Q else None
                yield ("lambda", n, fname, part), corrupt(ext.hopf, part, seed, bump), ext.parity


def test_native_laws_match_the_scalar_loops():
    failing = scaled = 0
    for key, h, parity in oracle_inputs():
        expected = ref_hopf_laws(h, parity)
        assert native_hopf_laws(h, parity) == expected, key
        failing += bool(expected)
        scaled += has_denominators(h)
    assert failing > 100 and scaled > 20


def test_native_algebra_map_check_matches_the_scalar_loop():
    """Maps with and without witnesses: the identity onto a corrupted copy,
    a seeded dense matrix, and the change of basis from a transported
    presentation back to the original, which is an algebra map."""
    rng = random.Random(5)
    cases = 0
    for name, make in STOCK:
        for field in (Q, F5, F7):
            h = make(field)
            dim = h.dim
            bad = corrupt(h, "product", name, rational_bump(name) if field == Q else None)
            dense = Matrix(field, [[field.from_fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                                    if field == Q else field.from_int(rng.randrange(-3, 4))
                                    for _ in range(dim)] for _ in range(dim)])
            t = change_of_basis(field, (0,) * dim, name)
            for src, dst, m in ((bad, h, Matrix.identity(field, dim)), (h, bad, Matrix.identity(field, dim)),
                                (h, h, dense), (transport(h, t), h, t), (h, h, h.antipode)):
                expected = list(ref_algebra_map_violations(src, dst, m))
                found = list(algebra_map_violations(src, dst, m.native_cols()))
                assert found == expected, (name, field)
                cases += bool(expected)
    assert cases > 10


# --- metamorphic: the verdict does not depend on the basis --------------------


def change_of_basis(field, parity, seed):
    """A seeded dense invertible matrix with entries in -3..3 that preserves
    parity; over Q its determinant is not +-1, so its inverse has
    denominators."""
    rng = random.Random("basis:%s" % (seed,))
    dim = len(parity)
    while True:
        rows = [[field.from_int(rng.randrange(-3, 4)) if parity[i] == parity[j] else field.zero
                 for j in range(dim)] for i in range(dim)]
        t = Matrix(field, rows)
        det = t.det()
        if det and (field != Q or abs(det) != 1):
            return t


def transport(b, t):
    """The bialgebra or Hopf structure of b in the basis given by the columns
    of t (the test's own copy, so a change in the library cannot change what
    is checked)."""
    f = b.field
    dim = b.dim
    tinv = t.inverse()
    product = {}
    for i in range(dim):
        for j in range(dim):
            prod = tinv.apply(b.mult(t.col(i), t.col(j)))
            product[(i, j)] = {k: c for k, c in enumerate(prod) if c}
    unit = tinv.apply(b.one())
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


def doubled(h, part):
    """h with one part multiplied by 2.  The first failing law is then the
    same in every basis: left-unit for the product and the unit, counit-left
    for the coproduct and the counit, antipode-right for the antipode."""
    f = h.field
    two = f.from_int(2)
    product = {key: {k: two * c for k, c in terms.items()} if part == "product" else terms
               for key, terms in h.product.items()}
    coproduct = {i: {jk: two * c for jk, c in terms.items()} if part == "coproduct" else terms
                 for i, terms in h.coproduct.items()}
    unit = tuple(two * c for c in h.unit) if part == "unit" else h.unit
    counit = tuple(two * c for c in h.counit) if part == "counit" else h.counit
    if isinstance(h, FHopf):
        antipode = h.antipode.scale(two) if part == "antipode" else h.antipode
        return FHopf(f, h.basis, product, unit, coproduct, counit, antipode)
    return FBialgebra(f, h.basis, product, unit, coproduct, counit)


BIALGEBRA_CORPUS = ("kz2.json", "kz3-f3.json", "ks3.json", "sweedler.json", "monoid2.json")
HOPF_CORPUS = BIALGEBRA_CORPUS + ("lambda3.json", "super-scrambled.json")


@pytest.mark.parametrize("name", HOPF_CORPUS)
def test_check_verdict_is_invariant_under_a_change_of_basis(name):
    pres = parse_presentation(os.path.join(CORPUS, name))
    kind = pres.kind
    if kind == "super-hopf":
        h, parity = pres.payload.hopf, pres.payload.parity
    else:
        h, parity = pres.payload, (0,) * pres.payload.dim

    def verdict(b):
        data = SuperPresentation(b, parity) if kind == "super-hopf" else b
        return check_axioms(kind, data).violations

    t = change_of_basis(h.field, parity, name)
    moved = transport(h, t)
    assert verdict(h) == [] and verdict(moved) == []
    assert has_denominators(moved) or h.field != Q
    parts = PARTS if isinstance(h, FHopf) else PARTS[:4]
    for part in parts:
        bad = verdict(doubled(h, part))
        assert bad, part
        assert verdict(transport(doubled(h, part), t))[0][0] == bad[0][0], part


@pytest.mark.parametrize("name", BIALGEBRA_CORPUS)
def test_antipode_verdict_is_invariant_under_a_change_of_basis(name, tmp_path, capsys):
    pres = parse_presentation(os.path.join(CORPUS, name))
    h = pres.payload
    t = change_of_basis(h.field, (0,) * h.dim, name)

    def antipode(b, label):
        """The exit code and --json report of the antipode command on b."""
        path = tmp_path / ("%s.json" % label)
        path.write_text(json.dumps(encode_hopf(b, pres.kind)))
        capsys.readouterr()
        code = main(["antipode", str(path), "--json"])
        return code, json.loads(capsys.readouterr().out)

    def first_law(report):
        return re.search(r"first \('([a-z-]+)'", report["error"]).group(1)

    code, report = antipode(h, "natural")
    moved_code, moved_report = antipode(transport(h, t), "moved")
    assert code == moved_code == (1 if name == "monoid2.json" else 0)
    if code == 0:
        # the antipode is unique, so the one found in the new basis is t^-1 S t
        s = _matrix(h.field, _matrix_block(h.field, report["certificates"]["antipode"], "antipode"))
        assert moved_report["certificates"]["antipode"] == _matrix_to_json(
            h.field, t.inverse() * s * t)
    # the command reads no antipode, so only the bialgebra parts can break it
    for part in PARTS[:4]:
        code, report = antipode(doubled(h, part), part)
        moved_code, moved_report = antipode(transport(doubled(h, part), t), "moved-" + part)
        assert code == moved_code == 2, part
        assert first_law(report) == first_law(moved_report), part


# --- the generating-set pass --------------------------------------------------
#
# check_axioms checks associativity and Delta-multiplicativity on e_g, g in G,
# first, and on every pair only when that finds a failure.  These inputs pass
# every law before the one that fails, so the pass is engaged, and the report
# must be the reference loops' witnesses cut at the cap.


def bumped_product(h, a, b, c):
    """h with e_a e_b multiplied by c (a unital change when a, b are not the
    unit's index)."""
    product = {key: dict(terms) for key, terms in h.product.items()}
    product[(a, b)] = {k: c * u for k, u in product[(a, b)].items()}
    return FHopf(h.field, h.basis, product, h.unit, h.coproduct, h.counit, h.antipode)


def rescaled_coproduct(h, t, s):
    """h with the coproduct and counit carried along the linear map that
    multiplies e_t by s: a coalgebra again, with the same Delta(1) when t is
    not the unit's index, whose Delta is multiplicative only when that map
    is an algebra map."""
    f = h.field
    scale = [f.one] * h.dim
    scale[t] = s
    coproduct = {i: {(j, k): c * scale[j] * scale[k] / scale[i] for (j, k), c in terms.items()}
                 for i, terms in h.coproduct.items()}
    counit = tuple(c / scale[i] for i, c in enumerate(h.counit))
    return FHopf(f, h.basis, h.product, h.unit, coproduct, counit, h.antipode)


def generator_pass_inputs():
    """(key, Hopf presentation, parity, first failing law) over Q with a
    non-integer factor, F5 and F7: k[Z/n] with g^a g^b rescaled for a, b >= 2
    (not in G = [1]); k[Z/n] and Lambda(m) with the coproduct rescaled at an
    even basis element that is a product; and dense changes of basis of
    some of them."""
    for fname, field in (("Q", Q), ("F5", F5), ("F7", F7)):
        for n in (3, 4, 5):
            seed = "z%d/%s" % (n, fname)
            c = 1 + rational_bump(seed) if field == Q else field.from_int(2)
            h = group_hopf_algebra(GroupTable.cyclic(n), field)
            for a, b in sorted({(2, 2), (n - 1, 2)}):
                yield (seed, "product", a, b), bumped_product(h, a, b, c), (0,) * n, "associativity"
            yield (seed, "coproduct"), rescaled_coproduct(h, 2, c), (0,) * n, "coproduct-multiplicative"
        for m in (2, 3):
            seed = "lambda%d/%s" % (m, fname)
            c = rational_bump(seed) if field == Q else field.from_int(3)
            ext = exterior_hopf(m, field)
            bad = rescaled_coproduct(ext.hopf, m + 1, c)  # e_{m+1} = v1^v2
            yield (seed, "coproduct"), bad, ext.parity, "coproduct-multiplicative"
            if m == 2:
                t = change_of_basis(field, ext.parity, seed)
                yield (seed, "moved"), transport(bad, t), ext.parity, "coproduct-multiplicative"
        h = bumped_product(group_hopf_algebra(GroupTable.cyclic(3), field), 2, 2, field.from_int(2))
        t = change_of_basis(field, (0,) * 3, fname)
        yield (fname, "moved z3"), transport(h, t), (0,) * 3, "associativity"


def test_the_generating_set_pass_reports_what_the_full_loops_report():
    engaged = scaled = 0
    for key, h, parity, law in generator_pass_inputs():
        gens = h.generating_set
        # the pruned weight-order pass finds a G on the dense bases of
        # Lambda(2) too, where the index-order pass keeps more than half
        assert gens is not None and len(gens) < h.dim, key
        expected = ref_hopf_laws(h, parity)
        assert expected[0][0] == law, key
        kind, data = ("super-hopf", SuperPresentation(h, parity)) if any(parity) else ("hopf", h)
        assert check_axioms(kind, data).violations == expected[:MAX_VIOLATIONS], key
        if law == "associativity":
            expected = list(ref_algebra_laws(h.as_algebra()))[:MAX_VIOLATIONS]
            assert check_axioms("algebra", h.as_algebra()).violations == expected, key
            rows = [i for _, (i, j, l) in expected]
        else:
            rows = [i for name, (i, *_) in expected[:MAX_VIOLATIONS]
                    if name == "coproduct-multiplicative"]
        engaged += gens is not None and any(i not in gens for i in rows)
        scaled += has_denominators(h)
    # the full loops report witnesses outside G, and the Q inputs have
    # non-integer constants
    assert engaged > 10 and scaled > 5


def left_leg_weights(h):
    """For each e_i, the nonzero products e_a1 e_b1 over the terms (a1, a2)
    of Delta(e_i): the product terms the left legs of e_i read."""
    return [sum(1 for a1, _ in h.delta_basis(i) for b1 in range(h.dim) if h.product.get((a1, b1)))
            for i in range(h.dim)]


def words_span(h, gens):
    """Whether the left words e_g1 (e_g2 (... (e_gk 1))), g in gens, span h,
    by the test's own echelon form on field scalars."""
    f = h.field
    pivots = {}  # column -> row with 1 there and 0 at every other pivot

    def admit(v):
        for col, row in pivots.items():
            if v[col]:
                v = vadd(v, vscale(-v[col], row))
        col = next((k for k, c in enumerate(v) if c), None)
        if col is None:
            return False
        row = vscale(f.one / v[col], v)
        for other, r in pivots.items():
            if r[col]:
                pivots[other] = vadd(r, vscale(-r[col], row))
        pivots[col] = row
        return True

    frontier = [h.one()] if admit(h.one()) else []
    while frontier:
        w = frontier.pop()
        for g in gens:
            u = h.mult(basis_vec(f, h.dim, g), w)
            if admit(u):
                frontier.append(u)
    return len(pivots) == h.dim


def dense_bases():
    """(key, h, parity) for Lambda(3) and Lambda(2) (x) k[Z/2] over Q and F5,
    each in a seeded dense basis."""
    for fname, field in (("Q", Q), ("F5", F5)):
        z2 = SuperPresentation(group_hopf_algebra(GroupTable.cyclic(2), field), (0, 0))
        bases = (("lambda3", exterior_hopf(3, field).presentation),
                 ("lambda2 z2", super_tensor_product(exterior_hopf(2, field).presentation, z2)))
        for name, sp in bases:
            key = "%s/%s" % (name, fname)
            yield key, transport(sp.hopf, change_of_basis(field, sp.parity, key)), sp.parity


def test_the_generating_set_of_a_dense_basis_has_the_least_weight():
    # on dense bases of Lambda(3) and Lambda(2) (x) k[Z/2], G is the
    # generating set of least weight, and a Delta rescaled at a generator
    # and at an index outside G gives the reference loops' witnesses.  On
    # the local Lambda(3) a set generates exactly when its images span
    # A / (k 1 + rad^2), so the pruned weight-order pass finds the least
    # weight on any basis; on Lambda(2) (x) k[Z/2] no such bound holds,
    # and some other dense bases have a lighter generating set
    for key, h, parity in dense_bases():
        field = h.field
        gens, weight = h.generating_set, left_leg_weights(h)
        assert gens is not None and words_span(h, gens), key
        least = sum(weight[g] for g in gens)
        for r in range(1, h.dim):
            for sub in itertools.combinations(range(h.dim), r):
                if sum(weight[g] for g in sub) < least:
                    assert not words_span(h, sub), (key, sub)
        assert check_axioms("super-hopf", SuperPresentation(h, parity)).ok, key
        outside = next(i for i in range(h.dim) if i not in gens)
        for t in (gens[0], outside):
            c = 1 + rational_bump(key) if field == Q else field.from_int(2)
            bad = rescaled_coproduct(h, t, c)
            expected = ref_hopf_laws(bad, parity)
            assert expected, (key, t)
            found = check_axioms("super-hopf", SuperPresentation(bad, parity)).violations
            assert found == expected[:MAX_VIOLATIONS], (key, t)


def generating_set_inputs():
    """(key, h): the bialgebras of the corpus files and their duals,
    Lambda(0..6) over Q and F7, and the dense bases of `dense_bases`."""
    for name in sorted(os.listdir(CORPUS)):
        pres = parse_presentation(os.path.join(CORPUS, name))
        payload = pres.payload
        if pres.kind in ("bialgebra", "hopf"):
            h = payload
        elif pres.kind == "hmodule":
            h = payload[0].hopf
        elif pres.kind == "lift-problem":
            h = payload[0].hopf
        elif hasattr(payload, "hopf"):
            h = payload.hopf
        else:
            continue
        yield name, h
        yield name + " dual", dual_structure(h)
    for fname, field in (("Q", Q), ("F7", F7)):
        for n in range(7):
            yield "lambda%d/%s" % (n, fname), exterior_hopf(n, field).hopf
    for key, h, _ in dense_bases():
        yield key, h


def corpus_algebras():
    """(key, a): the algebra blocks of the corpus files, with the crossed
    product of the crossed system."""
    for name in sorted(os.listdir(CORPUS)):
        payload = parse_presentation(os.path.join(CORPUS, name)).payload
        for s, part in enumerate(payload if isinstance(payload, tuple) else (payload,)):
            for attr in ("algebra", "base", "aug"):
                a = getattr(part, attr, None)
                a = getattr(a, "algebra", None) if attr == "aug" else a
                if isinstance(a, _Algebra) and not isinstance(a, _Coalgebra):
                    yield "%s %d %s" % (name, s, attr), a


def occurrence_weights(a):
    """For each e_k, the products e_i e_j in which it occurs."""
    return [sum(1 for prod in a.product.values() if prod.get(k)) for k in range(a.dim)]


def index_order_generators(a):
    """The greedy pass over the indices in index order, capped at half the
    basis: G's rule before the weight order."""
    lower, d, _ = _lowering((a,))
    return _greedy_generators(a.lowered_rows(d), _lowered(a.native_unit, lower), a.dim,
                              a.field.characteristic or WORD_PRIME, range(a.dim), a.dim // 2)


def test_the_generating_set_weighs_no_more_than_the_index_order_pass():
    # G is one pass in increasing weight; wherever the capped pass in index
    # order finds a G, so does G's rule, and its G weighs no more
    inputs = [(key, h, left_leg_weights(h)) for key, h in generating_set_inputs()]
    inputs += [(key, a, occurrence_weights(a)) for key, a in corpus_algebras()]
    compared = lighter = 0
    for key, a, weight in inputs:
        index = index_order_generators(a)
        if index is None:
            continue
        gens = a.generating_set
        assert gens is not None and words_span(a, gens), key
        least, other = (sum(weight[g] for g in s) for s in (gens, index))
        assert least <= other, key
        compared += 1
        lighter += least < other
    assert compared > 40 and lighter >= 4


def square_zero(field, dim):
    """k + V with V^2 = 0: e_0 the unit, e_i e_j = 0 for i, j >= 1."""
    one = field.one
    product = {(0, 0): {0: one}}
    for i in range(1, dim):
        product[(0, i)] = product[(i, 0)] = {i: one}
    return FAlgebra(field, tuple("e%d" % i for i in range(dim)), product, basis_vec(field, dim, 0))


@pytest.mark.parametrize("make", [
    lambda: rescaled(dual_structure(group_hopf_algebra(GroupTable.symmetric(4), F5)), 2),
    lambda: rescaled(dual_structure(group_hopf_algebra(GroupTable.symmetric(4), Q)), 2),
    lambda: square_zero(Q, 48),
], ids=["k^S4 rescaled/F5", "k^S4 rescaled/Q", "k + V, V^2 = 0, dim 48"])
def test_an_algebra_with_no_small_generating_set_takes_one_capped_pass(make, monkeypatch):
    # no basis here is orthogonal idempotents, yet G would keep more than
    # half of it; the weights are uniform or there is no coproduct, so one
    # pass capped at half the basis gives up and nothing is pruned
    a = make()
    caps = []
    real = hopfcross.algebra._greedy_generators

    def spy(rows, unit, dim, p, order, cap):
        caps.append(cap)
        return real(rows, unit, dim, p, order, cap)

    monkeypatch.setattr(hopfcross.algebra, "_greedy_generators", spy)
    assert a.generating_set is None
    assert caps == [a.dim // 2]


@pytest.mark.parametrize("group", [GroupTable.symmetric(4), GroupTable.cyclic(12)],
                         ids=["S4", "Z12"])
@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_orthogonal_idempotents_are_read_off_without_a_greedy_pass(field, group, monkeypatch):
    # k^G has no G of at most half its basis, and its product table says so
    # at once; the report is the one the greedy passes lead to
    passes = []
    real = hopfcross.algebra._greedy_generators

    def spy(rows, *args):
        passes.append(rows)
        return real(rows, *args)

    monkeypatch.setattr(hopfcross.algebra, "_greedy_generators", spy)
    kg = dual_structure(group_hopf_algebra(group, field))
    report = check_axioms("hopf", kg)
    assert kg.generating_set is None
    assert all(rows is not kg.lowered_rows(kg.denominator) for rows in passes)
    monkeypatch.setattr(hopfcross.algebra, "_orthogonal_idempotents", lambda *args: False)
    passes.clear()
    again = dual_structure(group_hopf_algebra(group, field))
    assert repr(check_axioms("hopf", again)) == repr(report) == "AxiomReport(hopf: pass)"
    assert again.generating_set is None
    assert any(rows is again.lowered_rows(again.denominator) for rows in passes)
    for part in PARTS:
        bad = doubled(kg, part)
        assert check_axioms("hopf", bad).violations == ref_hopf_laws(bad, (0,) * bad.dim)[
            :MAX_VIOLATIONS], part


def degree_one(h):
    return [i for i, label in enumerate(h.basis) if label.startswith("v") and "^" not in label]


@pytest.mark.parametrize("field", [Q, F7])
def test_exterior_algebras_are_generated_in_degree_one(field):
    for n in range(6):
        h = exterior_hopf(n, field).hopf
        assert h.generating_set == degree_one(h)
    assert kz3(field).generating_set == [1]


def count_left_legs(monkeypatch):
    calls = []

    def counted(rows, delta):
        calls.append(delta)
        return _left_legs(rows, delta)

    monkeypatch.setattr("hopfcross.algebra._left_legs", counted)
    return calls


def test_lambda6_builds_left_legs_for_its_generators_only(monkeypatch):
    ext = exterior_hopf(6, F7)
    calls = count_left_legs(monkeypatch)
    assert check_axioms("super-hopf", ext).ok
    assert len(calls) == 6


def test_a_basis_of_orthogonal_idempotents_takes_the_dual_set(monkeypatch):
    # on k^S4, G would keep 23 of the 24 indices in either order, so the
    # pass gives up; the dual k[S4] is generated by a few group elements, so
    # k^S4 is decided as k[S4], whose Delta-multiplicativity builds the left
    # legs of k[S4]'s generators only
    dual = dual_structure(group_hopf_algebra(GroupTable.symmetric(4), F5))
    assert dual.generating_set is None
    gens = dual_structure(dual).generating_set
    assert 0 < len(gens) <= 3
    calls = count_left_legs(monkeypatch)
    assert check_axioms("hopf", dual).ok
    assert len(calls) == len(gens)


def test_a_failed_unit_law_takes_the_full_loops(monkeypatch):
    # e_1 e_0 rescaled breaks the left unit law at 1, so neither law gets G;
    # the witnesses are the reference loops' and e_i's left legs are built
    # for every i
    ext = exterior_hopf(2, Q)
    h = bumped_product(ext.hopf, 0, 1, Fraction(2, 3))
    expected = ref_hopf_laws(h, ext.parity)
    # the list fits under the cap and ends in the antipode laws, so every
    # law before them ran to its end
    assert len(expected) <= MAX_VIOLATIONS
    assert expected[0] == ("left-unit", (1,)) and expected[-1][0] == "antipode-left"
    assert ("coproduct-multiplicative", (3, 1)) in expected  # e_3 is not in G
    calls = count_left_legs(monkeypatch)
    assert check_axioms("super-hopf", SuperPresentation(h, ext.parity)).violations == expected
    assert len(calls) == h.dim


# --- the coalgebra laws of the pass over G ------------------------------------
#
# The pass over G runs coassociativity and the counit laws on e_g for g in G
# only.  A coproduct or counit moved at an index outside G breaks one of them
# there, which the pass never evaluates; it still finds a witness, through
# Delta- or eps-multiplicativity, and the full loops report what the
# reference loops do.


def moved_at(h, part, i, c):
    """h with c e_0 (x) e_i added to Delta(e_i), which keeps every parity, or
    with c added to eps(e_i)."""
    coproduct = {j: dict(terms) for j, terms in h.coproduct.items()}
    counit = list(h.counit)
    if part == "coproduct":
        terms = coproduct.setdefault(i, {})
        terms[(0, i)] = terms.get((0, i), h.field.zero) + c
    else:
        counit[i] += c
    return FHopf(h.field, h.basis, h.product, h.unit, coproduct, tuple(counit), h.antipode)


def moved_outside_generators():
    """(key, moved presentation, parity, index) for Lambda(2) and Lambda(3)
    over F5 and Q and k[Z/3] over Q, with e_0 the unit: Delta moved at each
    index outside G but the unit's, and eps at each even one (an odd
    index with a counit value fails a parity law first)."""
    bases = [(("lambda%d" % m, fname), exterior_hopf(m, field))
             for fname, field in (("F5", F5), ("Q", Q)) for m in (2, 3)]
    bases = [(key, ext.hopf, ext.parity) for key, ext in bases]
    bases.append((("kZ3", "Q"), kz3(Q), (0,) * 3))
    for key, h, parity in bases:
        f = h.field
        assert h.unit == basis_vec(f, h.dim, 0)
        for i in range(1, h.dim):
            if i in h.generating_set:
                continue
            for part in ("coproduct", "counit")[:1 + (parity[i] == 0)]:
                seed = key + (part, i)
                c = rational_bump("%s/%s/%s/%d" % seed) if f == Q else f.from_int(2)
                yield seed, moved_at(h, part, i, c), parity, i


def test_the_pass_over_g_finds_coalgebra_failures_outside_g():
    first_laws = set()
    for key, h, parity, i in moved_outside_generators():
        expected = expected_laws(h, parity)
        name, index = expected[0]
        assert name in ("coassociativity", "counit-left", "counit-right") and index == (i,), key
        first_laws.add(name)
        assert uncapped_check(h, parity) == expected, key
        kind = "super-hopf" if any(parity) else "hopf"
        data = SuperPresentation(h, parity) if any(parity) else h
        assert check_axioms(kind, data).violations == expected[:MAX_VIOLATIONS], key
        # the pass over G does not evaluate the law that fails first, and
        # still finds a witness
        witness = next(_laws(kind, h, parity, h.generating_set), None)
        assert witness is not None, key
        assert witness[0] in ("coproduct-multiplicative", "counit-multiplicative"), key
    assert first_laws == {"coassociativity", "counit-left"}


def test_a_passing_lambda4_evaluates_coassociativity_on_g_only(monkeypatch):
    calls = []
    real = hopfcross.algebra._coassociator

    def counted(coproduct, dim, i):
        calls.append(i)
        return real(coproduct, dim, i)

    monkeypatch.setattr(hopfcross.algebra, "_coassociator", counted)
    ext = ExteriorHopf(4, Q)  # not yet checked
    assert check_axioms("super-hopf", ext.presentation).ok
    assert calls == ext.hopf.generating_set == degree_one(ext.hopf)


# --- the generating sets of A and A*, against the reference loops ------------
#
# Inputs with no G of their own but a G* (k^G, whose basis is orthogonal
# idempotents), inputs whose G only the occurrence order finds (signed
# permutations of Lambda(m)), each intact and corrupted.  check_axioms runs
# uncapped here, so every witness of every law is compared.


def uncapped_check(h, parity):
    kind, data = ("super-hopf", SuperPresentation(h, parity)) if any(parity) else ("hopf", h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hopfcross.algebra.MAX_VIOLATIONS", 10 ** 9)
        return check_axioms(kind, data).violations


def ref_parity_laws(h, p):
    """The parity laws as ordered loops over every basis pair (i, j) and the
    dense antipode columns, kept as the oracle for the sparse pass."""
    for i in range(h.dim):
        for j in range(h.dim):
            for k in h.mult_basis(i, j):
                if p[k] != (p[i] + p[j]) % 2:
                    yield ("product-parity", (i, j, k))
        for (j, k) in h.delta_basis(i):
            if (p[j] + p[k]) % 2 != p[i]:
                yield ("coproduct-parity", (i, j, k))
        if p[i] and h.counit[i]:
            yield ("counit-parity", (i,))
        if p[i] and h.unit[i]:
            yield ("unit-parity", (i,))
        for k, c in enumerate(h.antipode.col(i)):
            if c and p[k] != p[i]:
                yield ("antipode-parity", (i, k))


def expected_laws(h, parity):
    """The reference loops' witnesses, after the parity laws a super check
    runs first (a bump at an odd index breaks those)."""
    return list(ref_parity_laws(h, parity)) + ref_hopf_laws(h, parity)


PARITY_LAWS = ("product", "coproduct", "counit", "unit", "antipode")


def parity_broken(h, p, laws, c):
    """h with constants of the wrong parity added for each named law: two
    odd-odd products e_i e_j landing on an odd index, for one i and two j,
    the first a new key of the product table (so the table's key order is
    not j's), a coproduct term of odd total parity on an even index, a
    counit and a unit value at an odd index, and two antipode entries
    taking an even index to odd ones."""
    odd = [t for t in range(h.dim) if p[t]]
    even = [t for t in range(h.dim) if not p[t]]
    product = {key: dict(terms) for key, terms in h.product.items()}
    coproduct = {i: dict(terms) for i, terms in h.coproduct.items()}
    unit, counit = list(h.unit), list(h.counit)
    antipode = [list(row) for row in h.antipode.data]
    zero = h.field.zero
    if "product" in laws:
        for j in (odd[0], odd[-1]):
            terms = product.setdefault((odd[0], j), {})
            terms[odd[1]] = terms.get(odd[1], zero) + c
    if "coproduct" in laws:
        terms = coproduct.setdefault(even[-1], {})
        terms[(odd[0], even[0])] = terms.get((odd[0], even[0]), zero) + c
    if "counit" in laws:
        counit[odd[-1]] += c
    if "unit" in laws:
        unit[odd[0]] += c
    if "antipode" in laws:
        for k in (odd[0], odd[-1]):
            antipode[k][even[-1]] += c
    return FHopf(h.field, h.basis, product, tuple(unit), coproduct, tuple(counit),
                 Matrix(h.field, antipode))


def test_parity_witnesses_match_the_reference_loops():
    # each parity law broken once, then all five at once, on Lambda(2) and
    # Lambda(3) over F5 and Q: the sparse pass gives the reference loops'
    # parity witnesses, and check_axioms, uncapped and capped, the reference
    # witnesses of every law in order
    for fname, field in (("F5", F5), ("Q", Q)):
        for m in (2, 3):
            ext = exterior_hopf(m, field)
            h, p = ext.hopf, ext.parity
            assert list(_parity_laws(h, p)) == [], (fname, m)
            for laws in [(law,) for law in PARITY_LAWS] + [PARITY_LAWS]:
                key = (fname, m, laws)
                c = rational_bump("parity/%s/%d/%s" % key) if field == Q else field.from_int(2)
                bad = parity_broken(h, p, laws, c)
                ref = list(ref_parity_laws(bad, p))
                assert {name for name, _ in ref} == {law + "-parity" for law in laws}, key
                assert list(_parity_laws(bad, p)) == ref, key
                expected = expected_laws(bad, p)
                assert uncapped_check(bad, p) == expected, key
                assert check_axioms("super-hopf", SuperPresentation(bad, p)).violations == (
                    expected[:MAX_VIOLATIONS]), key


def signed_permutation(field, parity, seed):
    """(t, target): a seeded parity-preserving permutation matrix with signs
    +-1, whose column i is +-e_target[i]."""
    rng = random.Random("signed:%s" % (seed,))
    dim = len(parity)
    target = list(range(dim))
    for bit in (0, 1):
        block = [i for i in range(dim) if parity[i] == bit]
        for i, j in zip(block, rng.sample(block, len(block))):
            target[i] = j
    cols = [tuple(field.from_int(rng.choice((1, -1))) if j == target[i] else field.zero
                  for j in range(dim)) for i in range(dim)]
    return Matrix.from_cols(field, cols), target


def function_algebra(vectors, field):
    """k^X, X = range(n), with its pointwise product and the coproduct dual to
    the componentwise product of k^n on the basis u_x = vectors[x], so that
    its dual algebra is k^n on that basis.  Every u_x has first coordinate 1,
    so Delta(1) = 1 (x) 1.  When u_0 = (1, ..., 1) the counit is eps(e_x) =
    [x = 0] and every law before Delta-multiplicativity holds, while Delta is
    multiplicative only when the u_x are closed under the product; otherwise
    eps is the coordinates of (1, ..., 1) and is not multiplicative.  (A
    single coproduct entry of k^G cannot break Delta-multiplicativity alone:
    Delta(1) = 1 (x) 1 says that the entries of each (x, y) sum to 1.)"""
    n = len(vectors)
    t = Matrix.from_cols(field, [tuple(v) for v in vectors])
    tinv = t.inverse()
    coproduct = {k: {} for k in range(n)}
    for x, u in enumerate(vectors):
        for y, v in enumerate(vectors):
            for k, c in enumerate(tinv.apply(tuple(a * b for a, b in zip(u, v)))):
                if c:
                    coproduct[k][(x, y)] = c
    product = {(x, x): {x: field.one} for x in range(n)}
    return FHopf(field, tuple("d%d" % x for x in range(n)), product, (field.one,) * n, coproduct,
                 tinv.apply((field.one,) * n), Matrix.identity(field, n))


def deformed_function_algebra(field, n, seed, unital=True):
    """function_algebra on seeded vectors: u_0 = (1, ..., 1) when unital,
    else a seeded vector with first coordinate 1, and u_x for x >= 1 seeded
    with first coordinate 1; drawn again until they are a basis and the dual
    algebra has a G."""
    rng = random.Random("deformed:%s" % (seed,))
    while True:
        vectors = [[field.one] + [field.from_int(rng.randrange(-3, 4)) for _ in range(n - 1)]
                   for _ in range(n)]
        if unital:
            vectors[0] = [field.one] * n
        if Matrix.from_cols(field, [tuple(v) for v in vectors]).det():
            h = function_algebra(vectors, field)
            if dual_structure(h).generating_set is not None:
                return h


DUAL_PASS_FIELDS = (("Q", Q), ("F5", F5), ("F7", F7))


def dual_pass_inputs():
    """(key, Hopf presentation, parity): k^{Z/n} for n = 3..6, k^{S3}, k^{S4}
    and seeded signed permutations of Lambda(m), m <= 4, over Q (non-integer
    bumps), F5 and F7, intact and with a coproduct entry, a counit entry and
    a product entry bumped; k^n with a coproduct dual to a seeded deformation
    of k^n, which breaks Delta-multiplicativity alone (or with u_0 moved,
    counit-multiplicativity), and one that only the counit-multiplicativity
    premise keeps off the pass over G*; Lambda(m) with its coproduct carried
    along e_t -> c e_t for a degree-two e_t, which breaks
    Delta-multiplicativity alone."""
    for fname, field in DUAL_PASS_FIELDS:
        bases = [("kZ%d" % n, dual_structure(group_hopf_algebra(GroupTable.cyclic(n), field)),
                  (0,) * n) for n in range(3, 7)]
        for name, table in (("kS3", GroupTable.symmetric(3)), ("kS4", GroupTable.symmetric(4))):
            h = dual_structure(group_hopf_algebra(table, field))
            bases.append((name, h, (0,) * h.dim))
        for m in range(1, 5):
            ext = exterior_hopf(m, field)
            t, target = signed_permutation(field, ext.parity, "lambda%d/%s" % (m, fname))
            h = transport(ext.hopf, t)
            bases.append(("lambda%d" % m, h, ext.parity))
            if m >= 2:
                bump = 1 + rational_bump(fname) if field == Q else field.from_int(2)
                # transport keeps the labels, so e_i is +-e_target[i] of Lambda(m)
                degree_two = next(i for i in range(h.dim)
                                  if ext.hopf.basis[target[i]].count("^") == 1)
                bases.append(("lambda%d-rescaled" % m, rescaled_coproduct(h, degree_two, bump),
                              ext.parity))
        for n in range(3, 7):
            for unital in (True, False):
                seed = "%s/%d/%s" % (fname, n, unital)
                h = deformed_function_algebra(field, n, seed, unital)
                bases.append(("deformed%d%s" % (n, "" if unital else "-counit"), h, (0,) * n))
        # on u = (1, 0, -1), (1, 0, 1), (1, 1, -1) the dual is generated by
        # u_0, and u_0 u_y is some u_z for every y while u_2 u_2 = (1, 1, 1)
        # is not: the pass over G* finds no failure, but eps is not
        # multiplicative, which the dual reports first as coproduct-of-unit,
        # so that pass may not run and the full loop reports
        one = (field.one, field.zero, -field.one)
        bases.append(("monoid-counit", function_algebra(
            [one, (field.one, field.zero, field.one), (field.one, field.one, -field.one)], field),
            (0,) * 3))
        for name, h, parity in bases:
            yield (name, fname), h, parity
            if "-" in name:
                continue
            for part in ("coproduct", "counit", "product"):
                seed = "%s/%s/%s" % (name, fname, part)
                bump = rational_bump(seed) if field == Q else None
                yield (name, fname, part), corrupt(h, part, seed, bump), parity


def test_the_dual_generating_set_reports_what_the_full_loops_report():
    first_laws, dual_engaged, dual_failed, scaled = set(), 0, set(), 0
    for key, h, parity in dual_pass_inputs():
        expected = expected_laws(h, parity)
        assert uncapped_check(h, parity) == expected, key
        first = expected[0][0] if expected else None
        first_laws.add(first)
        if h.generating_set is not None:
            assert len(h.generating_set) < h.dim, key
        elif dual_structure(h).generating_set is not None:
            dual_engaged += 1
            if first in ("coproduct-multiplicative", "counit-multiplicative"):
                dual_failed.update(name for name, _ in expected)
        else:
            assert key[2:] in (("counit",), ("coproduct",)), key  # the dual unit or product moved
        scaled += has_denominators(h)
    # every class of input is reached: passing ones, and failures at the
    # law the dual pass certifies, at its premises and before it
    assert {None, "associativity", "coassociativity", "counit-left",
            "coproduct-multiplicative"} <= first_laws
    assert {"coproduct-multiplicative", "counit-multiplicative"} <= dual_failed
    assert dual_engaged > 50 and scaled > 20


# --- duality: A passes exactly when A* does ----------------------------------
#
# check_axioms may decide A on A* (see algebra.py), which is sound because
# each law of A* is a law of A transposed.  Both verdicts are compared here,
# and with the full loops on A*, which no generating set shortens.


def duality_inputs():
    """(key, kind, structure, parity): the Hopf corpus (monoid2 as a
    bialgebra), intact and with seeded corruptions of each part it has, and
    every input of dual_pass_inputs and generator_pass_inputs."""
    for name in HOPF_CORPUS:
        pres = parse_presentation(os.path.join(CORPUS, name))
        kind, h = pres.kind, pres.payload
        h, parity = (h.hopf, h.parity) if kind == "super-hopf" else (h, (0,) * h.dim)
        yield (name,), kind, h, parity
        f = h.field
        if kind == "bialgebra":  # corrupt reads an antipode
            h = FHopf(f, h.basis, h.product, h.unit, h.coproduct, h.counit,
                      Matrix.identity(f, h.dim))
        for part in PARTS[:4] if kind == "bialgebra" else PARTS:
            for seed in range(3):
                bad = corrupt(h, part, "dual/%s/%s/%d" % (name, part, seed))
                if kind == "bialgebra":
                    bad = FBialgebra(f, bad.basis, bad.product, bad.unit, bad.coproduct,
                                     bad.counit)
                yield (name, part, seed), kind, bad, parity
    for key, h, parity in chain(dual_pass_inputs(),
                                (inp[:3] for inp in generator_pass_inputs())):
        yield key, "super-hopf" if any(parity) else "hopf", h, parity


def test_a_structure_passes_exactly_when_its_dual_does():
    verdicts = {True: 0, False: 0}
    for key, kind, h, parity in duality_inputs():
        dual = dual_structure(h)

        def passes(s):
            return check_axioms(kind, SuperPresentation(s, parity) if kind == "super-hopf"
                                else s).ok

        ok = passes(h)
        assert passes(dual) == ok, key
        assert (next(_laws(kind, dual, parity, None), None) is None) == ok, key
        verdicts[ok] += 1
    assert verdicts[True] > 30 and verdicts[False] > 100


def test_signed_permutations_of_lambda_are_generated_in_degree_one():
    # whatever the index order, the pass in increasing weight keeps exactly
    # the m degree-one monomials
    for fname, field in DUAL_PASS_FIELDS:
        for m in range(1, 5):
            ext = exterior_hopf(m, field)
            t, target = signed_permutation(field, ext.parity, "lambda%d/%s" % (m, fname))
            h = transport(ext.hopf, t)
            assert sorted(target[g] for g in h.generating_set) == degree_one(ext.hopf)


def test_a_super_input_takes_the_dual_pass(monkeypatch):
    # Lambda(1) (x) k^{Z/3}: the idempotents leave the algebra without a G,
    # while its dual Lambda(1) (x) k[Z/3] is generated by v and a group
    # generator
    even = dual_structure(group_hopf_algebra(GroupTable.cyclic(3), F7))
    sp = super_tensor_product(exterior_hopf(1, F7).presentation,
                              SuperPresentation(even, (0,) * 3))
    h = FHopf(F7, sp.hopf.basis, sp.hopf.product, sp.hopf.unit, sp.hopf.coproduct,
              sp.hopf.counit, sp.hopf.antipode)  # nothing cached yet
    assert h.generating_set is None and len(dual_structure(h).generating_set) == 2
    calls = count_left_legs(monkeypatch)
    assert check_axioms("super-hopf", SuperPresentation(h, sp.parity)).ok
    assert len(calls) == 2
    for part in ("coproduct", "product"):
        bad = corrupt(h, part, "super/" + part)
        assert uncapped_check(bad, sp.parity) == expected_laws(bad, sp.parity)


def test_a_signed_permutation_keeps_the_verdict_and_the_witnesses():
    # the witnesses of the moved input are those of the input, with each
    # index i read as target[i], so the verdict is kept and the first witness
    # is one of the input's; which one comes first follows the new index
    # order (left-unit and right-unit, say, alternate per index)
    moved = 0
    for key, h, parity in dual_pass_inputs():
        t, target = signed_permutation(h.field, parity, key)
        expected = uncapped_check(h, parity)
        found = [(name, tuple(target[i] for i in idx))
                 for name, idx in uncapped_check(transport(h, t), parity)]
        assert bool(found) == bool(expected), key
        assert set(found) == set(expected) and len(found) == len(expected), key
        moved += bool(expected)
    assert moved > 50


def seeded_corruptions(m, seed, count=4):
    """count copies of the map m, each with one seeded entry bumped."""
    rng = random.Random("map:%s" % (seed,))
    f = m.field
    for _ in range(count):
        rows = [list(row) for row in m.data]
        rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += f.from_int(rng.randrange(1, 4))
        yield Matrix(f, rows)


def test_algebra_maps_on_a_generating_set_report_what_the_full_loop_reports(monkeypatch):
    # the map decompose certifies with the source's G, alpha, intact and
    # with seeded corruptions; duality_pairing certifies none, since its iso
    # is the identity between equal presentations
    recorded = []
    require = hopfcross.superalg.require_morphism

    def recording(m, what, generators=None, **laws):
        if generators is not None:
            recorded.append((what, m, laws["algebra"], generators))
        return require(m, what, generators=generators, **laws)

    monkeypatch.setattr(hopfcross.superalg, "require_morphism", recording)
    for field in (Q, F5, F7):
        ext = exterior_hopf(3, field)
        t, _ = signed_permutation(field, ext.parity, "decompose")
        decompose(SuperPresentation(transport(ext.hopf, t), ext.parity))
        duality_pairing(3, field)
    assert {what.split(" ")[0] for what, *_ in recorded} == {"alpha"}
    failing = 0
    for what, m, (src, dst), gens in recorded:
        for bad in chain([m], seeded_corruptions(m, what)):
            cols = bad.native_cols()
            expected = list(algebra_map_violations(src, dst, cols))
            assert list(algebra_map_violations(src, dst, cols, gens)) == expected, what
            if not isinstance(dst, tuple):
                assert expected == list(ref_algebra_map_violations(src, dst, bad)), what
            failing += bool(expected)
    assert failing > 10


# --- lowered constants, once per structure and scale -------------------------


def rescaled(h, s):
    """h in the basis e_0, e_1 / s, ..., e_(d-1) / s: over Q and with e_0 the
    unit, its products carry the denominator s."""
    f = h.field
    inv = f.one / f.from_int(s)
    return transport(h, Matrix(f, [[(f.one if i == 0 else inv) if i == j else f.zero
                                     for j in range(h.dim)] for i in range(h.dim)]))


def fresh_native_terms(field, terms):
    """Sparse terms {key: c} of field scalars on native scalars, afresh."""
    return {k: c.value if field.characteristic else c for k, c in terms.items() if c}


def fresh_native_rows(a):
    """The native product rows of a, built afresh from its constants."""
    rows = {}
    for (i, j), terms in a.product.items():
        rows.setdefault(i, {})[j] = fresh_native_terms(a.field, terms)
    return rows


def fresh_lowered_coproduct(c, d):
    """The coproduct of c on native scalars lowered at scale d, built afresh
    from its constants."""
    return {i: _lowered(fresh_native_terms(c.field, terms), _lower(c.field, d))
            for i, terms in c.coproduct.items()}


def ref_lowered_per_call(run):
    """run(), with every product table and coproduct lowered afresh each time
    a kernel reads it, as nothing is cached."""
    def rows(a, d):
        return _product_rows(fresh_native_rows(a), _lower(a.field, d))

    # the shared implementations, which algebras, coalgebras and bialgebras
    # all read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Algebra, "lowered_rows", rows)
        mp.setattr(_Coalgebra, "lowered_coproduct", fresh_lowered_coproduct)
        return run()


def cached_scales_inputs(field):
    """(name, src, dst, bad, maps) per stock Hopf algebra, with bad a copy of
    src with one product bumped.  Over Q the products of src
    carry the denominator 2, those of dst 3, and every map but the algebra
    map src -> dst (diag(1, 3/2, ...)) the denominator 5, so the kernels read
    one object's rows at several scales in turn; over F5 the 1/5 is a 2."""
    fifth = field.one / field.from_int(5) if field == Q else field.from_int(2)
    for name, make in STOCK:
        h = make(field)
        src, dst = rescaled(h, 2), rescaled(h, 3)
        ratio = field.from_int(3) / field.from_int(2)
        m = Matrix(field, [[(field.one if i == 0 else ratio) if i == j else field.zero
                            for j in range(h.dim)] for i in range(h.dim)])
        nudged = [list(row) for row in m.data]
        nudged[0][1] += fifth
        rng = random.Random(name)
        dense = Matrix(field, [[fifth * field.from_int(rng.randrange(-3, 4)) for _ in range(h.dim)]
                               for _ in range(h.dim)])
        bad = corrupt(src, "product", name, fifth)
        yield name, src, dst, bad, (m, Matrix(field, nudged), dense)


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_cached_lowering_gives_the_witnesses_of_a_lowering_per_call(field):
    cases = 0
    for name, src, dst, bad, maps in cached_scales_inputs(field):
        for _ in range(2):  # the second pass reads what the first one cached
            for x, y, m in [(src, dst, mm) for mm in maps] + [(bad, dst, maps[0])]:
                expected = list(ref_algebra_map_violations(x, y, m))
                cols = m.native_cols()
                assert list(algebra_map_violations(x, y, cols)) == expected, name
                found = ref_lowered_per_call(lambda: list(algebra_map_violations(x, y, cols)))
                assert found == expected
                cases += bool(expected)
            for x in (src, dst, bad):
                for kind, view in views(x).items():
                    found = check_axioms(kind, view).violations
                    assert found == ref_lowered_per_call(lambda: check_axioms(kind, view).violations)
                    cases += bool(found)
    assert cases > 20


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_cached_rows_equal_a_fresh_lowering(field):
    for name, src, dst, bad, maps in cached_scales_inputs(field):
        for m in maps:
            list(algebra_map_violations(src, dst, m.native_cols()))
            list(algebra_map_violations(bad, dst, m.native_cols()))
        for x in (src, dst, bad):
            check_axioms("hopf", x)
            convolution_invert(x.as_coalgebra(), x.as_algebra(), Matrix.identity(field, x.dim))
            alg, coalg = x.as_algebra(), x.as_coalgebra()
            assert alg._rows and coalg._terms
            if field == Q and x is src:
                assert len(alg._rows) > 1  # read at more than one scale
            for d, rows in alg._rows.items():
                assert rows == _product_rows(fresh_native_rows(x), _lower(field, d)), (name, d)
            for d, terms in coalg._terms.items():
                assert terms == fresh_lowered_coproduct(x, d)


def count_lowerings(monkeypatch):
    calls = []

    def counted(product, lower):
        calls.append(product)
        return _product_rows(product, lower)

    monkeypatch.setattr("hopfcross.algebra._product_rows", counted)
    return calls


def test_compute_antipode_lowers_the_product_table_once(monkeypatch):
    # the bialgebra check, the convolution inverse, its two-sided check and
    # the antipode laws of the result all read one lowering of k[Z/12]
    h = group_hopf_algebra(GroupTable.cyclic(12), Q)
    b = FBialgebra(Q, h.basis, h.product, h.unit, h.coproduct, h.counit)
    calls = count_lowerings(monkeypatch)
    hopf = compute_antipode(b)
    assert hopf.antipode == h.antipode and len(calls) == 1
    assert hopf.native_unit is b.native_unit and hopf.native_counit is b.native_counit


def test_a_super_axiom_check_lowers_the_product_table_once(monkeypatch):
    ext = ExteriorHopf(4, Q)  # not yet checked
    calls = count_lowerings(monkeypatch)
    assert check_axioms("super-hopf", ext.presentation).ok
    assert len(calls) == 1


def test_equal_presentations_keep_their_own_lowered_rows(monkeypatch):
    a, b = kz3(Q), kz3(Q)
    assert a.product == b.product and a is not b
    calls = count_lowerings(monkeypatch)
    rows = a.lowered_rows(1)
    assert a.lowered_rows(1) is rows and len(calls) == 1
    assert b.lowered_rows(1) is not rows and len(calls) == 2
    assert b.lowered_rows(1) == rows and len(calls) == 2


def fractional_kz3():
    """k[Z/3] over Q in the basis e_0 / 3, e_1 / 2, e_2 / 5: its constants
    have the denominators 2, 3 and 5 (lcm 300, 30 in the coproduct and
    counit)."""
    h = kz3(Q)
    return transport(h, Matrix(Q, [[Fraction(1, 3), 0, 0], [0, Fraction(1, 2), 0],
                                   [0, 0, Fraction(1, 5)]]))


def test_a_structure_gathers_its_denominators_once(monkeypatch):
    h = fractional_kz3()
    b = FBialgebra(Q, h.basis, h.product, h.unit, h.coproduct, h.counit)
    gathered = []  # every denominator is gathered through these two readers
    for cls in (_Algebra, _Coalgebra):
        constants = cls._constants

        def counted(self, constants=constants, cls=cls):
            gathered.append((cls, self))
            return constants(self)

        monkeypatch.setattr(cls, "_constants", counted)
    for _ in range(2):
        for x in (h, b):
            assert check_axioms("hopf" if x is h else "bialgebra", x).ok
            identity = Matrix.identity(Q, 3)
            assert not list(algebra_map_violations(x, x, identity.native_cols()))
            assert convolution_invert(x, x, identity) == h.antipode
        assert compute_antipode(b).antipode == h.antipode
    # a dozen kernels read h and b, and each object gathered its
    # denominators once; the views gather their own
    assert gathered == [(_Algebra, h), (_Coalgebra, h), (_Algebra, b), (_Coalgebra, b)]
    assert h.denominator == b.denominator == 300
    alg, coalg = h.as_algebra(), h.as_coalgebra()
    assert check_axioms("algebra", alg).ok and check_axioms("coalgebra", coalg).ok
    assert (alg.denominator, coalg.denominator) == (300, 30)
    assert gathered[4:] == [(_Algebra, alg), (_Coalgebra, coalg)]


STRUCTURE_OPERATIONS = ("mult", "mult_basis", "one", "lowered_rows", "delta", "delta_basis",
                        "lowered_coproduct")


def test_a_bialgebra_shares_the_operations_of_algebras_and_coalgebras():
    for name in STRUCTURE_OPERATIONS:
        owners = [cls for cls in (FAlgebra, FCoalgebra) if hasattr(cls, name)]
        assert len(owners) == 1, name
        assert getattr(FBialgebra, name) is getattr(owners[0], name), name
    # a bialgebra defines no operation of its own and is neither an FAlgebra
    # nor an FCoalgebra, so code that tells the kinds apart by isinstance
    # keeps its coalgebra
    own = {name for name in vars(FBialgebra) if not name.startswith("__")}
    assert own == {"as_algebra", "as_coalgebra", "canonical_constants"}
    h = sweedler(Q)
    assert not isinstance(h, (FAlgebra, FCoalgebra))
    alg, coalg = h.as_algebra(), h.as_coalgebra()
    assert type(alg) is FAlgebra and type(coalg) is FCoalgebra
    assert alg.native_rows is h.native_rows and alg._rows is h._rows
    assert coalg.native_coproduct is h.native_coproduct and coalg._terms is h._terms
    assert (alg.product, alg.unit, coalg.coproduct, coalg.counit) == (h.product, h.unit,
                                                                      h.coproduct, h.counit)
    assert alg.native_unit is h.native_unit and coalg.native_counit is h.native_counit
    # one view per structure, which derives its rows and G once
    assert h.as_algebra() is alg and h.as_coalgebra() is coalg


def ref_coalgebra_components(c):
    """algebra._coalgebra_components before it shared
    linalg.connected_components: its own union-find."""
    parent = list(range(c.dim))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, terms in c.coproduct.items():
        for jk in terms:
            for x in jk:
                ri, rx = root(i), root(x)
                if ri != rx:
                    parent[max(ri, rx)] = min(ri, rx)
    components = {}
    for i in range(c.dim):
        components.setdefault(root(i), []).append(i)
    return list(components.values())


def corpus_coalgebras():
    """(file name, coalgebra) for every coalgebra a corpus file holds, and
    the dual of every Hopf algebra among them."""
    for name in sorted(os.listdir(CORPUS)):
        payload = parse_presentation(os.path.join(CORPUS, name)).payload
        for part in payload if isinstance(payload, tuple) else (payload,):
            for c in (part, getattr(part, "hopf", None), getattr(part, "coalgebra", None)):
                if hasattr(c, "coproduct"):
                    yield name, c
                    if isinstance(c, FHopf):
                        yield name + " dual", dual_structure(c)


def test_coalgebra_components_match_their_own_union_find():
    sizes = set()
    for name, c in corpus_coalgebras():
        components = _coalgebra_components(c)
        assert components == ref_coalgebra_components(c), name
        sizes.add(len(components) == c.dim)
    assert sizes == {True, False}  # group-like bases and connected coalgebras


# --- convolution ------------------------------------------------------------
# the dense oracles below are shared with test_native_laws and test_comodule


def convolution_unit(c, a):
    """The matrix of eta eps, the unit of Hom(C, A)."""
    return Matrix.from_cols(a.field, [vscale(c.counit[i], a.unit) for i in range(c.dim)])


def convolve(c, a, f, g):
    """The matrix of f * g in Hom(C, A), one product per Delta term."""
    z = vzero(a.field, a.dim)
    cols = []
    for i in range(c.dim):
        acc = z
        for (j, k), u in c.delta_basis(i).items():
            acc = vadd(acc, vscale(u, a.mult(f.col(j), g.col(k))))
        cols.append(acc)
    return Matrix.from_cols(a.field, cols)


def identity(h):
    return Matrix.identity(h.field, h.dim)


def tensor_coalgebra(c, d):
    """The tensor-product coalgebra C (x) D (middle-leg swap, no signs)."""
    dc, dd = c.dim, d.dim
    labels = tuple("%s(x)%s" % (x, y) for x in c.basis for y in d.basis)
    coproduct = {}
    for i in range(dc):
        for j in range(dd):
            terms = {}
            for (a1, a2), u in c.delta_basis(i).items():
                for (b1, b2), v in d.delta_basis(j).items():
                    terms[(ti(a1, b1, dd), ti(a2, b2, dd))] = u * v
            coproduct[ti(i, j, dd)] = terms
    counit = tuple(
        c.counit[i] * d.counit[j] for i in range(dc) for j in range(dd)
    )
    return FCoalgebra(c.field, labels, coproduct, counit)


def test_convolution_unit_is_neutral():
    h = kz3(Q)
    c, a = h.as_coalgebra(), h.as_algebra()
    unit = convolution_unit(c, a)
    f = Matrix(Q, [[Q.from_int((i + j) % 3) for j in range(3)] for i in range(3)])
    assert convolve(c, a, unit, f) == f
    assert convolve(c, a, f, unit) == f


def test_convolve_id_with_antipode_is_unit():
    h = kz3(Q)
    c, a = h.as_coalgebra(), h.as_algebra()
    assert convolve(c, a, identity(h), h.antipode) == convolution_unit(c, a)


def test_convolution_on_group_likes_is_pointwise():
    h = ks3(Q)
    c, a = h.as_coalgebra(), h.as_algebra()
    f = Matrix.from_cols(Q, [basis_vec(Q, 6, (i + 1) % 6) for i in range(6)])
    g = Matrix.from_cols(Q, [basis_vec(Q, 6, (2 * i) % 6) for i in range(6)])
    fg = convolve(c, a, f, g)
    for i in range(6):
        e = basis_vec(Q, 6, i)
        assert fg.apply(e) == a.mult(f.apply(e), g.apply(e))


def test_invert_unit_and_identity():
    h = kz3(Q)
    c, a = h.as_coalgebra(), h.as_algebra()
    unit = convolution_unit(c, a)
    assert convolution_invert(c, a, unit) == unit
    inv = convolution_invert(c, a, identity(h))
    # the antipode g -> g^{-1}
    assert inv == h.antipode


def test_invert_zero_fails():
    h = kz3(Q)
    with pytest.raises(NotConvolutionInvertibleError):
        convolution_invert(h.as_coalgebra(), h.as_algebra(), Matrix.zeros(Q, 3, 3))


# --- antipode computation ---------------------------------------------------


def test_antipode_kz2_is_identity():
    b = kz2(Q)
    bial = FBialgebra(Q, b.basis, b.product, b.unit, b.coproduct, b.counit)
    h = compute_antipode(bial)
    assert h.antipode == Matrix.identity(Q, 2)


def test_antipode_sweedler():
    sw = sweedler(Q)
    bial = FBialgebra(Q, sw.basis, sw.product, sw.unit, sw.coproduct, sw.counit)
    h = compute_antipode(bial)
    # S(g) = g, S(x) = -gx (frozen from the hand construction, itself verified
    # by the antipode law in check_axioms)
    assert h.antipode == sw.antipode
    assert check_axioms("hopf", h).ok


def test_monoid_bialgebra_has_no_antipode():
    b = monoid_bialgebra(Q)
    with pytest.raises(NoAntipodeError):
        compute_antipode(b)


def test_antipode_recomputation_is_idempotent():
    for h in (kz3(Q), sweedler(Q)):
        bial = FBialgebra(h.field, h.basis, h.product, h.unit, h.coproduct, h.counit)
        assert compute_antipode(bial).antipode == compute_antipode(bial).antipode == h.antipode


def test_bialgebra_constants_are_its_algebra_then_coalgebra_constants():
    h = sweedler(Q)
    assert h.canonical_constants() == (h.as_algebra().canonical_constants()
                                       + h.as_coalgebra().canonical_constants())
    assert kz3(Q) is not kz3(Q) and kz3(Q).canonical_constants() == kz3(Q).canonical_constants()
    assert kz3(Q).canonical_constants() != dual_hopf(kz3(Q)).canonical_constants()


# --- group Hopf algebras ----------------------------------------------------


def test_group_hopf_z2():
    h = kz2(Q)
    assert h.dim == 2
    assert h.antipode == Matrix.identity(Q, 2)


def test_group_hopf_s3_antipode_is_inverse_permutation():
    t = GroupTable.symmetric(3)
    h = group_hopf_algebra(t, Q)
    expected = Matrix.from_cols(Q, [basis_vec(Q, 6, t.inv[i]) for i in range(6)])
    assert h.antipode == expected
    assert check_axioms("hopf", h).ok


def test_group_hopf_z3_counit_all_ones():
    h = kz3(Q)
    assert h.counit == (Q.one, Q.one, Q.one)


def test_group_antipode_is_involution():
    for t in (GroupTable.cyclic(2), GroupTable.cyclic(3), GroupTable.symmetric(3)):
        h = group_hopf_algebra(t, Q)
        assert h.antipode * h.antipode == Matrix.identity(Q, h.dim)


# --- duals ------------------------------------------------------------------


def test_dual_kz2_commutative_cocommutative():
    d = dual_hopf(kz2(Q))
    assert check_axioms("hopf", d).ok
    assert is_commutative(d) and is_cocommutative(d)


def test_dual_swaps_commutativity_flags():
    h = ks3(Q)
    d = dual_hopf(h)
    assert (is_commutative(h), is_cocommutative(h)) == (False, True)
    assert (is_commutative(d), is_cocommutative(d)) == (True, False)


def test_dual_sweedler_passes_axioms():
    assert check_axioms("hopf", dual_hopf(sweedler(Q))).ok


def test_double_dual_isomorphic_via_evaluation():
    h = sweedler(Q)
    dd = dual_hopf(dual_hopf(h))
    # evaluation pairing identifies H with H** coordinatewise on this basis
    assert dd.product == h.product
    assert dd.coproduct == h.coproduct
    assert dd.antipode == h.antipode


# --- smash coproduct --------------------------------------------------------


def _trivial_coaction_data(h, d):
    f = h.field
    cols = []
    for i in range(d.dim):
        v = [f.zero] * (d.dim * h.dim)
        for j, c in enumerate(h.unit):
            if c:
                v[ti(i, j, h.dim)] = c
        cols.append(tuple(v))
    return ComoduleCoalgebraData(d, h, Matrix.from_cols(f, cols))


def test_smash_coproduct_trivial_coaction_is_tensor_coalgebra():
    h = kz2(Q)
    d = kz3(Q).as_coalgebra()
    sc = smash_coproduct(_trivial_coaction_data(h, d))
    plain = tensor_coalgebra(h.as_coalgebra(), d)
    assert sc.coalgebra.coproduct == plain.coproduct
    assert sc.coalgebra.counit == plain.counit


def test_smash_coproduct_graded_coalgebra():
    # D = dual of k[x]/(x^2): Delta(c1) = c0 (x) c1 + c1 (x) c0, graded over
    # Z/2 by deg(c_i) = g^i; this satisfies the comodule-coalgebra laws
    h = kz2(Q)
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
    data = ComoduleCoalgebraData(d, h, Matrix.from_cols(Q, cols))
    sc = smash_coproduct(data)
    assert check_axioms("coalgebra", sc.coalgebra).ok
    # the action map sends h' (x) (h (x) d) to h'h (x) d
    x = [Q.zero] * 8
    x[ti(1, ti(0, 1, 2), 4)] = Q.one  # g . (1 (x) c1)
    out = sc.module_action.apply(tuple(x))
    expected = [Q.zero] * 4
    expected[ti(1, 1, 2)] = Q.one  # = g (x) c1
    assert out == tuple(expected)


def test_smash_coproduct_rejects_non_colinear_coaction():
    # on the group algebra kZ/2 itself, rho(d) = d (x) g^{|d|} is NOT a
    # comodule-coalgebra structure: Delta(g) = g (x) g has degree g.g = 1
    from hopfcross.errors import ValidationError

    h = kz2(Q)
    d = kz2(Q).as_coalgebra()
    cols = []
    for i in range(2):
        v = [Q.zero] * 4
        v[ti(i, i, 2)] = Q.one
        cols.append(tuple(v))
    data = ComoduleCoalgebraData(d, h, Matrix.from_cols(Q, cols))
    with pytest.raises(ValidationError):
        smash_coproduct(data)


def test_comodule_coalgebra_witnesses_coaction_laws_first():
    # a doubled trivial coaction breaks every law at every basis element; the
    # report keeps the first ten, the comodule laws before the colinearity
    h = kz2(Q)
    d = kz3(Q).as_coalgebra()
    doubled = ComoduleCoalgebraData(
        d, h, _trivial_coaction_data(h, d).coaction.scale(2 * Q.one))
    assert doubled.validate() == (
        [(kind, (i,)) for i in range(3)
         for kind in ("coaction-not-counital", "coaction-not-coassociative")]
        + [(kind, (i,)) for i in range(2)
           for kind in ("coproduct-not-colinear", "counit-not-colinear")])


def test_smash_coproduct_counit_formula():
    h = kz2(Q)
    d = kz3(Q).as_coalgebra()
    sc = smash_coproduct(_trivial_coaction_data(h, d))
    for hi in range(h.dim):
        for di in range(d.dim):
            assert sc.coalgebra.counit[ti(hi, di, d.dim)] == h.counit[hi] * d.counit[di]


# --- invariants -------------------------------------------------------------


def test_every_hopf_satisfies_antipode_convolution_identity():
    for h in (kz2(Q), kz3(F5), ks3(Q), sweedler(Q), sweedler(F5), dual_hopf(sweedler(Q))):
        c, a = h.as_coalgebra(), h.as_algebra()
        unit = convolution_unit(c, a)
        assert convolve(c, a, identity(h), h.antipode) == unit
        assert convolve(c, a, h.antipode, identity(h)) == unit


GOLDEN = {
    ('kz2', 'Q', 'product', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 1, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 1, 0)),
    ],
    ('kz2', 'Q', 'product', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 1, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 1, 0)), ('coproduct-multiplicative', (0, 0)),
        ('counit-multiplicative', (0, 0)),
    ],
    ('kz2', 'Q', 'product', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 1, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 1, 0)), ('coproduct-multiplicative', (0, 0)),
        ('counit-multiplicative', (0, 0)), ('antipode-right', (0,)), ('antipode-left', (0,)),
    ],
    ('kz2', 'Q', 'coproduct', 'coalgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)),
    ],
    ('kz2', 'Q', 'coproduct', 'bialgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('coproduct-of-unit', ()),
        ('coproduct-multiplicative', (0, 0)), ('coproduct-multiplicative', (0, 1)),
        ('coproduct-multiplicative', (1, 0)), ('coproduct-multiplicative', (1, 1)),
    ],
    ('kz2', 'Q', 'coproduct', 'hopf'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('coproduct-of-unit', ()),
        ('coproduct-multiplicative', (0, 0)), ('coproduct-multiplicative', (0, 1)),
        ('coproduct-multiplicative', (1, 0)), ('coproduct-multiplicative', (1, 1)),
        ('antipode-right', (0,)), ('antipode-left', (0,)),
    ],
    ('kz2', 'Q', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
    ],
    ('kz2', 'Q', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()),
    ],
    ('kz2', 'Q', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()), ('antipode-right', (0,)),
        ('antipode-left', (0,)), ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz2', 'Q', 'counit', 'coalgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)),
    ],
    ('kz2', 'Q', 'counit', 'bialgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-of-unit', ()),
        ('counit-multiplicative', (0, 0)), ('counit-multiplicative', (0, 1)),
        ('counit-multiplicative', (1, 0)), ('counit-multiplicative', (1, 1)),
    ],
    ('kz2', 'Q', 'counit', 'hopf'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-of-unit', ()),
        ('counit-multiplicative', (0, 0)), ('counit-multiplicative', (0, 1)),
        ('counit-multiplicative', (1, 0)), ('counit-multiplicative', (1, 1)),
        ('antipode-right', (0,)), ('antipode-left', (0,)),
    ],
    ('kz2', 'Q', 'antipode', 'hopf'): [
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz2', 'F5', 'product', 'bialgebra'): [
        ('coproduct-multiplicative', (1, 1)), ('counit-multiplicative', (1, 1)),
    ],
    ('kz2', 'F5', 'product', 'hopf'): [
        ('coproduct-multiplicative', (1, 1)), ('counit-multiplicative', (1, 1)),
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz2', 'F5', 'coproduct', 'coalgebra'): [
        ('counit-left', (1,)), ('counit-right', (1,)),
    ],
    ('kz2', 'F5', 'coproduct', 'bialgebra'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('coproduct-multiplicative', (1, 1)),
    ],
    ('kz2', 'F5', 'coproduct', 'hopf'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('coproduct-multiplicative', (1, 1)),
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz2', 'F5', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
    ],
    ('kz2', 'F5', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()),
    ],
    ('kz2', 'F5', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()), ('antipode-right', (0,)),
        ('antipode-left', (0,)), ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz2', 'F5', 'counit', 'coalgebra'): [
        ('counit-left', (1,)), ('counit-right', (1,)),
    ],
    ('kz2', 'F5', 'counit', 'bialgebra'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('counit-multiplicative', (1, 1)),
    ],
    ('kz2', 'F5', 'counit', 'hopf'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('counit-multiplicative', (1, 1)),
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz2', 'F5', 'antipode', 'hopf'): [
        ('antipode-right', (0,)), ('antipode-left', (0,)),
    ],
    ('kz3', 'Q', 'product', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 0, 2)), ('associativity', (0, 1, 2)),
        ('associativity', (0, 2, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 2, 0)), ('associativity', (2, 0, 0)),
        ('associativity', (2, 1, 0)),
    ],
    ('kz3', 'Q', 'product', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 0, 2)), ('associativity', (0, 1, 2)),
        ('associativity', (0, 2, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 2, 0)), ('associativity', (2, 0, 0)),
        ('associativity', (2, 1, 0)),
    ],
    ('kz3', 'Q', 'product', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 0, 2)), ('associativity', (0, 1, 2)),
        ('associativity', (0, 2, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 2, 0)), ('associativity', (2, 0, 0)),
        ('associativity', (2, 1, 0)),
    ],
    ('kz3', 'Q', 'coproduct', 'coalgebra'): [
        ('coassociativity', (1,)), ('counit-left', (1,)), ('counit-right', (1,)),
    ],
    ('kz3', 'Q', 'coproduct', 'bialgebra'): [
        ('coassociativity', (1,)), ('counit-left', (1,)), ('counit-right', (1,)),
        ('coproduct-multiplicative', (1, 1)), ('coproduct-multiplicative', (1, 2)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 2)),
    ],
    ('kz3', 'Q', 'coproduct', 'hopf'): [
        ('coassociativity', (1,)), ('counit-left', (1,)), ('counit-right', (1,)),
        ('coproduct-multiplicative', (1, 1)), ('coproduct-multiplicative', (1, 2)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 2)),
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz3', 'Q', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)),
    ],
    ('kz3', 'Q', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('coproduct-of-unit', ()),
        ('counit-of-unit', ()),
    ],
    ('kz3', 'Q', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('coproduct-of-unit', ()),
        ('counit-of-unit', ()), ('antipode-right', (0,)), ('antipode-left', (0,)),
    ],
    ('kz3', 'Q', 'counit', 'coalgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)),
    ],
    ('kz3', 'Q', 'counit', 'bialgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-of-unit', ()),
        ('counit-multiplicative', (0, 0)), ('counit-multiplicative', (0, 1)),
        ('counit-multiplicative', (0, 2)), ('counit-multiplicative', (1, 0)),
        ('counit-multiplicative', (1, 2)), ('counit-multiplicative', (2, 0)),
        ('counit-multiplicative', (2, 1)),
    ],
    ('kz3', 'Q', 'counit', 'hopf'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-of-unit', ()),
        ('counit-multiplicative', (0, 0)), ('counit-multiplicative', (0, 1)),
        ('counit-multiplicative', (0, 2)), ('counit-multiplicative', (1, 0)),
        ('counit-multiplicative', (1, 2)), ('counit-multiplicative', (2, 0)),
        ('counit-multiplicative', (2, 1)),
    ],
    ('kz3', 'Q', 'antipode', 'hopf'): [
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('kz3', 'F5', 'product', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 0, 2)), ('associativity', (0, 1, 2)),
        ('associativity', (0, 2, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 2, 0)), ('associativity', (2, 0, 0)),
        ('associativity', (2, 1, 0)),
    ],
    ('kz3', 'F5', 'product', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 0, 2)), ('associativity', (0, 1, 2)),
        ('associativity', (0, 2, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 2, 0)), ('associativity', (2, 0, 0)),
        ('associativity', (2, 1, 0)),
    ],
    ('kz3', 'F5', 'product', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('associativity', (0, 0, 1)),
        ('associativity', (0, 0, 2)), ('associativity', (0, 1, 2)),
        ('associativity', (0, 2, 1)), ('associativity', (1, 0, 0)),
        ('associativity', (1, 2, 0)), ('associativity', (2, 0, 0)),
        ('associativity', (2, 1, 0)),
    ],
    ('kz3', 'F5', 'coproduct', 'coalgebra'): [
        ('coassociativity', (2,)), ('counit-left', (2,)), ('counit-right', (2,)),
    ],
    ('kz3', 'F5', 'coproduct', 'bialgebra'): [
        ('coassociativity', (2,)), ('counit-left', (2,)), ('counit-right', (2,)),
        ('coproduct-multiplicative', (1, 1)), ('coproduct-multiplicative', (1, 2)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 2)),
    ],
    ('kz3', 'F5', 'coproduct', 'hopf'): [
        ('coassociativity', (2,)), ('counit-left', (2,)), ('counit-right', (2,)),
        ('coproduct-multiplicative', (1, 1)), ('coproduct-multiplicative', (1, 2)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 2)),
        ('antipode-right', (2,)), ('antipode-left', (2,)),
    ],
    ('kz3', 'F5', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)),
    ],
    ('kz3', 'F5', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('coproduct-of-unit', ()),
        ('counit-of-unit', ()),
    ],
    ('kz3', 'F5', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('coproduct-of-unit', ()),
        ('counit-of-unit', ()), ('antipode-right', (0,)), ('antipode-left', (0,)),
    ],
    ('kz3', 'F5', 'counit', 'coalgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)),
    ],
    ('kz3', 'F5', 'counit', 'bialgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-of-unit', ()),
        ('counit-multiplicative', (0, 0)), ('counit-multiplicative', (0, 1)),
        ('counit-multiplicative', (0, 2)), ('counit-multiplicative', (1, 0)),
        ('counit-multiplicative', (1, 2)), ('counit-multiplicative', (2, 0)),
        ('counit-multiplicative', (2, 1)),
    ],
    ('kz3', 'F5', 'counit', 'hopf'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-of-unit', ()),
        ('counit-multiplicative', (0, 0)), ('counit-multiplicative', (0, 1)),
        ('counit-multiplicative', (0, 2)), ('counit-multiplicative', (1, 0)),
        ('counit-multiplicative', (1, 2)), ('counit-multiplicative', (2, 0)),
        ('counit-multiplicative', (2, 1)),
    ],
    ('kz3', 'F5', 'antipode', 'hopf'): [
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('ks3', 'Q', 'product', 'algebra'): [
        ('associativity', (1, 1, 2)), ('associativity', (1, 1, 3)),
        ('associativity', (1, 1, 4)), ('associativity', (1, 1, 5)),
        ('associativity', (1, 2, 3)), ('associativity', (1, 3, 5)),
        ('associativity', (1, 4, 2)), ('associativity', (1, 5, 4)),
        ('associativity', (2, 1, 1)), ('associativity', (2, 3, 1)),
    ],
    ('ks3', 'Q', 'product', 'bialgebra'): [
        ('associativity', (1, 1, 2)), ('associativity', (1, 1, 3)),
        ('associativity', (1, 1, 4)), ('associativity', (1, 1, 5)),
        ('associativity', (1, 2, 3)), ('associativity', (1, 3, 5)),
        ('associativity', (1, 4, 2)), ('associativity', (1, 5, 4)),
        ('associativity', (2, 1, 1)), ('associativity', (2, 3, 1)),
    ],
    ('ks3', 'Q', 'product', 'hopf'): [
        ('associativity', (1, 1, 2)), ('associativity', (1, 1, 3)),
        ('associativity', (1, 1, 4)), ('associativity', (1, 1, 5)),
        ('associativity', (1, 2, 3)), ('associativity', (1, 3, 5)),
        ('associativity', (1, 4, 2)), ('associativity', (1, 5, 4)),
        ('associativity', (2, 1, 1)), ('associativity', (2, 3, 1)),
    ],
    ('ks3', 'Q', 'coproduct', 'coalgebra'): [
        ('coassociativity', (3,)), ('counit-left', (3,)), ('counit-right', (3,)),
    ],
    ('ks3', 'Q', 'coproduct', 'bialgebra'): [
        ('coassociativity', (3,)), ('counit-left', (3,)), ('counit-right', (3,)),
        ('coproduct-multiplicative', (1, 3)), ('coproduct-multiplicative', (1, 5)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 3)),
        ('coproduct-multiplicative', (3, 1)), ('coproduct-multiplicative', (3, 2)),
        ('coproduct-multiplicative', (3, 3)),
    ],
    ('ks3', 'Q', 'coproduct', 'hopf'): [
        ('coassociativity', (3,)), ('counit-left', (3,)), ('counit-right', (3,)),
        ('coproduct-multiplicative', (1, 3)), ('coproduct-multiplicative', (1, 5)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 3)),
        ('coproduct-multiplicative', (3, 1)), ('coproduct-multiplicative', (3, 2)),
        ('coproduct-multiplicative', (3, 3)),
    ],
    ('ks3', 'Q', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('left-unit', (4,)), ('right-unit', (4,)),
    ],
    ('ks3', 'Q', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('left-unit', (4,)), ('right-unit', (4,)),
    ],
    ('ks3', 'Q', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('left-unit', (4,)), ('right-unit', (4,)),
    ],
    ('ks3', 'Q', 'counit', 'coalgebra'): [
        ('counit-left', (5,)), ('counit-right', (5,)),
    ],
    ('ks3', 'Q', 'counit', 'bialgebra'): [
        ('counit-left', (5,)), ('counit-right', (5,)), ('counit-multiplicative', (1, 3)),
        ('counit-multiplicative', (1, 5)), ('counit-multiplicative', (2, 4)),
        ('counit-multiplicative', (2, 5)), ('counit-multiplicative', (3, 2)),
        ('counit-multiplicative', (3, 5)), ('counit-multiplicative', (4, 1)),
        ('counit-multiplicative', (4, 5)),
    ],
    ('ks3', 'Q', 'counit', 'hopf'): [
        ('counit-left', (5,)), ('counit-right', (5,)), ('counit-multiplicative', (1, 3)),
        ('counit-multiplicative', (1, 5)), ('counit-multiplicative', (2, 4)),
        ('counit-multiplicative', (2, 5)), ('counit-multiplicative', (3, 2)),
        ('counit-multiplicative', (3, 5)), ('counit-multiplicative', (4, 1)),
        ('counit-multiplicative', (4, 5)),
    ],
    ('ks3', 'Q', 'antipode', 'hopf'): [
        ('antipode-right', (2,)), ('antipode-left', (2,)),
    ],
    ('ks3', 'F5', 'product', 'algebra'): [
        ('associativity', (1, 3, 1)), ('associativity', (1, 5, 1)),
        ('associativity', (2, 4, 1)), ('associativity', (2, 5, 1)),
        ('associativity', (3, 2, 1)), ('associativity', (3, 5, 1)),
        ('associativity', (4, 1, 1)), ('associativity', (4, 5, 1)),
        ('associativity', (5, 1, 1)), ('associativity', (5, 1, 2)),
    ],
    ('ks3', 'F5', 'product', 'bialgebra'): [
        ('associativity', (1, 3, 1)), ('associativity', (1, 5, 1)),
        ('associativity', (2, 4, 1)), ('associativity', (2, 5, 1)),
        ('associativity', (3, 2, 1)), ('associativity', (3, 5, 1)),
        ('associativity', (4, 1, 1)), ('associativity', (4, 5, 1)),
        ('associativity', (5, 1, 1)), ('associativity', (5, 1, 2)),
    ],
    ('ks3', 'F5', 'product', 'hopf'): [
        ('associativity', (1, 3, 1)), ('associativity', (1, 5, 1)),
        ('associativity', (2, 4, 1)), ('associativity', (2, 5, 1)),
        ('associativity', (3, 2, 1)), ('associativity', (3, 5, 1)),
        ('associativity', (4, 1, 1)), ('associativity', (4, 5, 1)),
        ('associativity', (5, 1, 1)), ('associativity', (5, 1, 2)),
    ],
    ('ks3', 'F5', 'coproduct', 'coalgebra'): [
        ('coassociativity', (3,)), ('counit-left', (3,)), ('counit-right', (3,)),
    ],
    ('ks3', 'F5', 'coproduct', 'bialgebra'): [
        ('coassociativity', (3,)), ('counit-left', (3,)), ('counit-right', (3,)),
        ('coproduct-multiplicative', (1, 3)), ('coproduct-multiplicative', (1, 5)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 3)),
        ('coproduct-multiplicative', (3, 1)), ('coproduct-multiplicative', (3, 2)),
        ('coproduct-multiplicative', (3, 3)),
    ],
    ('ks3', 'F5', 'coproduct', 'hopf'): [
        ('coassociativity', (3,)), ('counit-left', (3,)), ('counit-right', (3,)),
        ('coproduct-multiplicative', (1, 3)), ('coproduct-multiplicative', (1, 5)),
        ('coproduct-multiplicative', (2, 1)), ('coproduct-multiplicative', (2, 3)),
        ('coproduct-multiplicative', (3, 1)), ('coproduct-multiplicative', (3, 2)),
        ('coproduct-multiplicative', (3, 3)),
    ],
    ('ks3', 'F5', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('left-unit', (4,)), ('right-unit', (4,)),
    ],
    ('ks3', 'F5', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('left-unit', (4,)), ('right-unit', (4,)),
    ],
    ('ks3', 'F5', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('left-unit', (4,)), ('right-unit', (4,)),
    ],
    ('ks3', 'F5', 'counit', 'coalgebra'): [
        ('counit-left', (3,)), ('counit-right', (3,)),
    ],
    ('ks3', 'F5', 'counit', 'bialgebra'): [
        ('counit-left', (3,)), ('counit-right', (3,)), ('counit-multiplicative', (1, 3)),
        ('counit-multiplicative', (1, 5)), ('counit-multiplicative', (2, 1)),
        ('counit-multiplicative', (2, 3)), ('counit-multiplicative', (3, 1)),
        ('counit-multiplicative', (3, 2)), ('counit-multiplicative', (3, 3)),
        ('counit-multiplicative', (3, 4)),
    ],
    ('ks3', 'F5', 'counit', 'hopf'): [
        ('counit-left', (3,)), ('counit-right', (3,)), ('counit-multiplicative', (1, 3)),
        ('counit-multiplicative', (1, 5)), ('counit-multiplicative', (2, 1)),
        ('counit-multiplicative', (2, 3)), ('counit-multiplicative', (3, 1)),
        ('counit-multiplicative', (3, 2)), ('counit-multiplicative', (3, 3)),
        ('counit-multiplicative', (3, 4)),
    ],
    ('ks3', 'F5', 'antipode', 'hopf'): [
        ('antipode-right', (5,)), ('antipode-left', (5,)),
    ],
    ('sweedler', 'Q', 'product', 'algebra'): [
        ('right-unit', (2,)), ('associativity', (1, 2, 0)), ('associativity', (1, 3, 0)),
        ('associativity', (2, 0, 0)), ('associativity', (2, 0, 1)),
        ('associativity', (2, 1, 1)), ('associativity', (3, 1, 0)),
    ],
    ('sweedler', 'Q', 'product', 'bialgebra'): [
        ('right-unit', (2,)), ('associativity', (1, 2, 0)), ('associativity', (1, 3, 0)),
        ('associativity', (2, 0, 0)), ('associativity', (2, 0, 1)),
        ('associativity', (2, 1, 1)), ('associativity', (3, 1, 0)),
        ('coproduct-multiplicative', (2, 2)), ('coproduct-multiplicative', (2, 3)),
    ],
    ('sweedler', 'Q', 'product', 'hopf'): [
        ('right-unit', (2,)), ('associativity', (1, 2, 0)), ('associativity', (1, 3, 0)),
        ('associativity', (2, 0, 0)), ('associativity', (2, 0, 1)),
        ('associativity', (2, 1, 1)), ('associativity', (3, 1, 0)),
        ('coproduct-multiplicative', (2, 2)), ('coproduct-multiplicative', (2, 3)),
        ('antipode-right', (2,)),
    ],
    ('sweedler', 'Q', 'coproduct', 'coalgebra'): [
        ('coassociativity', (2,)),
    ],
    ('sweedler', 'Q', 'coproduct', 'bialgebra'): [
        ('coassociativity', (2,)), ('coproduct-multiplicative', (1, 2)),
        ('coproduct-multiplicative', (1, 3)), ('coproduct-multiplicative', (2, 1)),
        ('coproduct-multiplicative', (3, 1)),
    ],
    ('sweedler', 'Q', 'coproduct', 'hopf'): [
        ('coassociativity', (2,)), ('coproduct-multiplicative', (1, 2)),
        ('coproduct-multiplicative', (1, 3)), ('coproduct-multiplicative', (2, 1)),
        ('coproduct-multiplicative', (3, 1)),
    ],
    ('sweedler', 'Q', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
    ],
    ('sweedler', 'Q', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()),
    ],
    ('sweedler', 'Q', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()),
    ],
    ('sweedler', 'Q', 'counit', 'coalgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-right', (2,)),
        ('counit-left', (3,)),
    ],
    ('sweedler', 'Q', 'counit', 'bialgebra'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-right', (2,)),
        ('counit-left', (3,)), ('counit-of-unit', ()), ('counit-multiplicative', (0, 0)),
        ('counit-multiplicative', (0, 1)), ('counit-multiplicative', (1, 0)),
        ('counit-multiplicative', (1, 1)),
    ],
    ('sweedler', 'Q', 'counit', 'hopf'): [
        ('counit-left', (0,)), ('counit-right', (0,)), ('counit-right', (2,)),
        ('counit-left', (3,)), ('counit-of-unit', ()), ('counit-multiplicative', (0, 0)),
        ('counit-multiplicative', (0, 1)), ('counit-multiplicative', (1, 0)),
        ('counit-multiplicative', (1, 1)), ('antipode-right', (0,)),
    ],
    ('sweedler', 'Q', 'antipode', 'hopf'): [
        ('antipode-right', (2,)), ('antipode-left', (2,)),
    ],
    ('sweedler', 'F5', 'product', 'algebra'): [
        ('associativity', (1, 1, 2)), ('associativity', (1, 1, 3)),
        ('associativity', (1, 2, 1)), ('associativity', (1, 2, 2)),
        ('associativity', (1, 2, 3)), ('associativity', (1, 3, 1)),
        ('associativity', (2, 1, 2)), ('associativity', (3, 1, 2)),
    ],
    ('sweedler', 'F5', 'product', 'bialgebra'): [
        ('associativity', (1, 1, 2)), ('associativity', (1, 1, 3)),
        ('associativity', (1, 2, 1)), ('associativity', (1, 2, 2)),
        ('associativity', (1, 2, 3)), ('associativity', (1, 3, 1)),
        ('associativity', (2, 1, 2)), ('associativity', (3, 1, 2)),
        ('coproduct-multiplicative', (1, 2)), ('counit-multiplicative', (1, 2)),
    ],
    ('sweedler', 'F5', 'product', 'hopf'): [
        ('associativity', (1, 1, 2)), ('associativity', (1, 1, 3)),
        ('associativity', (1, 2, 1)), ('associativity', (1, 2, 2)),
        ('associativity', (1, 2, 3)), ('associativity', (1, 3, 1)),
        ('associativity', (2, 1, 2)), ('associativity', (3, 1, 2)),
        ('coproduct-multiplicative', (1, 2)), ('counit-multiplicative', (1, 2)),
    ],
    ('sweedler', 'F5', 'coproduct', 'coalgebra'): [
        ('coassociativity', (0,)), ('coassociativity', (2,)), ('coassociativity', (3,)),
    ],
    ('sweedler', 'F5', 'coproduct', 'bialgebra'): [
        ('coassociativity', (0,)), ('coassociativity', (2,)), ('coassociativity', (3,)),
        ('coproduct-of-unit', ()), ('coproduct-multiplicative', (0, 0)),
        ('coproduct-multiplicative', (0, 1)), ('coproduct-multiplicative', (1, 0)),
        ('coproduct-multiplicative', (1, 1)),
    ],
    ('sweedler', 'F5', 'coproduct', 'hopf'): [
        ('coassociativity', (0,)), ('coassociativity', (2,)), ('coassociativity', (3,)),
        ('coproduct-of-unit', ()), ('coproduct-multiplicative', (0, 0)),
        ('coproduct-multiplicative', (0, 1)), ('coproduct-multiplicative', (1, 0)),
        ('coproduct-multiplicative', (1, 1)),
    ],
    ('sweedler', 'F5', 'unit', 'algebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
    ],
    ('sweedler', 'F5', 'unit', 'bialgebra'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()),
    ],
    ('sweedler', 'F5', 'unit', 'hopf'): [
        ('left-unit', (0,)), ('right-unit', (0,)), ('left-unit', (1,)), ('right-unit', (1,)),
        ('left-unit', (2,)), ('right-unit', (2,)), ('left-unit', (3,)), ('right-unit', (3,)),
        ('coproduct-of-unit', ()), ('counit-of-unit', ()),
    ],
    ('sweedler', 'F5', 'counit', 'coalgebra'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('counit-left', (2,)),
        ('counit-right', (3,)),
    ],
    ('sweedler', 'F5', 'counit', 'bialgebra'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('counit-left', (2,)),
        ('counit-right', (3,)),
    ],
    ('sweedler', 'F5', 'counit', 'hopf'): [
        ('counit-left', (1,)), ('counit-right', (1,)), ('counit-left', (2,)),
        ('counit-right', (3,)), ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
    ('sweedler', 'F5', 'antipode', 'hopf'): [
        ('antipode-right', (1,)), ('antipode-left', (1,)),
    ],
}


# ---------------------------------------------------------------------------
# the dense product and induced coproduct the sparse ones replaced, kept as
# their oracle


def ref_mult(a, x, y):
    out = [a.field.zero] * a.dim
    for i, u in enumerate(x):
        if not u:
            continue
        for j, v in enumerate(y):
            if not v:
                continue
            uv = u * v
            for k, c in a.mult_basis(i, j).items():
                out[k] = out[k] + uv * c
    return tuple(out)


def ref_induced_coproduct(c, basis, coords):
    f = c.field
    out = {}
    for s, vec in enumerate(basis):
        terms = {}
        for (j, k), d in c.delta(vec).items():
            pj = coords(basis_vec(f, c.dim, j))
            pk = coords(basis_vec(f, c.dim, k))
            for x, u in enumerate(pj):
                for y, w in enumerate(pk):
                    if u and w:
                        terms[(x, y)] = terms.get((x, y), f.zero) + d * u * w
        out[s] = {key: v for key, v in terms.items() if v}
    return out


def drawn_vector(field, rng, n, density):
    return tuple(draw(field, rng) if rng.random() < density else field.zero for _ in range(n))


def drawn_algebra(field, rng, dim, density):
    """Seeded structure constants, not associative: mult only reads them."""
    product = {(i, j): {k: draw(field, rng) for k in range(dim) if rng.random() < density}
               for i in range(dim) for j in range(dim)}
    return FAlgebra(field, tuple("e%d" % i for i in range(dim)), product,
                    drawn_vector(field, rng, dim, 1.0))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_mult_matches_the_dense_oracle(field):
    rng = random.Random(31 * (field.characteristic or 1) + 2)
    scalar = Rational if field.characteristic == 0 else FpElement
    algebras = [FAlgebra(field, (), {}, ()),
                group_hopf_algebra(GroupTable.symmetric(3), field).as_algebra()]
    algebras += [drawn_algebra(field, rng, dim, density)
                 for dim in (1, 3, 6) for density in (0.2, 0.7)]
    for a in algebras:
        vectors = [(field.zero,) * a.dim] + [basis_vec(field, a.dim, i) for i in range(a.dim)]
        vectors += [drawn_vector(field, rng, a.dim, d) for d in (0.2, 0.5, 1.0)]
        for x in vectors:
            for y in vectors:
                out = a.mult(x, y)
                assert out == ref_mult(a, x, y)
                assert all(type(c) is scalar for c in out)


@pytest.mark.parametrize("field", [Q, F7], ids=repr)
def test_induced_coproduct_matches_the_dense_oracle_and_reads_each_image_once(field):
    rng = random.Random(37 * (field.characteristic or 1))
    h = group_hopf_algebra(GroupTable.symmetric(3), field)
    # A/I for I spanned by a seeded vector and the difference of two group-likes
    relations = [drawn_vector(field, rng, h.dim, 0.5),
                 vadd(basis_vec(field, h.dim, 1), vscale(-field.one, basis_vec(field, h.dim, 2)))]
    quot = QuotientSpace(field, h.dim, row_space_basis(field, [_native(v, field) for v in relations],
                                                        h.dim))
    basis = [quot.lift(_basis_row(field, t)) for t in range(quot.dim)]
    basis += [_native(drawn_vector(field, rng, h.dim, 0.5), field), {}]
    reads = []

    def counted(vec):
        reads.append(tuple(sorted(vec.items())))
        return quot.project(vec)

    def dense_project(vec):
        return _dense_vec(field, quot.project(_native(vec, field)), quot.dim)

    dense_basis = [_dense_vec(field, v, h.dim) for v in basis]
    expected = ref_induced_coproduct(h, dense_basis, dense_project)
    p = field.characteristic  # the oracle's field scalars as native ones
    assert induced_coproduct(h, basis, counted) == {
        s: {key: c.value if p else c for key, c in terms.items()} for s, terms in expected.items()}
    assert len(reads) == len(set(reads)) <= h.dim


# -- one checker for structure maps -------------------------------------------


def morphism_witness(m, **laws):
    """The first witness require_morphism raises on, or None."""
    try:
        require_morphism(m, "m", **laws)
    except ValidationError as e:
        what, _, witness = str(e).partition(": ")
        assert what == "m"
        return witness
    return None


def scaled_cols(h, cols, scales):
    """The matrix whose column i is cols[i] times scales[i]."""
    return Matrix.from_cols(h.field, [vscale(h.field.from_int(c), col)
                                      for c, col in zip(scales, cols)])


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_require_morphism_reports_the_first_law_a_map_fails_in_order(field):
    # on k[Z/2] (basis 1, g) with the regular coaction: 2 id is bijective and
    # fails the unit; 1 |-> 1, g |-> 2g is unital and fails g g = 1; g |-> -g
    # is a colinear algebra automorphism that fails the counit; the identity
    # onto the trivial coaction is an algebra map that is not colinear
    h = kz2(field)
    ident = [basis_vec(field, 2, i) for i in range(2)]
    trivial = lambda y: {(y, 0): 1 if field.characteristic else field.one}
    regular = (h.rho_basis, h.rho_basis)
    counit = h.native_counit
    laws = dict(bijective=True, algebra=(h, h), rho=regular, counit=(counit, counit))
    cases = [
        (Matrix.zeros(field, 2, 2), "('bijective', ())"),
        (scaled_cols(h, ident, (2, 2)), "('unit', ())"),
        (scaled_cols(h, ident, (1, 2)), "('multiplicative', (1, 1))"),
        (scaled_cols(h, ident, (1, -1)), "('counit', (1,))"),
        (Matrix.identity(field, 2), None),
    ]
    for m, witness in cases:
        assert morphism_witness(m, **laws) == witness
    identity = Matrix.identity(field, 2)
    assert morphism_witness(identity, **dict(laws, rho=(h.rho_basis, trivial))) == \
        "('colinear', (1,))"
    # a law that is not named is not checked
    zero = Matrix.zeros(field, 2, 2)
    assert morphism_witness(zero, algebra=(h, h)) == "('unit', ())"
    assert morphism_witness(zero, rho=regular) is None  # 0 is colinear
    assert morphism_witness(identity, rho=(h.rho_basis, trivial)) == "('colinear', (1,))"
    assert morphism_witness(zero, counit=(counit, counit)) == "('counit', (0,))"
    assert morphism_witness(zero) is None
    assert list(counit_violations(counit, counit, zero)) == [("counit", (0,)), ("counit", (1,))]


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_require_morphism_checks_maps_into_a_tensor_product(field):
    # Delta : k[Z/2] -> k[Z/2] (x) k[Z/2] is a counital algebra map into the
    # pair (A, B), whose counit is eps (x) eps
    h = kz2(field)
    cols = [dense_tensor(basis_vec(field, 2, i), basis_vec(field, 2, i)) for i in range(2)]
    counit = h.native_counit
    laws = dict(bijective=False, algebra=(h, (h, h)),
                counit=(counit, vtensor(counit, counit, 2, field.characteristic)))
    assert morphism_witness(Matrix.from_cols(field, cols), **laws) is None
    assert morphism_witness(scaled_cols(h, cols, (1, 2)), **laws) == "('multiplicative', (1, 1))"
    assert morphism_witness(scaled_cols(h, cols, (1, -1)), **laws) == "('counit', (1,))"
    assert morphism_witness(scaled_cols(h, cols, (-1, 1)), **laws) == "('unit', ())"
    # not square, so never bijective
    assert morphism_witness(Matrix.from_cols(field, cols), **dict(laws, bijective=True)) == \
        "('bijective', ())"
