"""Command-line entry point: load JSON presentations, run any library
operation, and emit deterministic verdict reports.

Exit codes: 0 = pass/found, 1 = fail/not-found/obstruction, 2 = input error,
3 = internal error (a fault in the program, not a verdict on the input).
Scalars are (numerator, denominator) pairs over Q (denominator omitted when
1) and bare residues over Fp. Machine reports (--json) are byte-identical
across runs with identical inputs and flags.
"""

import argparse
import json
import sys
from itertools import islice

from .algebra import (
    ComoduleCoalgebraData,
    FAlgebra,
    FBialgebra,
    FCoalgebra,
    FHopf,
    MAX_VIOLATIONS,
    check_axioms,
    compute_antipode,
    dual_hopf,
    smash_coproduct,
)
from .cohomology import (
    AugmentedAlgebra,
    AugmentedCleftExtension,
    HModuleStructure,
    NormalizedCochain,
    augmentation_violations,
    classify_cleft_extension,
    hh2,
    lift_comodule_algebra_map,
    split_extension,
)
from .comodule import (
    ComoduleAlgebra,
    CrossedSystem,
    check_crossed_system,
    crossed_product,
    find_section,
    galois_map,
    section_to_crossed_system,
)
from .errors import (
    HopfcrossError,
    InvalidComoduleAlgebraError,
    InvalidCrossedSystemError,
    InvalidGroupTableError,
    NoAntipodeError,
    NoSectionFoundError,
    NotCrossedProductError,
    ParseError,
    ShapeMismatchError,
    ValidationError,
)
from .graded import (
    GradedAlgebra,
    check_grading,
    graded_bridge,
    is_strongly_graded,
    recognize_group_crossed_product,
)
from .groups import GroupTable
from .linalg import PRIME_BOUND, Matrix, PrimeField, Rationals
from .search import SearchBudget
from .superalg import SuperPresentation, decompose, duality_pairing

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# scalar and matrix encoding


def _field_to_json(field):
    if field.characteristic == 0:
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.characteristic}


def _field_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("field block must be an object with a 'kind'")
    if obj["kind"] == "Q":
        return Rationals()
    if obj["kind"] == "Fp":
        p = obj.get("p")
        if not isinstance(p, int):
            raise ParseError("Fp field needs an integer 'p'")
        return _prime_field(p)
    raise ParseError("unknown field kind %r" % (obj["kind"],))


def _prime_field(p):
    if p >= PRIME_BOUND:
        raise ValidationError("p = %d is too large: a prime modulus must be below 2^64" % p)
    try:
        return PrimeField(p)
    except ValueError:
        raise ValidationError("p = %d is not prime" % p)


def _scal_json(field, c):
    if field.characteristic:
        return [c.value]
    if c.denominator == 1:
        return [c.numerator]
    return [c.numerator, c.denominator]


def _native_json(field, c):
    """A native scalar (see linalg) as JSON."""
    return [c] if field.characteristic else _scal_json(field, c)


def _scal_parse(field, parts, where):
    """A scalar's [numerator] or [numerator, denominator] as a native scalar
    (see linalg): its residue over Fp, a Rational over Q."""
    # ints only (bool is not one): the elimination kernel takes F_p entries
    # as plain ints and relies on exact integer arithmetic; with one or two
    # parts, the first and the last are all of them
    n = len(parts)
    if not 0 < n <= 2 or type(parts[0]) is not int or type(parts[-1]) is not int:
        raise ParseError("bad scalar in %s" % where)
    if field.characteristic:
        if n != 1:
            raise ParseError("no denominators over Fp (%s)" % where)
        return parts[0] % field.characteristic
    if n == 1:
        return field.from_int(parts[0])
    if parts[1] == 0:
        raise ParseError("zero denominator in %s" % where)
    return field.from_fraction(*parts)


def _entries(obj, width, where):
    """The entries of a sparse block: lists of `width` indices and a scalar.
    Each reader requires an entry's indices to be ints in range, in order,
    then rejects a repeated entry, then reads its scalar.  Here and below,
    `type(x) is int` also rejects a bool."""
    if not isinstance(obj, list) or any(not isinstance(e, list) or len(e) <= width for e in obj):
        raise ParseError("%s must be a list of [index, ..., scalar] lists" % where)
    return obj


def _bad_index(x, bound, where):
    return ParseError("index %r is not an int in range(%d) in %s" % (x, bound, where))


def _duplicate(where):
    return ParseError("duplicate entry in %s" % where)


def _pruned(table):
    """A block read with its zero entries (nested dicts of native scalars)
    without them and without the dicts that they alone filled, in order."""
    out = {}
    for key, x in table.items():
        if isinstance(x, dict):
            x = _pruned(x)
        if x:
            out[key] = x
    return out


def _matrix_to_json(field, m):
    entries = [[i, j] + _native_json(field, row[j])
               for i, row in enumerate(m._native_rows()) for j in sorted(row)]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def _matrix_block(field, obj, where):
    """A matrix block as (rows, cols, {i: {j: c}}): its claimed shape and its
    entries as sparse native rows, each checked.  Nothing here is sized by
    the claimed shape, so a claim the file does not back allocates nothing;
    `_matrix` builds the Matrix once its caller has checked the shape."""
    if not isinstance(obj, dict) or "rows" not in obj or "cols" not in obj:
        raise ParseError("matrix block %s needs 'rows' and 'cols'" % where)
    r, c = obj["rows"], obj["cols"]
    if not (type(r) is int and type(c) is int and r >= 0 and c >= 0):
        raise ParseError("matrix block %s needs int 'rows' and 'cols' >= 0" % where)
    rows = {}
    for e in _entries(obj.get("entries", []), 2, where):
        i, j = e[0], e[1]
        if type(i) is not int or not 0 <= i < r:
            raise _bad_index(i, r, where)
        if type(j) is not int or not 0 <= j < c:
            raise _bad_index(j, c, where)
        row = rows.setdefault(i, {})
        if j in row:
            raise _duplicate(where)
        row[j] = _scal_parse(field, e[2:], where)
    return r, c, _pruned(rows)


def _matrix(field, block, shape=None, name=None):
    """The Matrix of a parsed block.  With shape, a block that does not
    claim exactly that (rows, cols) raises first what the constructor taking
    the matrix would: "<name> matrix shape mismatch"."""
    r, c, rows = block
    if shape is not None and (r, c) != shape:
        raise ShapeMismatchError("%s matrix shape mismatch" % name)
    empty = {}
    return Matrix.from_sparse_rows(field, [rows.get(i, empty) for i in range(r)], c)


def _row_from_json(field, obj, dim, where):
    """A unit, counit or augmentation block as a sparse native row, in index
    order."""
    row = {}
    for e in _entries(obj, 1, where):
        i = e[0]
        if type(i) is not int or not 0 <= i < dim:
            raise _bad_index(i, dim, where)
        if i in row:
            raise _duplicate(where)
        row[i] = _scal_parse(field, e[1:], where)
    return dict(sorted(_pruned(row).items()))


def _row_to_json(field, row):
    return [[i] + _native_json(field, c) for i, c in sorted(row.items())]


def _vector_to_json(field, v):
    return [[i] + _scal_json(field, c) for i, c in enumerate(v) if c]


def _table_from_json(field, obj, dim, where):
    """The native product rows {i: {j: {k: c}}} (where is "product") or
    coproduct {i: {(j, k): c}} of a block's [i, j, k, scalar] entries, read
    in one pass once `_entries` has checked their shape, each scalar
    straight into a native one (see linalg); zero entries go at the end."""
    product = where == "product"
    out = {}
    zeros = False
    for e in _entries(obj, 3, where):
        i, j, k = e[0], e[1], e[2]
        for x in (i, j, k):
            if type(x) is not int or not 0 <= x < dim:
                raise _bad_index(x, dim, where)
        if product:
            terms, inner = out.setdefault(i, {}).setdefault(j, {}), k
        else:
            terms, inner = out.setdefault(i, {}), (j, k)
        if inner in terms:
            raise _duplicate(where)
        c = terms[inner] = _scal_parse(field, e[3:], where)
        zeros = zeros or not c
    return _pruned(out) if zeros else out


def _sparse3_to_json(field, s):
    """The [i, j, k, scalar] entries of the product of an algebra or the
    coproduct of a coalgebra (of a bialgebra, through its `as_algebra()` or
    `as_coalgebra()` view), in the order of its canonical_constants()."""
    return [[i, j, k] + _native_json(field, c) for i, j, k, c in s.canonical_constants()[2]]


def _require(doc, key, kind):
    if key not in doc:
        raise ValidationError("kind %r is missing the %r block" % (kind, key))
    return doc[key]


def _nested(doc, key, kind):
    """A presentation nested in the block `key`: an object, never a path."""
    block = _require(doc, key, kind)
    if not isinstance(block, dict):
        raise ParseError("the %r block of kind %r must be an object" % (key, kind))
    return block


def _basis(doc, kind):
    basis = _require(doc, "basis", kind)
    if not isinstance(basis, list):
        raise ParseError("basis must be a list of labels")
    return basis


# ---------------------------------------------------------------------------
# presentation encoding


def _doc(kind, field, **blocks):
    """A presentation object of kind over field with its blocks; every
    document is written with sorted keys, so their order is free."""
    return {"format_version": FORMAT_VERSION, "kind": kind, "field": _field_to_json(field),
            **blocks}


def encode_algebra(alg):
    f = alg.field
    return _doc("algebra", f, basis=list(alg.basis), product=_sparse3_to_json(f, alg),
                unit=_row_to_json(f, alg.native_unit))


def encode_coalgebra(c):
    f = c.field
    return _doc("coalgebra", f, basis=list(c.basis), coproduct=_sparse3_to_json(f, c),
                counit=_row_to_json(f, c.native_counit))


def encode_hopf(h, kind="hopf"):
    doc = {**encode_algebra(h.as_algebra()), **encode_coalgebra(h.as_coalgebra()), "kind": kind}
    if kind in ("hopf", "super-hopf"):
        doc["antipode"] = _matrix_to_json(h.field, h.antipode)
    return doc


def encode_super_hopf(sp):
    return {**encode_hopf(sp.hopf, kind="super-hopf"), "parity": list(sp.parity)}


def encode_graded_algebra(ga):
    group = {"elements": list(ga.group.elements), "table": [list(row) for row in ga.group.mult]}
    return {**encode_algebra(ga.algebra), "kind": "graded-algebra", "group": group,
            "degree": list(ga.degree)}


def encode_comodule_algebra(ca, augmentation=None):
    doc = {**encode_algebra(ca.algebra), "kind": "comodule-algebra",
           "hopf": encode_hopf(ca.hopf), "coaction": _matrix_to_json(ca.field, ca.coaction)}
    if augmentation is not None:
        doc["augmentation"] = _vector_to_json(ca.field, augmentation)
    return doc


def encode_crossed_system(s):
    f = s.base.field
    return _doc("crossed-system", f, hopf=encode_hopf(s.hopf), base=encode_algebra(s.base),
                measuring=_matrix_to_json(f, s.measuring), sigma=_matrix_to_json(f, s.sigma),
                sigma_inv=_matrix_to_json(f, s.sigma_inv))


def encode_hmodule(act, cochain=None):
    f = act.hopf.field
    doc = _doc("hmodule", f, hopf=encode_hopf(act.hopf), base=encode_algebra(act.aug.algebra),
               augmentation=_row_to_json(f, act.aug.eps_row),
               action=_matrix_to_json(f, act.action))
    if cochain is not None:
        doc["cochain"] = _matrix_to_json(f, cochain.matrix)
    return doc


def encode_lift_problem(domain, target, varpi, psi):
    f = domain.field
    return _doc("lift-problem", f, domain=encode_comodule_algebra(domain),
                target=encode_comodule_algebra(target), surjection=_matrix_to_json(f, varpi),
                map=_matrix_to_json(f, psi))


def encode_comodule_coalgebra(data):
    return {**encode_coalgebra(data.coalgebra), "kind": "comodule-coalgebra",
            "hopf": encode_hopf(data.hopf),
            "coaction": _matrix_to_json(data.coalgebra.field, data.coaction)}


# ---------------------------------------------------------------------------
# parsing


class Presentation:
    def __init__(self, kind, payload, augmentation=None):
        self.kind = kind
        self.payload = payload
        self.augmentation = augmentation


def _algebra_tables(doc, field, kind):
    """The basis, native product rows and native unit of an algebra block."""
    basis = _basis(doc, kind)
    dim = len(basis)
    return {"basis": basis,
            "native_rows": _table_from_json(field, _require(doc, "product", kind), dim, "product"),
            "native_unit": _row_from_json(field, _require(doc, "unit", kind), dim, "unit")}


def _coalgebra_tables(doc, field, kind):
    """The native coproduct and counit of a coalgebra block."""
    dim = len(_basis(doc, kind))
    return {"native_coproduct": _table_from_json(field, _require(doc, "coproduct", kind), dim,
                                                 "coproduct"),
            "native_counit": _row_from_json(field, _require(doc, "counit", kind), dim, "counit")}


def _parse_algebra(doc, field, kind):
    return FAlgebra._native(field, **_algebra_tables(doc, field, kind))


def _parse_coalgebra(doc, field, kind):
    return FCoalgebra._native(field, _basis(doc, kind), **_coalgebra_tables(doc, field, kind))


def _parse_hopf(doc, field, kind="hopf"):
    """The bialgebra or Hopf algebra of a block, built once from its tables."""
    tables = {**_algebra_tables(doc, field, kind), **_coalgebra_tables(doc, field, kind)}
    if kind == "bialgebra":
        return FBialgebra._native(field, **tables)
    antipode = _matrix_block(field, _require(doc, "antipode", kind), "antipode")
    dim = len(tables["basis"])
    return FHopf._native(field, antipode=_matrix(field, antipode, (dim, dim), "antipode"),
                         **tables)


def _check_block(name, violations, what):
    """Raise the witnesses of a block of the file that fails its laws, each
    named <name>-<law>.  Each caller runs it once the file's structures are
    built, so that any malformed part of the file exits 2 first."""
    if violations:
        raise InvalidComoduleAlgebraError([(name + "-" + law, w) for law, w in violations], what)


def _check_nested_hopf(hopf):
    _check_block("hopf", check_axioms("hopf", hopf).violations, "a Hopf algebra")


def _check_algebra_block(alg, name):
    """Raise the failed algebra laws of the file's own algebra (name
    "algebra") or of its block `name`, which no coaction, measuring or
    action law implies."""
    _check_block(name, check_axioms("algebra", alg).violations, "an algebra")


def _check_augmentation(alg, aug):
    """Raise the witnesses, named augmentation-unit and
    augmentation-multiplicative, that an augmentation block is not an
    algebra map A -> k.  Run once A's algebra laws have passed, so
    multiplicativity is decided on A's generating set first."""
    laws = augmentation_violations(alg, aug, alg.generating_set)
    _check_block("augmentation", list(islice(laws, MAX_VIOLATIONS)), "an augmentation")


def _parse_group(doc, kind):
    block = _require(doc, "group", kind)
    if not isinstance(block, dict) or "elements" not in block or "table" not in block:
        raise ParseError("group block needs 'elements' and 'table'")
    elements, rows = block["elements"], block["table"]
    if not isinstance(elements, list) or any(not isinstance(x, str) for x in elements):
        raise ParseError("group elements must be a list of labels")
    # GroupTable searches the table for its identity before validate() checks its shape
    square = isinstance(elements, list) and isinstance(rows, list) and len(rows) == len(elements)
    if not square or any(not isinstance(row, list) or len(row) != len(rows) for row in rows):
        raise ParseError("group table must be a square list of lists, one row per element")
    try:
        table = GroupTable(elements, rows)
        table.validate()
    except InvalidGroupTableError as e:
        raise ValidationError("group table is invalid: %s" % (e,))
    return table


def _comodule_algebra_blocks(doc, field, kind):
    """The algebra, the nested Hopf algebra, the coaction block and the
    augmentation row (or None) of a comodule-algebra object, parsed and not
    yet checked."""
    alg = _parse_algebra(doc, field, kind)
    hopf = _parse_hopf(_nested(doc, "hopf", kind), field, "hopf")
    coaction = _matrix_block(field, _require(doc, "coaction", kind), "coaction")
    # the augmentation block is read before the laws run, so a malformed
    # block is an input error whatever the coaction
    aug = None
    if "augmentation" in doc:
        aug = _row_from_json(field, doc["augmentation"], alg.dim, "augmentation")
    return alg, hopf, coaction, aug


def _comodule_algebra(blocks, hopf_violations):
    """The comodule algebra of parsed blocks: the constructor checks the
    coaction, then hopf_violations (the nested Hopf laws' witnesses), the
    algebra laws and the augmentation are raised in that order.  The
    algebra laws are decided first, once: the constructor reads that
    verdict, and H's from its checked Hopf laws, to decide rho's
    multiplicativity on A's generating set."""
    alg, hopf, coaction, aug = blocks
    algebra_violations = check_axioms("algebra", alg).violations
    shape = (alg.dim * hopf.dim, alg.dim)
    ca = ComoduleAlgebra(alg, hopf, _matrix(alg.field, coaction, shape, "coaction"))
    _check_block("hopf", hopf_violations, "a Hopf algebra")
    _check_block("algebra", algebra_violations, "an algebra")
    if aug is not None:
        _check_augmentation(alg, aug)
    return Presentation("comodule-algebra", ca, augmentation=aug)


def _same_hopf_tables(h, k):
    """Whether two parsed Hopf blocks have the same field, basis and
    bialgebra tables; an antipode that differs fails the Hopf laws on one of
    them, since a bialgebra has at most one."""
    return (h.field, h.basis, h.canonical_constants()) == (k.field, k.basis,
                                                           k.canonical_constants())


# the nested blocks of a kind, whose tables are read over the document's field
NESTED_BLOCKS = {"comodule-algebra": ("hopf",), "comodule-coalgebra": ("hopf",),
                 "crossed-system": ("hopf", "base"), "hmodule": ("hopf", "base")}


def _same_field(key, kind, block_field, field):
    if block_field != field:
        raise ValidationError("the %r block of a %s is over %r, the document over %r"
                              % (key, kind, block_field, field))


def _check_nested_fields(doc, kind, field):
    """Raise when a nested block declares a field other than field; one
    with no field key is read over field."""
    for key in NESTED_BLOCKS.get(kind, ()):
        if isinstance(doc.get(key), dict) and "field" in doc[key]:
            _same_field(key, kind, _field_from_json(doc[key]["field"]), field)


def _header(doc, kinds, message):
    """The kind and the field of a presentation object, checked against
    kinds as `parse_presentation` describes before anything in it is built."""
    if not isinstance(doc, dict):
        raise ParseError("a presentation must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError("unsupported format_version %r" % (doc.get("format_version"),))
    kind = doc.get("kind")
    field = _field_from_json(_require(doc, "field", kind))
    if kinds is not None:
        augmented = kind == "comodule-algebra" and "augmentation" in doc
        if kind not in kinds and not (augmented and AUGMENTED in kinds):
            raise ValidationError(
                message or "file declares kind %r, expected %r" % (kind, kinds[0]))
    return kind, field


def parse_presentation(path_or_doc, kinds=None, message=None):
    """Load and structurally validate a presentation file (or parsed dict).
    When kinds is given, a file of no kind in it raises message (by default,
    its declared and the expected kind) before anything in it is built.  A
    nested hopf block that fails the Hopf laws, or an algebra (of a graded
    or comodule algebra, or the base block) that fails the algebra laws,
    raises InvalidComoduleAlgebraError with the laws named hopf-<law>,
    algebra-<law> or base-<law>.  A nested block over another field than
    the document's raises ValidationError before anything is built."""
    if isinstance(path_or_doc, dict):
        doc = path_or_doc
    else:
        try:
            with open(path_or_doc) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ParseError("cannot read %s: %s" % (path_or_doc, e))
        except json.JSONDecodeError as e:
            raise ParseError("invalid JSON in %s: %s" % (path_or_doc, e))
    kind, field = _header(doc, kinds, message)
    _check_nested_fields(doc, kind, field)
    if kind == "algebra":
        return Presentation(kind, _parse_algebra(doc, field, kind))
    if kind == "coalgebra":
        return Presentation(kind, _parse_coalgebra(doc, field, kind))
    if kind in ("bialgebra", "hopf"):
        return Presentation(kind, _parse_hopf(doc, field, kind))
    if kind == "super-hopf":
        h = _parse_hopf(doc, field, "hopf")
        parity = _require(doc, "parity", kind)
        if not isinstance(parity, list) or any(type(x) is not int for x in parity):
            raise ParseError("parity must be a list of ints")
        return Presentation(kind, SuperPresentation(h, tuple(parity)))
    if kind == "graded-algebra":
        alg = _parse_algebra(doc, field, kind)
        group = _parse_group(doc, kind)
        degree = _require(doc, "degree", kind)
        if not isinstance(degree, list) or any(type(g) is not int for g in degree):
            raise ParseError("degree must be a list of ints")
        if any(not (0 <= g < group.order) for g in degree):
            raise ParseError("degree entry out of group range")
        graded = GradedAlgebra(alg, group, tuple(degree))
        _check_algebra_block(alg, "algebra")
        return Presentation(kind, graded)
    if kind == "comodule-algebra":
        blocks = _comodule_algebra_blocks(doc, field, kind)
        return _comodule_algebra(blocks, check_axioms("hopf", blocks[1]).violations)
    if kind == "crossed-system":
        hopf = _parse_hopf(_nested(doc, "hopf", kind), field, "hopf")
        base = _parse_algebra(_nested(doc, "base", kind), field, "algebra")
        blocks = [_matrix_block(field, _require(doc, key, kind), key)
                  for key in ("measuring", "sigma", "sigma_inv")]
        dh, db = hopf.dim, base.dim
        system = CrossedSystem(
            hopf,
            base,
            _matrix(field, blocks[0], (db, dh * db), "measuring"),
            *(_matrix(field, b, (db, dh * dh), "sigma") for b in blocks[1:]),
        )
        _check_nested_hopf(hopf)
        _check_algebra_block(base, "base")
        return Presentation(kind, system)
    if kind == "hmodule":
        hopf = _parse_hopf(_nested(doc, "hopf", kind), field, "hopf")
        base = _parse_algebra(_nested(doc, "base", kind), field, "algebra")
        augmentation = _row_from_json(
            field, _require(doc, "augmentation", kind), base.dim, "augmentation"
        )
        aug = AugmentedAlgebra(base, augmentation)
        dp = aug.plus_dim
        action = _matrix_block(field, _require(doc, "action", kind), "action")
        act = HModuleStructure(hopf, aug, _matrix(field, action, (dp, hopf.dim * dp), "action"))
        cochain = None
        if "cochain" in doc:
            block = _matrix_block(field, doc["cochain"], "cochain")
            shape = (dp, hopf.dim ** 2)
            if block[:2] != shape:
                raise ParseError("cochain must be a %d x %d matrix" % shape)
            cochain = NormalizedCochain(2, _matrix(field, block))
        _check_nested_hopf(hopf)
        _check_algebra_block(base, "base")
        return Presentation(kind, (act, cochain))
    if kind == "lift-problem":
        # the domain C and the target D are over one H: each block has it,
        # and the target shares the domain's, checked once, when they agree.
        # Both, and their hopf blocks, are over the document's field, which
        # varpi and psi are read over, checked before either is built
        heads = []
        for key in ("domain", "target"):
            part = _nested(doc, key, kind)
            part_kind, part_field = _header(
                part, ("comodule-algebra",),
                "the %r block of a lift-problem must be a comodule-algebra" % key)
            _same_field(key, kind, part_field, field)
            _check_nested_fields(part, part_kind, field)
            heads.append((key, part, part_kind))
        parts, violations, hopf, hopf_violations = [], [], None, None
        for key, part, part_kind in heads:
            alg, h, coaction, aug = _comodule_algebra_blocks(part, field, part_kind)
            if hopf is not None and not _same_hopf_tables(hopf, h):
                raise ValidationError("the 'domain' and 'target' blocks of a lift-problem "
                                      "are over different Hopf algebras")
            if hopf is None or h.antipode != hopf.antipode:
                hopf, hopf_violations = h, check_axioms("hopf", h).violations
            try:
                parts.append(_comodule_algebra((alg, hopf, coaction, aug), hopf_violations).payload)
            except InvalidComoduleAlgebraError as e:
                violations += [(key + "-" + name, w) for name, w in e.violations]
        varpi = _matrix_block(field, _require(doc, "surjection", kind), "surjection")
        psi = _matrix_block(field, _require(doc, "map", kind), "map")
        # varpi : C -> D and psi : H -> D
        dc, dd = (len(doc[key]["basis"]) for key in ("domain", "target"))
        if varpi[:2] != (dd, dc):
            violations.append(("surjection-shape", varpi[:2]))
        if psi[:2] != (dd, hopf.dim):
            violations.append(("map-shape", psi[:2]))
        if violations:
            raise InvalidComoduleAlgebraError(violations, "a lift problem")
        return Presentation(kind, tuple(parts) + (_matrix(field, varpi), _matrix(field, psi)))
    if kind == "comodule-coalgebra":
        coalg = _parse_coalgebra(doc, field, kind)
        hopf = _parse_hopf(_nested(doc, "hopf", kind), field, "hopf")
        coaction = _matrix_block(field, _require(doc, "coaction", kind), "coaction")
        shape = (coalg.dim * hopf.dim, coalg.dim)
        data = ComoduleCoalgebraData(coalg, hopf, _matrix(field, coaction, shape, "coaction"))
        _check_nested_hopf(hopf)
        return Presentation(kind, data)
    raise ParseError("unknown presentation kind %r" % (kind,))


# ---------------------------------------------------------------------------
# reports


class Report:
    def __init__(self, command, verdict, exit_code, witnesses=None,
                 certificates=None, definitive=None):
        self.command = command
        self.verdict = verdict
        self.exit_code = exit_code
        self.witnesses = witnesses or {}
        self.certificates = certificates or {}
        self.definitive = definitive

    def to_json(self):
        doc = {
            "command": self.command,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "witnesses": self.witnesses,
            "certificates": self.certificates,
        }
        if self.definitive is not None:
            doc["definitive"] = self.definitive
            doc["budget_exhausted"] = not self.definitive
        return doc

    def render_human(self):
        lines = ["%s: %s" % (self.command, self.verdict)]
        for key in sorted(self.witnesses):
            lines.append("  %s: %s" % (key, json.dumps(self.witnesses[key], sort_keys=True)))
        if self.definitive is not None:
            lines.append("  definitive: %s" % self.definitive)
            lines.append("  budget_exhausted: %s" % (not self.definitive))
        return "\n".join(lines)


def _emit(report, args):
    if args.json:
        sys.stdout.write(json.dumps(report.to_json(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(report.render_human() + "\n")
    return report.exit_code


# ---------------------------------------------------------------------------
# commands


def _semantic_check(pres):
    kind, obj = pres.kind, pres.payload
    if kind in ("algebra", "coalgebra", "bialgebra", "hopf", "super-hopf"):
        return check_axioms(kind, obj).violations
    if kind == "graded-algebra":
        return list(check_grading(obj).violations)
    if kind in ("comodule-algebra", "lift-problem"):
        return []  # checked while parsing
    if kind == "crossed-system":
        return check_crossed_system(obj)
    if kind == "hmodule":
        return obj[0].validate()
    if kind == "comodule-coalgebra":
        return obj.validate()
    raise ValidationError("kind %r has no checker" % (kind,))


def cmd_check(args):
    try:
        pres = _load(args)
    except InvalidComoduleAlgebraError as e:
        violations = e.violations
    else:
        violations = _semantic_check(pres)
    if violations:
        return _emit(Report("check", "fail", 1, witnesses={
            "violations": [[v[0], list(v[1])] for v in violations[:10]],
        }), args)
    return _emit(Report("check", "pass", 0, witnesses={"kind": pres.kind}), args)


def cmd_antipode(args):
    b = _load(args).payload
    try:
        s = compute_antipode(b).antipode
    except NoAntipodeError:
        return _emit(Report("antipode", "not-found", 1), args)
    return _emit(Report("antipode", "found", 0, certificates={
        "antipode": _matrix_to_json(b.field, s),
    }), args)


def cmd_dual(args):
    d = dual_hopf(_load(args).payload)
    return _emit(Report("dual", "pass", 0, witnesses={
        "presentation": encode_hopf(d),
    }), args)


def _load_comodule_algebra(args):
    pres = _load(args)
    if pres.kind == "graded-algebra":
        return graded_bridge(pres.payload)
    return pres.payload


def cmd_coinvariants(args):
    ca = _load_comodule_algebra(args)
    coinv = ca.coinvariants
    return _emit(Report("coinvariants", "pass", 0, witnesses={
        "dimension": coinv.subalgebra.dim,
    }, certificates={
        "inclusion": _matrix_to_json(ca.field, coinv.inclusion),
    }), args)


def cmd_galois(args):
    ca = _load_comodule_algebra(args)
    rep = galois_map(ca)
    verdict = "pass" if rep.bijective else "fail"
    return _emit(Report("galois", verdict, 0 if rep.bijective else 1, witnesses={
        "bijective": rep.bijective,
        "rank": rep.rank,
    }, certificates={"beta": _matrix_to_json(ca.field, rep.beta)}), args)


def cmd_strongly_graded(args):
    ga = _load(args).payload
    ca = graded_bridge(ga)  # checks the grading
    ok, table = is_strongly_graded(ga)
    if ok:
        # A is strongly graded exactly when A/A_e is k[G]-Galois (Ulbrich)
        if not galois_map(ca).bijective:
            raise ValidationError("strong-grading verdicts disagree")
    witness_table = {"%s,%s" % k: v for k, v in sorted(table.items())}
    return _emit(Report("strongly-graded", "pass" if ok else "fail",
                        0 if ok else 1,
                        witnesses={"table": witness_table}), args)


def cmd_recognize_crossed(args):
    pres = _load(args)
    budget = _budget_from(args)
    try:
        rec = recognize_group_crossed_product(pres.payload, budget)
    except NotCrossedProductError as e:
        return _emit(Report("recognize-crossed", "not-found", 1,
                            definitive=e.definitive), args)
    f = pres.payload.field
    return _emit(Report("recognize-crossed", "found", 0, certificates={
        "units": {str(g): _row_to_json(f, u) for g, u in enumerate(rec.units)},
        "iso": _matrix_to_json(f, rec.iso),
    }), args)


def cmd_crossed_product(args):
    try:
        ca = crossed_product(_load(args).payload)
    except InvalidCrossedSystemError as e:
        return _emit(Report("crossed-product", "fail", 1, witnesses={
            "violations": [[v[0], list(v[1])] for v in e.violations[:10]],
        }), args)
    return _emit(Report("crossed-product", "pass", 0, witnesses={
        "presentation": encode_comodule_algebra(ca),
    }), args)


def cmd_find_section(args):
    ca = _load_comodule_algebra(args)
    budget = _budget_from(args)
    try:
        sec = find_section(ca, budget)
    except NoSectionFoundError as e:
        return _emit(Report("find-section", "not-found", 1,
                            definitive=e.definitive), args)
    return _emit(Report("find-section", "found", 0, certificates={
        "phi": _matrix_to_json(ca.field, sec.phi),
        "phi_inv": _matrix_to_json(ca.field, sec.phi_inv),
    }), args)


def cmd_recognize_cleft(args):
    ca = _load_comodule_algebra(args)
    budget = _budget_from(args)
    try:
        sec = find_section(ca, budget)
    except NoSectionFoundError as e:
        # cleft => Galois, but a Galois extension without the normal basis
        # property is not cleft (Doi-Takeuchi), so a bijective Galois map
        # beside a definitive negative is an answer
        return _emit(Report("recognize-cleft", "not-found", 1,
                            definitive=e.definitive,
                            witnesses={"galois_bijective": galois_map(ca).bijective}), args)
    # cleft implies Galois (Doi-Takeuchi), so the verified section, and the
    # isomorphism B x|_sigma H -> A checked from it, certify the witness
    system, iso = section_to_crossed_system(sec)
    return _emit(Report("recognize-cleft", "found", 0, witnesses={
        "galois_bijective": True,
    }, certificates={
        "system": encode_crossed_system(system),
        "iso": _matrix_to_json(ca.field, iso),
    }), args)


def cmd_classify_cleft(args):
    pres = _load(args)
    ext = AugmentedCleftExtension(pres.payload, pres.augmentation)
    cls = classify_cleft_extension(ext)
    f = ext.comodule_algebra.field
    return _emit(Report("classify-cleft", "pass", 0, witnesses={
        "hh2_dimension": cls.hh2_result.dimension,
        "class": [_native_json(f, c) for c in cls.class_coords],
        "is_split": cls.is_split,
    }, certificates={
        "cocycle": _matrix_to_json(f, cls.cochain.matrix),
    }), args)


def cmd_hh2(args):
    act, cochain = _load(args).payload
    result = hh2(act.hopf, act)
    f = act.hopf.field
    witnesses = {"dimension": result.dimension}
    if cochain is not None:
        witnesses["class"] = [_native_json(f, c) for c in result.decide(cochain)]
    return _emit(Report("hh2", "pass", 0, witnesses=witnesses, certificates={
        "representatives": [
            _matrix_to_json(f, c.matrix) for c in result.representative_cochains()
        ],
    }), args)


def cmd_split(args):
    pres = _load(args)
    ext = AugmentedCleftExtension(pres.payload, pres.augmentation)
    res = split_extension(ext)
    f = ext.comodule_algebra.field
    if res.split:
        return _emit(Report("split", "found", 0, certificates={
            "splitting": _matrix_to_json(f, res.splitting),
        }), args)
    return _emit(Report("split", "not-found", 1, witnesses={
        "obstruction": [_native_json(f, c) for c in res.obstruction],
    }), args)


def cmd_lift(args):
    domain, target, varpi, psi = _load(args).payload
    res = lift_comodule_algebra_map(domain, target, varpi, psi)
    f = domain.field
    if res.lifted:
        return _emit(Report("lift", "found", 0, certificates={
            "lift": _matrix_to_json(f, res.lift),
        }), args)
    return _emit(Report("lift", "not-found", 1, witnesses={
        "obstruction_step": res.obstruction_step,
        "obstruction": [_native_json(f, c) for c in res.obstruction],
    }), args)


def cmd_smash_coproduct(args):
    out = smash_coproduct(_load(args).payload)
    return _emit(Report("smash-coproduct", "pass", 0, witnesses={
        "presentation": encode_coalgebra(out.coalgebra),
    }), args)


def cmd_super_decompose(args):
    sp = _load(args).payload
    res = decompose(sp)
    f = sp.field
    return _emit(Report("super-decompose", "pass", 0, witnesses={
        "h_dimension": res.h.dim,
        "w_dimension": res.w.odd_dim,
        "h": encode_hopf(res.h),
    }, certificates={
        "pi": _matrix_to_json(f, res.pi),
        "phi": _matrix_to_json(f, res.phi),
        "delta": _matrix_to_json(f, res.delta),
        "alpha": _matrix_to_json(f, res.alpha),
    }), args)


# the largest n pairing builds Lambda(n) for: its dimension is 2^n, and n = 8
# takes about 0.09 s in-process and 26 MB (2-CPU Xeon, CPython 3.11), each
# further n about 3x
MAX_PAIRING_N = 8


def cmd_pairing(args):
    if args.n > MAX_PAIRING_N:
        raise ValidationError("pairing takes n <= %d, got n = %d" % (MAX_PAIRING_N, args.n))
    field = Rationals() if args.prime is None else _prime_field(args.prime)
    pairing = duality_pairing(args.n, field)
    return _emit(Report("pairing", "pass", 0, witnesses={
        "n": args.n,
        "nondegenerate": True,
    }, certificates={
        "pairing": _matrix_to_json(field, pairing.matrix),
        "iso": _matrix_to_json(field, pairing.iso),
    }), args)


# ---------------------------------------------------------------------------
# dispatch


def _budget_from(args):
    return SearchBudget(seed=args.seed, draws=args.budget)


def _load(args):
    """Parse args.file, rejecting a kind the command does not read (for
    check, the one --kind names) before anything in the file is built."""
    _, kinds, message = COMMANDS[args.command]
    if args.kind is not None:
        kinds = (args.kind,)
    return parse_presentation(args.file, kinds, message)


COMODULE = ("comodule-algebra", "graded-algebra")
NOT_COMODULE = "expected a comodule-algebra or graded-algebra file"
AUGMENTED = ("comodule-algebra", "augmentation")  # a tuple, so no --kind names it
NOT_AUGMENTED = "this command needs a comodule-algebra file with an augmentation block"

# Each command with the kinds of file it reads and the error (exit 2) that a
# file of any other kind gets as soon as its kind and field are read, before
# anything in it is built.  AUGMENTED is a comodule-algebra file with an
# augmentation block.  check reads every kind, or the one --kind names;
# pairing reads no file.
COMMANDS = {
    "check": (cmd_check, None, None),
    "antipode": (cmd_antipode, ("bialgebra", "hopf"), "antipode needs a bialgebra or hopf file"),
    "dual": (cmd_dual, ("hopf",), "dual needs a hopf file"),
    "coinvariants": (cmd_coinvariants, COMODULE, NOT_COMODULE),
    "galois": (cmd_galois, COMODULE, NOT_COMODULE),
    "strongly-graded": (cmd_strongly_graded, ("graded-algebra",),
                        "strongly-graded needs a graded-algebra file"),
    "recognize-crossed": (cmd_recognize_crossed, ("graded-algebra",),
                          "recognize-crossed needs a graded-algebra file"),
    "crossed-product": (cmd_crossed_product, ("crossed-system",),
                        "crossed-product needs a crossed-system file"),
    "find-section": (cmd_find_section, COMODULE, NOT_COMODULE),
    "recognize-cleft": (cmd_recognize_cleft, COMODULE, NOT_COMODULE),
    "classify-cleft": (cmd_classify_cleft, (AUGMENTED,), NOT_AUGMENTED),
    "hh2": (cmd_hh2, ("hmodule",), "hh2 needs an hmodule file"),
    "split": (cmd_split, (AUGMENTED,), NOT_AUGMENTED),
    "lift": (cmd_lift, ("lift-problem",), "lift needs a lift-problem file"),
    "smash-coproduct": (cmd_smash_coproduct, ("comodule-coalgebra",),
                        "smash-coproduct needs a comodule-coalgebra file"),
    "super-decompose": (cmd_super_decompose, ("super-hopf",),
                        "super-decompose needs a super-hopf file"),
    "pairing": (cmd_pairing, None, None),
}


# Each option by name: the type of its value (None for a flag, which is
# False unless given), its default and its help.  build_parser and
# _read_plain both read them from here, in this order, which is the order of
# the usage line.
OPTIONS = {
    "--json": (None, False, None),
    "--seed": (int, 0, None),
    "--budget": (int, 1000, None),
    "--certify": (None, False, None),
    "--kind": (str, None, "check only: the kind the file must declare"),
    "--n": (int, None, "pairing only (required): dim V of Lambda(V)"),
    "--prime": (int, None, "pairing only: work over F_p, not Q"),
}
_DEFAULTS = {name[2:]: default for name, (_, default, _) in OPTIONS.items()}


def build_parser():
    """The one flat parser: main rejects the options a command does not
    take.  Its usage line is laid out here, once, so that
    parse_intermixed_args does not lay it out again on every call."""
    parser = argparse.ArgumentParser(
        prog="hopfcross",
        description="exact-arithmetic checks and constructions for Hopf-algebraic structures",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", nargs="?", help="the input presentation (not for pairing)")
    for name, (convert, default, text) in OPTIONS.items():
        if convert is None:
            parser.add_argument(name, action="store_true", help=text)
        else:
            parser.add_argument(name, type=convert, default=default, help=text)
    parser.usage = parser.format_usage()[len("usage: "):].rstrip("\n")
    return parser


# Built once per process.  It holds configuration only: parse_intermixed_args
# restores the nargs, defaults and required flags it switches, in finally
# blocks, so a rejected call leaves nothing behind for the next one.
PARSER = build_parser()


def _read_plain(argv):
    """The Namespace that PARSER.parse_intermixed_args(argv) gives a plain
    argv, read in one pass, or None if argv is not plain.  In a plain argv
    each token is either an exact option name of OPTIONS, given at most
    once and followed by its value if it takes one, or a positional: the
    command, then at most the file.  No value or positional starts with '-',
    and each value converts by its type.  Every other argv (help, '--',
    abbreviations, --opt=value, repeats, negative numbers, bad values,
    unknown commands, extra positionals) is argparse's to read or reject."""
    values = dict(_DEFAULTS)
    positionals = []
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            positionals.append(token)
            continue
        if token not in OPTIONS or token in seen:
            return None
        seen.add(token)
        convert = OPTIONS[token][0]
        if convert is None:
            values[token[2:]] = True
            continue
        value = next(tokens, "-")  # a missing value is not plain
        if value[:1] == "-":
            return None
        try:
            values[token[2:]] = convert(value)
        except ValueError:
            return None
    if not 1 <= len(positionals) <= 2 or positionals[0] not in COMMANDS:
        return None
    command, file = (positionals + [None])[:2]
    return argparse.Namespace(command=command, file=file, **values)


def main(argv=None):
    parser = PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        args = parser.parse_intermixed_args(argv)
    if args.command == "pairing":
        if args.n is None or args.file is not None:
            parser.error("pairing needs --n and takes no file")
    elif args.file is None:
        parser.error("%s needs a file" % args.command)
    elif args.n is not None or args.prime is not None:
        parser.error("--n and --prime are for pairing only")
    if args.kind is not None and args.command != "check":
        parser.error("--kind is for check only")
    try:
        return COMMANDS[args.command][0](args)
    except HopfcrossError as e:
        return _fail(args, "error", 2, e)
    except Exception as e:
        # imported only here: importing traceback adds 0.4 MB to every run
        import traceback

        code = _fail(args, "internal error", 3, e)
        traceback.print_exc()
        return code


def _fail(args, prefix, code, exc):
    """Report an exception that ends a command and return its exit code."""
    sys.stderr.write("%s: %s\n" % (prefix, exc))
    if args.json:
        sys.stdout.write(json.dumps({
            "command": args.command,
            "verdict": "error",
            "exit_code": code,
            "error": str(exc),
        }, sort_keys=True, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
