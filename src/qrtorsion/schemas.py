"""JSON serialization for every object the command line moves around.

All documents carry a version field ("v": 1) and a "kind".  Scalars are
strings ("p/q" over the rationals, a decimal residue over a prime field);
matrices are row-major arrays of scalar strings.  A JSON integer reads as a
scalar too; a float or a boolean is rejected.  Over Q a scalar reads to a
(numerator, denominator) pair, by int() where the string is plain digits and
by Fraction otherwise, and a matrix is built from the pairs with no
Fraction made.  :func:`dump` writes the document vocabulary (exact str,
int, bool and None leaves, lists, dicts with str keys) itself and leaves
any other value to its one fallback, json.dumps.
"""

from __future__ import annotations

import json
from itertools import chain
from math import gcd
from json.encoder import encode_basestring_ascii as _quote

from .fields import Field, field_from_string, field_to_string
from .linalg import Matrix
from .complexes import (BasedChainComplex, TwistedPearlComplex, PeriodicComplex,
                        admissibility_error)
from .threefold import ThreefoldHomology, TripleForm
from .models import MAX_RANK
from .superpotential import DiscSystem, Representation
from .verifier import Instance, VerificationReport

VERSION = 1


class SchemaError(Exception):
    pass


def _object(value, where):
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be a JSON object")
    return value


def _require(doc, key, where):
    if key not in _object(doc, where):
        raise SchemaError(f"missing key '{key}' in {where}")
    return doc[key]


def _list(value, where, length=None):
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise SchemaError(f"{where} must be a list"
                          + (f" of {length} items" if length is not None else ""))
    return value


def _int(value, where):
    # a JSON integer only: not a float such as 1.0, a string or a bool
    if type(value) is not int:
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    return value


def _ints(values, where):
    values = _list(values, where)
    for x in values:
        if type(x) is not int:
            _int(x, where)
    return list(values)


def _rank(value, where):
    # a declared chain rank, refused before any matrix of that size is built
    if not 0 <= _int(value, where) <= MAX_RANK:
        raise SchemaError(f"{where} must be between 0 and {MAX_RANK}, "
                          f"got {value}")
    return value


def _ranks(values, where):
    if not _list(values, where):
        raise SchemaError(f"{where} must not be empty")
    return [_rank(x, where) for x in values]


def _parse(field: Field, x):
    """One scalar as the reader keeps it: ``field.parse(x)`` over F_p, and
    over Q the numerator and denominator of ``field.parse(x)`` in lowest
    terms.  A JSON integer and an ASCII string [+-]digits or
    [+-]digits/digits with a nonzero denominator are read by int() alone;
    every other value goes through ``field.parse``, so Q accepts exactly
    what Fraction accepts (int() also reads "1_2", Fraction not before
    Python 3.11)."""
    if field.char:
        return field.parse(x)
    if type(x) is int:
        return x, 1
    if type(x) is str and x.isascii():
        n, slash, d = x.partition("/")
        if (n[1:] if n[:1] in "+-" else n).isdigit() and \
                (not slash or d.isdigit()):
            n, d = int(n), (int(d) if slash else 1)
            if d:
                g = gcd(n, d)
                return n // g, d // g
    f = field.parse(x)
    return f.numerator, f.denominator


class _Reader:
    """Scalars and matrices of one document over its field: each distinct
    JSON value is parsed once, by :func:`_parse`, and each matrix is built from
    the parsed rows by ``Matrix.from_parsed``, with no Fraction made.  A
    document repeats a few scalar strings many times.  A scalar is a string
    or a JSON integer: a float or a boolean would parse inexactly (2.5
    truncates to 2 over F_p, 0.1 is a binary fraction over Q, true is 1), so
    it is rejected.  Keys carry the value's type, so 1 and "1" never share
    an entry; an unhashable value is parsed (and rejected) as is."""

    def __init__(self, field: Field):
        self.field = field
        self._memo = {}

    def scalars(self, values, where):
        field, memo, parse = self.field, self._memo, _parse
        out = []
        try:
            for x in values:
                try:
                    key = (type(x), x)
                    v = memo[key]
                except KeyError:
                    if type(x) in (bool, float):
                        raise TypeError(f"{x!r} is not a string or an "
                                        "integer") from None
                    v = memo[key] = parse(field, x)
                except TypeError:
                    v = parse(field, x)
                out.append(v)
        except Exception as e:
            raise SchemaError(f"bad scalar in {where}: {e}") from e
        return out

    def matrix(self, data, nrows, ncols, where):
        if (not isinstance(data, list) or len(data) != nrows
                or any(not isinstance(r, list) or len(r) != ncols
                       for r in data)):
            raise SchemaError(f"matrix in {where} must be {nrows}x{ncols}")
        rows = [self.scalars(r, where) for r in data]
        return Matrix.from_parsed(self.field, rows, nrows, ncols)


def matrix_to_json(M: Matrix):
    """M's entries as scalar strings, as ``field.format`` writes them, read
    straight off ``num`` and ``den``: an integer row is its decimals, and
    over Q an entry n / den is reduced by gcd(n, den), written "p/q" when
    the reduced denominator is not 1."""
    d = M.den
    if d == 1:
        return [list(map(str, row)) for row in M.num]
    return [[str(n // g) if (g := gcd(n, d)) == d else f"{n // g}/{d // g}"
             for n in row] for row in M.num]


def matrix_from_json(field: Field, data, nrows, ncols, where):
    return _Reader(field).matrix(data, nrows, ncols, where)


def field_from_doc(doc, where="document") -> Field:
    try:
        return field_from_string(_require(doc, "field", where))
    except SchemaError:
        raise
    except Exception as e:
        raise SchemaError(f"bad field spec in {where}: {e}") from e


def complex_from_json(doc) -> BasedChainComplex:
    F = field_from_doc(doc, "complex")
    ranks = _ranks(_require(doc, "ranks", "complex"), "complex ranks")
    data = _list(_require(doc, "boundaries", "complex"),
                 "complex boundaries (one per positive degree)", len(ranks) - 1)
    read = _Reader(F)
    bnds = [read.matrix(data[k - 1], ranks[k - 1], ranks[k],
                        f"boundary d_{k}")
            for k in range(1, len(ranks))]
    return BasedChainComplex(F, ranks, bnds)


def bases_from_json(field, ranks, data, where="bases"):
    return _bases(_Reader(field), ranks, data, where)


def _bases(read, ranks, data, where):
    _list(data, f"{where} (one matrix per degree)", len(ranks))
    out = []
    for k, mat in enumerate(data):
        ncols = len(mat[0]) if isinstance(mat, list) and mat and \
            isinstance(mat[0], list) else 0
        out.append(read.matrix(mat, ranks[k], ncols, f"{where}[{k}]"))
    return out


def bases_to_json(bases):
    return [matrix_to_json(M) for M in bases]


def pearl_to_json(P: TwistedPearlComplex):
    return {"v": VERSION, "kind": "pearl",
            "field": field_to_string(P.field),
            "ranks": list(P.ranks),
            "dM": [matrix_to_json(P.dM(k)) for k in range(1, 4)],
            "d1": [matrix_to_json(P.d1_map(k)) for k in range(3)],
            "d2": matrix_to_json(P.d2)}


def pearl_from_json(doc) -> TwistedPearlComplex:
    return _pearl(_Reader(field_from_doc(doc, "pearl")), doc)


def _pearl(read, doc) -> TwistedPearlComplex:
    ranks = _ranks(_list(_require(doc, "ranks", "pearl"),
                         "pearl ranks (degrees 0..3)", 4), "pearl ranks")
    dM = [read.matrix(m, ranks[k], ranks[k + 1], f"dM_{k + 1}")
          for k, m in enumerate(_list(_require(doc, "dM", "pearl"), "dM", 3))]
    d1 = [read.matrix(m, ranks[k + 1], ranks[k], f"d1_{k}")
          for k, m in enumerate(_list(_require(doc, "d1", "pearl"), "d1", 3))]
    d2 = read.matrix(_require(doc, "d2", "pearl"), ranks[3], ranks[0], "d2")
    return TwistedPearlComplex(read.field, ranks, dM, d1, d2)


def periodic_to_json(P: PeriodicComplex):
    return {"v": VERSION, "kind": "periodic",
            "field": field_to_string(P.field),
            "n_odd": P.n_odd, "n_even": P.n_even,
            "d_oe": matrix_to_json(P.d_oe), "d_eo": matrix_to_json(P.d_eo)}


def periodic_from_json(doc) -> PeriodicComplex:
    F = field_from_doc(doc, "periodic complex")
    n_odd = _rank(_require(doc, "n_odd", "periodic complex"), "n_odd")
    n_even = _rank(_require(doc, "n_even", "periodic complex"), "n_even")
    read = _Reader(F)
    d_oe = read.matrix(_require(doc, "d_oe", "periodic"), n_even, n_odd,
                       "d_oe")
    d_eo = read.matrix(_require(doc, "d_eo", "periodic"), n_odd, n_even,
                       "d_eo")
    return PeriodicComplex(F, n_odd, n_even, d_oe, d_eo)


def form_to_json(I: TripleForm):
    return {"b": I.b, "entries": [{"ijk": list(k), "v": v}
                                  for k, v in I.entries()]}


def form_from_json(doc) -> TripleForm:
    """The form of a document, read in one pass over its entries.  While
    they are as form_to_json writes them, {"ijk": [i, j, k], "v": v} of
    exact JSON integers with 1 <= i < j < k <= b and the triples strictly
    ascending (so none repeats), their coefficients are stored as they
    stand.  From the first entry that is not so, each entry is checked
    key by key, and one that repeats a triple read before it (one of
    value 0 too) is refused; these entries are set on the form after the
    check on b, in document order, so the first key at fault names the
    error."""
    b = _int(_require(doc, "b", "triple form"), "triple form b")
    entries = iter(_list(doc.get("entries", []), "form entries"))
    coeffs, zeros, rest, last = {}, [], [], (0, 0, 0)
    for e in entries:
        if type(e) is dict:
            ijk, v = e.get("ijk"), e.get("v")
            if type(ijk) is list and len(ijk) == 3 and type(v) is int:
                i, j, k = key = tuple(ijk)
                if (type(i) is int and type(j) is int and type(k) is int
                        and last < key and 0 < i < j < k <= b):
                    last = key
                    if v:
                        coeffs[key] = v
                    else:
                        zeros.append(key)
                    continue
        seen = {*coeffs, *zeros}    # each unordered triple once
        for e in chain((e,), entries):
            ijk = _ints(_require(e, "ijk", "form entry"), "form entry ijk")
            if len(ijk) != 3:
                raise SchemaError("form entries index three generators")
            key = tuple(sorted(ijk))
            if key in seen:
                raise SchemaError(f"form entry {ijk} repeats the triple "
                                  f"{list(key)}")
            seen.add(key)
            rest.append((ijk, _int(_require(e, "v", "form entry"),
                                   "form entry v")))
        break
    I = TripleForm(b)
    I.coeffs = coeffs
    for (i, j, k), v in rest:
        I.set(i, j, k, v)
    return I


def homology_to_json(H: ThreefoldHomology):
    return {"b": H.b, "torsion": list(H.torsion)}


def homology_from_json(doc) -> ThreefoldHomology:
    return ThreefoldHomology(_int(_require(doc, "b", "homology"), "homology b"),
                             _ints(doc.get("torsion", []), "homology torsion"))


def discs_to_json(D: DiscSystem):
    return {"b": D.b, "discs": [{"d": list(bd), "m0": m0}
                                for bd, m0 in D.discs]}


def discs_from_json(doc) -> DiscSystem:
    b = _int(_require(doc, "b", "disc system"), "disc system b")
    discs = [(_ints(_require(e, "d", "disc"), "disc d"),
              _int(_require(e, "m0", "disc"), "disc m0"))
             for e in _list(doc.get("discs", []), "disc system discs")]
    return DiscSystem(b, discs)


def instance_to_json(inst: Instance):
    doc = {"v": VERSION, "kind": "instance",
           "field": field_to_string(inst.field),
           "homology": homology_to_json(inst.homology),
           "form": form_to_json(inst.form),
           "pearl": pearl_to_json(inst.pearl),
           "bases": bases_to_json(inst.bases)}
    if inst.ident is not None:
        doc["id"] = inst.ident
    if inst.discs is not None:
        doc["discs"] = discs_to_json(inst.discs)
    if inst.representation is not None:
        doc["representation"] = [inst.field.format(v)
                                 for v in inst.representation.values]
    return doc


def instance_from_json(doc) -> Instance:
    F = field_from_doc(doc, "instance")
    pearl_doc = _object(_require(doc, "pearl", "instance"), "pearl")
    pearl_F = field_from_doc(pearl_doc, "pearl") if "field" in pearl_doc else F
    if pearl_F != F:
        raise SchemaError(f"pearl.field {field_to_string(pearl_F)} differs "
                          f"from field {field_to_string(F)}")
    read = _Reader(F)
    pearl = _pearl(read, pearl_doc)
    homology = homology_from_json(_require(doc, "homology", "instance"))
    form = form_from_json(_require(doc, "form", "instance"))
    if form.b != homology.b:
        raise SchemaError(f"form.b = {form.b} differs from homology.b = "
                          f"{homology.b}")
    error = admissibility_error(homology.torsion, F)
    if error:
        raise SchemaError(f"inadmissible field {field_to_string(F)}: {error}")
    bases = _bases(read, pearl.ranks, _require(doc, "bases", "instance"),
                   "bases")
    b, cols = homology.b, [B.ncols for B in bases]
    if cols != [1, b, b, 1]:
        raise SchemaError(f"bases have {cols} columns, not [1, b, b, 1] for "
                          f"homology.b = {b}")
    discs = discs_from_json(doc["discs"]) if "discs" in doc else None
    if discs is not None and discs.b != homology.b:
        raise SchemaError(f"discs.b = {discs.b} differs from homology.b = "
                          f"{homology.b}")
    representation = None
    if "representation" in doc:
        values = _list(doc["representation"], "representation")
        representation = Representation(F, read.matrix(
            [values], 1, len(values), "representation").rows[0])
    return Instance(homology, form, F, pearl, bases, discs, representation,
                    doc.get("id"))


def report_to_json(rep: VerificationReport, field: Field):
    return {"v": VERSION, "kind": "report",
            "collapse": rep.collapse,
            "torsion_direct": str(rep.torsion_direct.canonical())
            if rep.torsion_direct is not None else None,
            "torsion_formula": str(rep.torsion_formula.canonical())
            if rep.torsion_formula is not None else None,
            "A_det": field.format(rep.A_det) if rep.A_det is not None else None,
            "r": field.format(rep.r) if rep.r is not None else None,
            "Q_det": field.format(rep.Q_det) if rep.Q_det is not None else None,
            "flags": dict(rep.flags),
            "implied": dict(rep.implied),
            "notes": list(rep.notes),
            "all_pass": rep.all_pass}


def load(path):
    """The JSON object in the file; every document is an object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed JSON at line {e.lineno}, column "
                          f"{e.colno}: {e.msg}")
    except RecursionError:
        raise SchemaError("JSON nested too deeply")
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


class _Other(Exception):
    """A value outside the document vocabulary, which json writes."""


def _json(o, nl):
    """o as json.dumps(o, indent=2, sort_keys=True) writes it, with nl the
    newline and indentation of the line o starts on, for o in the document
    vocabulary: exact str, int, bool and None leaves, lists, and dicts with
    str keys.  Any other value raises _Other.  Exact str and int list items
    and str, int, true, false and null dict values (a report's flags, a
    form entry's coefficient) are written without a call, and a list of
    dicts by _dict_items, which fills each form entry into a template."""
    if type(o) is list:
        if not o:
            return "[]"
        inner = nl + "  "
        items = (_dict_items(o, inner) if type(o[0]) is dict else
                 [_quote(x) if type(x) is str else
                  int.__repr__(x) if type(x) is int else _json(x, inner)
                  for x in o])
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if type(o) is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        try:
            items = [_quote(k) + ": "
                     + (_quote(v) if type(v) is str else
                        int.__repr__(v) if type(v) is int else
                        "true" if v is True else "false" if v is False else
                        "null" if v is None else _json(v, inner))
                     for k, v in sorted(o.items())]
        except TypeError:
            # a key that is not a str: sorted cannot order it among str
            # keys, or _quote refuses it
            raise _Other from None
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(o) is str:
        return _quote(o)
    if type(o) is int:
        return int.__repr__(o)
    if o is None or type(o) is bool:
        return "null" if o is None else "true" if o else "false"
    raise _Other


def _dict_items(o, nl):
    """The items of the list o as _json writes them on lines indented by
    nl, with each form entry {"ijk": [i, j, k], "v": v} of exact ints
    filled into one template ("ijk" sorts before "v") and any other item
    left to _json."""
    i2, i3 = nl + "  ", nl + "    "
    entry = ("{" + i2 + '"ijk": [' + i3 + "%d," + i3 + "%d," + i3 + "%d"
             + i2 + "]," + i2 + '"v": %d' + nl + "}")
    out = []
    for x in o:
        if (type(x) is dict and len(x) == 2
                and type(ijk := x.get("ijk")) is list and len(ijk) == 3
                and type(v := x.get("v")) is int):
            i, j, k = ijk
            if type(i) is int and type(j) is int and type(k) is int:
                out.append(entry % (i, j, k, v))
                continue
        out.append(_json(x, nl))
    return out


def dump(doc, path=None):
    """The document as json.dumps(doc, indent=2, sort_keys=True) plus a
    newline writes it, byte for byte, written to path when one is given.
    _json writes the document vocabulary, escaping with json's C encoder
    (with an indent, json up to Python 3.13 encodes in pure Python).  The
    one fallback is json.dumps itself: it writes, or raises its own error
    for, a value outside the vocabulary or nested too deep (or circular).
    A path that cannot be written is bad input: SchemaError."""
    try:
        text = _json(doc, "\n") + "\n"
    except (_Other, RecursionError):
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        return text
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e}")
    return text
