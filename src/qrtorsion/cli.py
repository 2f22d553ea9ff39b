"""Command-line front end.

Verbs: torsion, spectral, classify, generate, potential, verify, batch.
All reports are JSON with sorted keys, so output is byte-identical for
identical (command line, input files, seed).  Errors go to standard
error as {"error": ..., "where": ...}; exit codes are 0 for success or
an all-pass verification, 1 for a verification failure, 2 for bad input
(a usage error on the command line included), 3 for an unexpected
internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys

from . import schemas
from .fields import FieldError, field_from_string
from .complexes import ComplexError
from .torsion import (TorsionError, milnor_torsion, periodic_torsion,
                      quantum_torsion)
from .spectral import SpectralError, PAGE3
from .threefold import (ThreefoldError, dichotomy_class, exhaustive_search,
                        no_slice_exists, INCOMPATIBLE)
from .models import ModelError
from .superpotential import (PotentialError, Representation, build_potential,
                             log_gradient, discriminant)
from .verifier import VerifierError, verify_main_theorem
from .generate import GenerateError, generate_instance, mutate_d2
from .linalg import LinAlgError, Matrix

INPUT_ERRORS = (schemas.SchemaError, FieldError, ComplexError, TorsionError,
                SpectralError, ThreefoldError, ModelError, PotentialError,
                VerifierError, GenerateError, LinAlgError, ValueError)


def _emit(doc, path=None):
    text = schemas.dump(doc, path)
    if path is None:
        sys.stdout.write(text)
    return text


def _load_kind(path, kinds):
    doc = schemas.load(path)
    kind = doc.get("kind")
    if kind not in kinds:
        raise schemas.SchemaError(
            f"expected a document of kind {' or '.join(kinds)}, "
            f"got kind={kind!r}")
    return doc


def _instance(path):
    return schemas.instance_from_json(_load_kind(path, ("instance",)))


def _parse_ints(text):
    return [int(x) for x in text.split(",")] if text else []


def _parse_point(field, text):
    return [field.parse(x) for x in text.split(",")]


def cmd_torsion(args):
    if args.flavor == "graded":
        doc = _load_kind(args.file, ("complex",))
        C = schemas.complex_from_json(doc)
        bases = (schemas.bases_from_json(C.field, C.ranks, doc["bases"])
                 if "bases" in doc else
                 [Matrix.zeros(C.field, r, 0) for r in C.ranks])
        tau = milnor_torsion(C, bases)
    elif args.flavor == "periodic":
        P = schemas.periodic_from_json(_load_kind(args.file, ("periodic",)))
        tau = periodic_torsion(P)
    else:
        doc = _load_kind(args.file, ("instance", "pearl"))
        P = (schemas.instance_from_json(doc).pearl if doc["kind"] == "instance"
             else schemas.pearl_from_json(doc))
        tau = quantum_torsion(P)
    _emit({"v": schemas.VERSION, "torsion": str(tau.canonical()),
           "normalized": True})
    return 0


def cmd_spectral(args):
    inst = _instance(args.file)
    S = inst.spectrum
    pg1 = S.page1
    out = {"v": schemas.VERSION, "kind": "spectral",
           "page1_ranks": pg1.ranks,
           "page2_ranks": pg1.homology_ranks(),
           "d1star": [schemas.matrix_to_json(pg1.d1star[k]) for k in range(3)],
           "collapse": S.collapse,
           "rate": None}
    if S.collapse == PAGE3:
        out["rate"] = inst.field.format(S.rate)
    _emit(out, args.output)
    return 0


def cmd_classify(args):
    F = field_from_string(args.field)
    form = schemas.form_from_json(schemas.load(args.file))
    cls = dichotomy_class(form, F, seed=args.seed)
    # ZeroForm is decided exactly, SlicedOddB has its slice as a witness and
    # even b has no slice; only a failed search that did not enumerate every
    # line is uncertain
    certain = (cls != INCOMPATIBLE or no_slice_exists(form.b)
               or exhaustive_search(F, form.b))
    _emit({"v": schemas.VERSION, "class": cls,
           "qualifier": "definitive" if certain else "randomized"})
    return 0


def cmd_generate(args):
    F = field_from_string(args.field)
    surplus = _parse_ints(args.surplus) if args.surplus else [0, 0, 0, 0]
    if len(surplus) != 4:
        raise schemas.SchemaError("--surplus takes four integers s0,s1,s2,s3")
    inst = generate_instance(args.page, args.b, F, args.seed,
                             _parse_ints(args.torsion), tuple(surplus))
    _emit(schemas.instance_to_json(inst), args.output)
    if args.output:
        print(f"wrote {inst.ident} to {args.output}")
    return 0


def cmd_potential(args):
    doc = schemas.load(args.file)
    D = schemas.discs_from_json(doc)
    F = field_from_string(args.field)
    phi = Representation(F, _parse_point(F, args.at))
    W = build_potential(D)
    if args.flavor == "eval":
        val = W.evaluate(phi)
        _emit({"v": schemas.VERSION, "value": F.format(val)})
    elif args.flavor == "grad":
        g = log_gradient(W, phi)
        _emit({"v": schemas.VERSION, "gradient": [F.format(x) for x in g]})
    else:
        val = discriminant(W, phi)
        _emit({"v": schemas.VERSION, "discriminant": F.format(val)})
    return 0


def cmd_verify(args):
    inst = _instance(args.file)
    rep = verify_main_theorem(inst)
    doc = schemas.report_to_json(rep, inst.field)
    if inst.ident is not None:
        doc["id"] = inst.ident
    _emit(doc, args.report)
    if args.report:
        print(f"{'PASS' if rep.all_pass else 'FAIL'} {inst.ident or args.file}")
    return 0 if rep.all_pass else 1


def cmd_batch(args):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    F = field_from_string(args.field)
    master = random.Random(args.seed)
    seeds = [master.getrandbits(32) for _ in range(args.count)]
    surplus = (2, 2, 2, 2) if args.corrupt else (0, 0, 0, 0)
    digest = hashlib.sha256()
    passed = detected = unmutatable = 0
    histogram = {}
    for idx, s in enumerate(seeds):
        inst = generate_instance(args.page, args.b, F, s, surplus=surplus)
        if args.corrupt:
            if inst.pearl.d2.is_zero():
                # nothing to mutate: neither verified nor hashed
                unmutatable += 1
                if args.verbose:
                    print(f"[{idx}] {inst.ident}: unmutatable")
                continue
            inst = mutate_d2(inst, seed=s ^ 0x5EED)
        rep = verify_main_theorem(inst)
        text = schemas.dump(schemas.report_to_json(rep, F))
        digest.update(text.encode())
        if rep.all_pass:
            passed += 1
        else:
            detected += 1
            for name, ok in sorted(rep.flags.items()):
                if not ok:
                    histogram[name] = histogram.get(name, 0) + 1
        if args.verbose:
            print(f"[{idx}] {inst.ident}: "
                  f"{'pass' if rep.all_pass else 'FAIL'}")
    summary = {"v": schemas.VERSION, "kind": "batch",
               "count": args.count, "passed": passed,
               "failed": args.count - passed - unmutatable,
               "failure_histogram": histogram,
               "digest": digest.hexdigest()}
    if args.corrupt:
        summary["detected"] = detected
        summary["unmutatable"] = unmutatable
    _emit(summary, args.output)
    if args.corrupt:
        return 0
    return 0 if passed == args.count else 1


class UsageError(Exception):
    """A command line argparse refuses, with the verb it names (where)."""

    def __init__(self, message, where):
        super().__init__(message)
        self.where = where


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError where it would print its usage and
    exit, so that main reports the error as every other bad input.  A
    value that starts with "-" and a digit, such as the point -1,2, is a
    value and not an option (argparse alone takes only a plain negative
    number so): no option of this command line looks like that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message, self.prog.partition(" ")[2] or self.prog)


def build_parser():
    p = _Parser(
        prog="qrtorsion",
        description="Exact torsion invariants of twisted pearl complexes.")
    sub = p.add_subparsers(dest="verb", required=True)

    t = sub.add_parser("torsion", help="torsion of a complex")
    t.add_argument("flavor", choices=["graded", "periodic", "quantum"])
    t.add_argument("file")
    t.set_defaults(run=cmd_torsion)

    s = sub.add_parser("spectral", help="degree spectral sequence of an instance")
    s.add_argument("file")
    s.add_argument("-o", "--output")
    s.set_defaults(run=cmd_spectral)

    c = sub.add_parser("classify", help="dichotomy class of a triple form")
    c.add_argument("file")
    c.add_argument("--field", default="Q")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(run=cmd_classify)

    g = sub.add_parser("generate", help="generate a narrow instance")
    g.add_argument("--page", type=int, choices=[2, 3], required=True)
    g.add_argument("--b", type=int, required=True)
    g.add_argument("--field", default="Q")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--torsion", default="",
                   help="comma-separated invariant factors of H_1")
    g.add_argument("--surplus", default="",
                   help="extra Morse ranks s0,s1,s2,s3 (birth pairs)")
    g.add_argument("-o", "--output")
    g.set_defaults(run=cmd_generate)

    w = sub.add_parser("potential", help="superpotential evaluation")
    w.add_argument("flavor", choices=["eval", "grad", "disc"])
    w.add_argument("file")
    w.add_argument("--at", required=True,
                   help="comma-separated coordinates of the representation")
    w.add_argument("--field", default="Q")
    w.set_defaults(run=cmd_potential)

    v = sub.add_parser("verify", help="verify all identities on an instance")
    v.add_argument("file")
    v.add_argument("--report")
    v.set_defaults(run=cmd_verify)

    b = sub.add_parser("batch", help="generate and verify a corpus")
    b.add_argument("--page", type=int, choices=[2, 3], required=True)
    b.add_argument("--b", type=int, default=None)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--field", default="Q")
    b.add_argument("--corrupt", action="store_true",
                   help="mutate one disc-map entry per instance")
    b.add_argument("--verbose", action="store_true")
    b.add_argument("-o", "--output")
    b.set_defaults(run=cmd_batch)
    return p


def _fail(message, where, code):
    json.dump({"error": message, "where": where}, sys.stderr)
    sys.stderr.write("\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        return _fail(str(e), e.where, 2)
    if args.verb == "batch" and args.b is None:
        args.b = 3 if args.page == 2 else 2
    try:
        return args.run(args)
    except INPUT_ERRORS as e:
        return _fail(str(e), args.verb, 2)
    except Exception as e:
        return _fail(f"internal error: {type(e).__name__}: {e}", args.verb, 3)


if __name__ == "__main__":
    sys.exit(main())
