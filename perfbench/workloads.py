"""The three seeded workloads, driven through the library's public API.

Each op makes the calls the CLI makes: ``generate`` is ``generate_instance``
+ ``instance_to_json`` + ``dump``; ``verify`` of a document is ``json`` parse
+ ``instance_from_json`` + ``verify_main_theorem`` + ``report_to_json`` +
``dump``; ``batch --corrupt`` verifies in memory and mutates with
``mutate_d2``.  Library functions are looked up on their modules at call
time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time

PACKAGE = "qrtorsion"


class Lib:
    """A fresh import of the library's modules."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for mod in ("fields", "schemas", "verifier", "generate"):
            setattr(self, mod, importlib.import_module(f"{PACKAGE}.{mod}"))


class CheckFailed(Exception):
    """A result that is not exactly what the library must produce."""


class OpResult:
    """Timings and digest texts of one op."""

    def __init__(self):
        self.generate_ms = 0.0
        self.verify_ms = 0.0
        self.texts = []
        self.mutants = 0
        self.detected = 0
        self.unmutatable = 0


def _ms(t0):
    return (time.perf_counter() - t0) * 1e3


def _derived_seeds(seed, tag, n):
    rng = random.Random(f"{tag}:{seed}")
    return [rng.getrandbits(32) for _ in range(n)]


def _nth(seeds, i):
    return seeds[i % len(seeds)]


def generate_doc(lib, page, b, field, seed, torsion, surplus, res):
    """``qrtorsion generate``: the instance and its JSON text."""
    t0 = time.perf_counter()
    inst = lib.generate.generate_instance(page, b, field, seed, torsion, surplus)
    text = lib.schemas.dump(lib.schemas.instance_to_json(inst))
    res.generate_ms += _ms(t0)
    res.texts.append(text)
    return inst, text


def verify_doc(lib, text, res):
    """``qrtorsion verify`` on one document: the report's JSON text."""
    t0 = time.perf_counter()
    inst = lib.schemas.instance_from_json(json.loads(text))
    rep = lib.verifier.verify_main_theorem(inst)
    doc = lib.schemas.report_to_json(rep, inst.field)
    if inst.ident is not None:
        doc["id"] = inst.ident
    out = lib.schemas.dump(doc)
    res.verify_ms += _ms(t0)
    res.texts.append(out)
    if not rep.all_pass:
        failed = sorted(k for k, ok in rep.flags.items() if not ok)
        raise CheckFailed(f"{inst.ident}: clean instance failed {failed}")
    return out


def verify_in_memory(lib, inst, res):
    """The verify step of ``qrtorsion batch``: the report."""
    t0 = time.perf_counter()
    rep = lib.verifier.verify_main_theorem(inst)
    res.texts.append(lib.schemas.dump(lib.schemas.report_to_json(rep, inst.field)))
    res.verify_ms += _ms(t0)
    return rep


class Workload:
    """A workload builds its op inputs from the seed in ``setup(lib, seed,
    rep, tick)`` and runs op ``i`` on them in ``op(lib, inputs, i, res)``;
    the texts of the first ``digest_ops`` ops make the corpus digest.  Set-up
    calls ``tick`` between units of work so the machine's speed is sampled.
    Class attributes are the workload's sizes; the smoke check overrides
    them with tiny ones."""

    setup_reps = 7

    def __init__(self, **sizes):
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise AttributeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)

    def merge(self, reps):
        """The op inputs, from the inputs each set-up rep built."""
        return reps[-1]


class LiftPage2F7(Workload):
    """One op: generate a page-2 instance at b=9 over GF(7), then verify it."""

    name = "lift-page2-f7"
    page, b, field_spec = 2, 9, "F7"
    digest_ops = 3

    def setup(self, lib, seed, rep, tick):
        return {"field": lib.fields.field_from_string(self.field_spec),
                "seeds": _derived_seeds(seed, self.name, 1 << 12)}

    def op(self, lib, inputs, i, res):
        _inst, text = generate_doc(lib, self.page, self.b, inputs["field"],
                                   _nth(inputs["seeds"], i), (), (0, 0, 0, 0), res)
        verify_doc(lib, text, res)


class VerifyPage3Q(Workload):
    """One op: ``qrtorsion verify`` on one page-3 document at b=4 over Q.

    Set-up generates the documents, so generation over Q is timed there.
    Every set-up rep adds its own documents to the pool the ops cycle
    through: more distinct instances make the median steadier.
    """

    name = "verify-page3-q"
    page, b, field_spec = 3, 4, "Q"
    torsion, surplus = (3, 9), (1, 1, 1, 1)
    setup_reps = 4
    docs_per_rep = 8

    @property
    def digest_ops(self):
        return self.setup_reps * self.docs_per_rep

    def setup(self, lib, seed, rep, tick):
        F = lib.fields.field_from_string(self.field_spec)
        docs, generate = [], []
        for s in _derived_seeds(seed, f"{self.name}:{rep}", self.docs_per_rep):
            res = OpResult()
            t0 = time.perf_counter()
            generate_doc(lib, self.page, self.b, F, s, self.torsion,
                         self.surplus, res)
            generate.append((t0, time.perf_counter(), res.generate_ms))
            docs.append(res.texts[0])
            tick()
        return {"docs": docs, "generate": generate}

    def merge(self, reps):
        return {"docs": [d for r in reps for d in r["docs"]],
                "generate": [g for r in reps for g in r["generate"]]}

    def op(self, lib, inputs, i, res):
        docs = inputs["docs"]
        text = docs[i % len(docs)]
        report = verify_doc(lib, text, res)
        # a document's report must be byte-identical every time it is verified
        first = inputs.setdefault("reports", {}).setdefault(i % len(docs), report)
        if report != first:
            raise CheckFailed("verify report differs between two runs on one "
                              "document")
        if i < len(docs):
            res.texts.insert(0, text)


class BatchCorruptF5(Workload):
    """One op: ``batch --corrupt`` on a page-2 (b=3) and a page-3 (b=2)
    instance over F5 with surplus (2,2,2,2).  Both shapes are in every op,
    so ops stay alike and the median does not sit between two clusters."""

    name = "batch-corrupt-f5"
    field_spec = "F5"
    shapes = ((2, 3), (3, 2))
    surplus = (2, 2, 2, 2)
    digest_ops = 20

    def setup(self, lib, seed, rep, tick):
        return {"field": lib.fields.field_from_string(self.field_spec),
                "seeds": _derived_seeds(seed, self.name, 1 << 16)}

    def op(self, lib, inputs, i, res):
        F = inputs["field"]
        for k, (page, b) in enumerate(self.shapes):
            s = _nth(inputs["seeds"], 2 * i + k)
            inst, _text = generate_doc(lib, page, b, F, s, (), self.surplus, res)
            rep = verify_in_memory(lib, inst, res)
            if not rep.all_pass:
                failed = sorted(n for n, ok in rep.flags.items() if not ok)
                raise CheckFailed(f"{inst.ident}: clean instance failed {failed}")
            try:
                mutant = lib.generate.mutate_d2(inst, seed=s ^ 0x5EED)
            except lib.generate.GenerateError:
                # d2 is zero, so there is no entry to corrupt
                res.unmutatable += 1
                continue
            res.texts.append(lib.schemas.dump(lib.schemas.instance_to_json(mutant)))
            res.mutants += 1
            if not verify_in_memory(lib, mutant, res).all_pass:
                res.detected += 1


WORKLOADS = {w.name: w for w in (LiftPage2F7(), VerifyPage3Q(), BatchCorruptF5())}
