"""Workspace documents: JSON in, domain values out, reports back to JSON.

One file holds named documents of every kind plus a list of check specs;
``DOCUMENTS`` lists the kinds, each with its section, decoder and the
categories its documents live on.  Pair-valued table keys (composition, pullbacks, products) are encoded as
"g|f", which is why ids may not contain the bar.  Loading validates against
the shipped JSON Schema first, then resolves every cross-reference; both
kinds of failure raise WorkspaceError with a path-shaped diagnostic, which
the command line maps to exit code 2.

Validation runs on the stdlib validator in ``zsite.schema``, compiled once
per process from the schema with its ``$defs`` inlined.  It supports the
validation keywords the shipped schema uses: ``type``, ``enum``,
``minimum``, ``properties``, ``required``, ``additionalProperties``,
``propertyNames``, ``items``, ``prefixItems``, ``minItems``, ``maxItems``,
``pattern`` and ``minLength``; its messages and paths are those of
``jsonschema.Draft202012Validator``.
"""

from __future__ import annotations

import functools
import json
import os

from . import schema as jsonschema  # the name clibench's tracer wraps to time validation
from .fincat import FinCat, Functor, InputError, partition_from_blocks
from .modular import ModelLabeledCat
from .sheaf import Presheaf
from .site import CoveringAssignment, LadderMorphism, LayeredCategory, PointedBase, Square
from .fingerprint import graded_dims
from .zlin import ZMorphism, ZObject, z_morphism, z_object


class WorkspaceError(Exception):
    """Schema violation or unresolved cross-reference, with a JSON path."""


def _schema() -> dict:
    path = os.path.join(os.path.dirname(__file__), "schemas", "workspace.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _inline_refs(node, defs: dict):
    """``node`` with every ``{"$ref": "#/$defs/name"}`` replaced by that definition.

    Each reference in the shipped schema is the only key of its node and no
    definition refers to itself, so the inlined schema validates exactly as
    the referencing one does, without resolving a reference per instance.
    """
    if isinstance(node, dict):
        if "$ref" in node:
            return _inline_refs(defs[node["$ref"].removeprefix("#/$defs/")], defs)
        return {key: _inline_refs(value, defs) for key, value in node.items()}
    if isinstance(node, list):
        return [_inline_refs(value, defs) for value in node]
    return node


@functools.cache
def inlined_schema() -> dict:
    """The workspace schema with its ``$defs`` inlined, built once per process."""
    schema = _schema()
    return _inline_refs(schema, schema.pop("$defs"))


def _pair(key: str, path: str) -> tuple[str, str]:
    parts = key.split("|")
    if len(parts) != 2:
        raise WorkspaceError(f"{path}: key {key!r} is not of the form 'g|f'")
    return parts[0], parts[1]


def pair_key(a: str, b: str) -> str:
    return f"{a}|{b}"


# =====================================================================
# per-kind decoding
# =====================================================================


def cat_from_doc(name: str, doc: dict) -> FinCat:
    path = f"categories.{name}"
    return FinCat(
        name=name,
        objects=tuple(doc["objects"]),
        morphisms={m: (src, tgt) for m, (src, tgt) in doc["morphisms"].items()},
        identities=dict(doc["identities"]),
        composition={_pair(k, f"{path}.composition"): v for k, v in doc.get("composition", {}).items()},
        pullbacks={
            _pair(k, f"{path}.pullbacks"): tuple(v) for k, v in doc.get("pullbacks", {}).items()
        },
        products={
            _pair(k, f"{path}.products"): tuple(v) for k, v in doc.get("products", {}).items()
        },
    )


def cat_to_doc(cat: FinCat) -> dict:
    doc = {
        "objects": sorted(cat.objects),
        "morphisms": {m: list(ends) for m, ends in sorted(cat.morphisms.items())},
        "identities": dict(sorted(cat.identities.items())),
        "composition": {pair_key(*k): v for k, v in sorted(cat.composition.items())},
    }
    if cat.pullbacks:
        doc["pullbacks"] = {pair_key(*k): list(v) for k, v in sorted(cat.pullbacks.items())}
    if cat.products:
        doc["products"] = {pair_key(*k): list(v) for k, v in sorted(cat.products.items())}
    return doc


def zobject_to_doc(obj: ZObject) -> dict:
    return {"components": [[i, o, c] for i, o, c in obj.components]}


def zmorphism_to_doc(phi: ZMorphism, category: str = "", source: str = "", target: str = "") -> dict:
    doc = {
        "terms": [[r, c, v, a] for r, c, a, v in phi.normal_form()],
        "source_components": zobject_to_doc(phi.source)["components"],
        "target_components": zobject_to_doc(phi.target)["components"],
    }
    if category:
        doc = {"category": category, "source": source, "target": target, **doc}
    return doc


# =====================================================================
# workspace
# =====================================================================


class Workspace:
    """Decoded documents, one table per ``DOCUMENTS`` row; ``_decode`` fills them in place."""

    def __init__(self):
        vars(self).update({table: {} for table, _noun, _decode, _cats in DOCUMENTS.values()}, checks=())

    def lookup(self, role: str, name, path: str):
        """The entry ``name`` of the ``role`` table; an unknown name is an error at ``path``."""
        table, noun, _decode, _cats = DOCUMENTS[role]
        entries = getattr(self, table)
        if not isinstance(name, str) or name not in entries:
            raise WorkspaceError(f"{path}: unknown {noun} {name!r}")
        return entries[name]


def _category(ws: Workspace, doc: dict, path: str) -> FinCat:
    """The category ``doc`` names in its field ``category``."""
    return ws.lookup("category", doc["category"], f"{path}.category")


def _zobject(_ws: Workspace, _name: str, doc: dict, path: str) -> ZObject:
    try:
        return z_object(tuple(tuple(c) for c in doc["components"]))
    except InputError as exc:
        raise WorkspaceError(f"{path}: {exc}") from exc


def _zmorphism(ws: Workspace, _name: str, doc: dict, path: str) -> tuple[FinCat, ZMorphism]:
    cat = _category(ws, doc, path)
    src = ws.lookup("zobject", doc["source"], f"{path}.source")
    tgt = ws.lookup("zobject", doc["target"], f"{path}.target")
    return cat, z_morphism(src, tgt, [(r, c, v, a) for r, c, v, a in doc["terms"]])


def _functor(ws: Workspace, name: str, doc: dict, path: str) -> Functor:
    source = ws.lookup("category", doc["source"], f"{path}.source")
    target = ws.lookup("category", doc["target"], f"{path}.target")
    return Functor(name, source, target, dict(doc["objects"]), dict(doc["morphisms"]))


def _pointed_base(ws: Workspace, _name: str, doc: dict, path: str) -> PointedBase:
    return PointedBase(
        cat=_category(ws, doc, path),
        points={o: tuple(ps) for o, ps in doc["points"].items()},
        point_map={m: dict(pm) for m, pm in doc["point_map"].items()},
        residue_preserving={m: frozenset(ps) for m, ps in doc.get("residue_preserving", {}).items()},
        etale_marked=frozenset(doc.get("etale", [])),
    )


def _covering(ws: Workspace, _name: str, doc: dict, path: str) -> tuple[FinCat, CoveringAssignment]:
    families = {obj: frozenset(frozenset(fam) for fam in fams) for obj, fams in doc["families"].items()}
    return _category(ws, doc, path), CoveringAssignment(families)


def _presheaf(ws: Workspace, name: str, doc: dict, path: str) -> Presheaf:
    cat = _category(ws, doc, path)
    sections = {o: tuple(s) for o, s in doc["sections"].items()}
    return Presheaf(name, cat, sections, {m: dict(t) for m, t in doc["restrictions"].items()})


def _model(ws: Workspace, _name: str, doc: dict, path: str) -> ModelLabeledCat:
    labels = {label: frozenset(doc.get(label, [])) for label in ("weq", "cof", "fib")}
    return ModelLabeledCat(_category(ws, doc, path), **labels)


def _square(ws: Workspace, _name: str, doc: dict, path: str) -> tuple[FinCat, Square]:
    return _category(ws, doc, path), Square(doc["w_to_v"], doc["w_to_u"], doc["u_to_x"], doc["v_to_x"])


def _layered(ws: Workspace, name: str, doc: dict, path: str) -> LayeredCategory:
    levels = tuple(ws.lookup("category", c, f"{path}.levels") for c in doc["levels"])
    return LayeredCategory(name, levels, tuple(dict(m) for m in doc["membership"]))


def _ladder(ws: Workspace, _name: str, doc: dict, path: str) -> tuple[LayeredCategory, LadderMorphism]:
    return ws.lookup("layered", doc["layered"], f"{path}.layered"), LadderMorphism(tuple(doc["arrows"]))


# role -> (Workspace table, noun in diagnostics, decode(ws, name, doc, path)
# -> entry, the categories an entry lives on).  Rows are in decoding order: a
# document names only documents of rows above its own.  Partitions,
# zmorphisms, coverings and squares are kept as (category, value) pairs and
# ladders as (layered category, ladder) pairs, holding the very object of
# the table their document names.
DOCUMENTS = {
    "category": ("categories", "category", lambda ws, name, doc, path: cat_from_doc(name, doc), lambda c: (c,)),
    "functor": ("functors", "functor", _functor, lambda fun: (fun.source, fun.target)),
    "partition": (
        "partitions",
        "partition",
        lambda ws, name, doc, path: (_category(ws, doc, path), partition_from_blocks(doc["blocks"])),
        lambda entry: entry[:1],
    ),
    "zobject": ("zobjects", "zobject", _zobject, lambda obj: ()),
    "zmorphism": ("zmorphisms", "zmorphism", _zmorphism, lambda entry: entry[:1]),
    "pointed_base": ("pointed_bases", "pointed base", _pointed_base, lambda base: (base.cat,)),
    "covering": ("coverings", "covering", _covering, lambda entry: entry[:1]),
    "presheaf": ("presheaves", "presheaf", _presheaf, lambda F: (F.cat,)),
    "model": ("model_cats", "model category", _model, lambda model: (model.base,)),
    "table": (
        "fingerprints",
        "fingerprint table",
        lambda ws, name, doc, path: {obj: graded_dims(dims) for obj, dims in doc.items()},
        lambda table: (),
    ),
    "square": ("squares", "square", _square, lambda entry: entry[:1]),
    "layered": ("layered", "layered category", _layered, lambda layered: layered.levels),
    "ladder": ("ladders", "ladder", _ladder, lambda entry: entry[0].levels),
}


def _decode(raw: dict) -> Workspace:
    ws = Workspace()
    for table, _noun, decode, _cats in DOCUMENTS.values():
        entries = getattr(ws, table)
        for name, doc in raw.get(table, {}).items():
            entries[name] = decode(ws, name, doc, f"{table}.{name}")
    ws.checks = tuple(raw.get("checks", []))
    return ws


def load_workspace(path: str) -> Workspace:
    """Parse, schema-validate, decode, and cross-resolve one workspace file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise WorkspaceError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError:
        raise WorkspaceError(f"{path}: JSON nested too deeply to parse") from None

    validator = jsonschema.Draft202012Validator(inlined_schema())
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in first.absolute_path
        )
        raise WorkspaceError(f"{where}: {first.message}")
    return _decode(raw)
