"""Workspace documents: JSON in, domain values out, reports back to JSON.

One file holds named documents of every kind plus a list of check specs.
Pair-valued table keys (composition, pullbacks, products) are encoded as
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
from dataclasses import dataclass, field
from importlib import resources

from . import schema as jsonschema  # the name clibench's tracer wraps to time validation
from .fincat import FinCat, Functor, ObjEquiv, partition_from_blocks
from .modular import ModelLabeledCat
from .sheaf import Presheaf
from .site import CoveringAssignment, LadderMorphism, LayeredCategory, PointedBase, Square
from .fingerprint import GradedDims, graded_dims
from .zlin import ZMorphism, ZObject, z_morphism, z_object


class WorkspaceError(Exception):
    """Schema violation or unresolved cross-reference, with a JSON path."""


def _schema() -> dict:
    text = resources.files("zsite").joinpath("schemas/workspace.schema.json").read_text()
    return json.loads(text)


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


@dataclass
class Workspace:
    categories: dict[str, FinCat] = field(default_factory=dict)
    functors: dict[str, Functor] = field(default_factory=dict)
    partitions: dict[str, tuple[str, ObjEquiv]] = field(default_factory=dict)
    zobjects: dict[str, ZObject] = field(default_factory=dict)
    zmorphisms: dict[str, tuple[str, ZMorphism]] = field(default_factory=dict)
    pointed_bases: dict[str, PointedBase] = field(default_factory=dict)
    coverings: dict[str, tuple[str, CoveringAssignment]] = field(default_factory=dict)
    presheaves: dict[str, Presheaf] = field(default_factory=dict)
    model_cats: dict[str, ModelLabeledCat] = field(default_factory=dict)
    fingerprints: dict[str, dict[str, GradedDims]] = field(default_factory=dict)
    squares: dict[str, tuple[str, Square]] = field(default_factory=dict)
    layered: dict[str, LayeredCategory] = field(default_factory=dict)
    ladders: dict[str, tuple[str, LadderMorphism]] = field(default_factory=dict)
    checks: tuple[dict, ...] = ()

    def category(self, name: str, path: str) -> FinCat:
        return self.lookup(self.categories, name, path, "category")

    def lookup(self, table: dict, name, path: str, kind: str):
        if not isinstance(name, str) or name not in table:
            raise WorkspaceError(f"{path}: unknown {kind} {name!r}")
        return table[name]


def _decode(raw: dict) -> Workspace:
    ws = Workspace()
    for name, doc in raw.get("categories", {}).items():
        ws.categories[name] = cat_from_doc(name, doc)

    for name, doc in raw.get("functors", {}).items():
        path = f"functors.{name}"
        ws.functors[name] = Functor(
            name=name,
            source=ws.category(doc["source"], f"{path}.source"),
            target=ws.category(doc["target"], f"{path}.target"),
            object_map=dict(doc["objects"]),
            morphism_map=dict(doc["morphisms"]),
        )

    for name, doc in raw.get("partitions", {}).items():
        path = f"partitions.{name}"
        ws.category(doc["category"], f"{path}.category")
        ws.partitions[name] = (doc["category"], partition_from_blocks(doc["blocks"]))

    for name, doc in raw.get("zobjects", {}).items():
        ws.zobjects[name] = z_object(tuple(tuple(c) for c in doc["components"]))

    for name, doc in raw.get("zmorphisms", {}).items():
        path = f"zmorphisms.{name}"
        ws.category(doc["category"], f"{path}.category")
        src = ws.lookup(ws.zobjects, doc["source"], f"{path}.source", "zobject")
        tgt = ws.lookup(ws.zobjects, doc["target"], f"{path}.target", "zobject")
        terms = [(r, c, v, a) for r, c, v, a in doc["terms"]]
        ws.zmorphisms[name] = (doc["category"], z_morphism(src, tgt, terms))

    for name, doc in raw.get("pointed_bases", {}).items():
        path = f"pointed_bases.{name}"
        ws.pointed_bases[name] = PointedBase(
            cat=ws.category(doc["category"], f"{path}.category"),
            points={o: tuple(ps) for o, ps in doc["points"].items()},
            point_map={m: dict(pm) for m, pm in doc["point_map"].items()},
            residue_preserving={
                m: frozenset(ps) for m, ps in doc.get("residue_preserving", {}).items()
            },
            etale_marked=frozenset(doc.get("etale", [])),
        )

    for name, doc in raw.get("coverings", {}).items():
        path = f"coverings.{name}"
        ws.category(doc["category"], f"{path}.category")
        ws.coverings[name] = (
            doc["category"],
            CoveringAssignment(
                families={
                    obj: frozenset(frozenset(fam) for fam in fams)
                    for obj, fams in doc["families"].items()
                }
            ),
        )

    for name, doc in raw.get("presheaves", {}).items():
        path = f"presheaves.{name}"
        ws.presheaves[name] = Presheaf(
            name=name,
            cat=ws.category(doc["category"], f"{path}.category"),
            sections={o: tuple(s) for o, s in doc["sections"].items()},
            restriction={m: dict(t) for m, t in doc["restrictions"].items()},
        )

    for name, doc in raw.get("model_cats", {}).items():
        path = f"model_cats.{name}"
        ws.model_cats[name] = ModelLabeledCat(
            base=ws.category(doc["category"], f"{path}.category"),
            weq=frozenset(doc.get("weq", [])),
            cof=frozenset(doc.get("cof", [])),
            fib=frozenset(doc.get("fib", [])),
        )

    for name, doc in raw.get("fingerprints", {}).items():
        ws.fingerprints[name] = {obj: graded_dims(dims) for obj, dims in doc.items()}

    for name, doc in raw.get("squares", {}).items():
        path = f"squares.{name}"
        ws.category(doc["category"], f"{path}.category")
        ws.squares[name] = (
            doc["category"],
            Square(
                w_to_v=doc["w_to_v"],
                w_to_u=doc["w_to_u"],
                u_to_x=doc["u_to_x"],
                v_to_x=doc["v_to_x"],
            ),
        )

    for name, doc in raw.get("layered", {}).items():
        path = f"layered.{name}"
        levels = tuple(ws.category(c, f"{path}.levels") for c in doc["levels"])
        ws.layered[name] = LayeredCategory(
            levels=levels, membership=tuple(dict(m) for m in doc["membership"])
        )

    for name, doc in raw.get("ladders", {}).items():
        path = f"ladders.{name}"
        ws.lookup(ws.layered, doc["layered"], f"{path}.layered", "layered category")
        ws.ladders[name] = (doc["layered"], LadderMorphism(arrows=tuple(doc["arrows"])))

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

    validator = jsonschema.Draft202012Validator(inlined_schema())
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in first.absolute_path
        )
        raise WorkspaceError(f"{where}: {first.message}")
    return _decode(raw)
