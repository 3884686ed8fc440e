import copy
import json
import random

import jsonschema
import pytest

from conftest import FIXTURE_NAMES, drop, fixture_path, put
from zsite import schema as stdlib_schema
from zsite.cli import main
from zsite.jsonio import (
    DOCUMENTS,
    WorkspaceError,
    _schema,
    cat_from_doc,
    cat_to_doc,
    inlined_schema,
    load_workspace,
    pair_key,
    zmorphism_to_doc,
    zobject_to_doc,
)

LOADABLE = [n for n in FIXTURE_NAMES if n != "malformed.json"]


def raw_doc(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", LOADABLE)
def test_every_shipped_fixture_loads(name):
    load_workspace(fixture_path(name))


@pytest.mark.parametrize("name", LOADABLE)
def test_category_docs_round_trip(name):
    raw = raw_doc(name)
    ws = load_workspace(fixture_path(name))
    for cname, doc in raw.get("categories", {}).items():
        assert cat_to_doc(ws.categories[cname]) == doc, cname


@pytest.mark.parametrize("name", LOADABLE)
def test_zobject_docs_round_trip(name):
    raw = raw_doc(name)
    ws = load_workspace(fixture_path(name))
    for zname, doc in raw.get("zobjects", {}).items():
        assert zobject_to_doc(ws.zobjects[zname]) == doc, zname


@pytest.mark.parametrize("name", LOADABLE)
def test_zmorphism_docs_embed_their_endpoints(name):
    # fixture docs point at zobjects by name; the encoder inlines both
    # component lists so the payload stands alone
    raw = raw_doc(name)
    ws = load_workspace(fixture_path(name))
    for mname, doc in raw.get("zmorphisms", {}).items():
        cat, phi = ws.zmorphisms[mname]
        enc = zmorphism_to_doc(phi, category=cat.name, source=doc["source"], target=doc["target"])
        assert {k: v for k, v in enc.items() if k in doc} == doc, mname
        assert enc["source_components"] == raw["zobjects"][doc["source"]]["components"]
        assert enc["target_components"] == raw["zobjects"][doc["target"]]["components"]


# table of pair entries -> (the field of its documents that names what the
# entry lives on, the Workspace table that holds it)
PAIR_TABLES = {
    "partitions": ("category", "categories"),
    "zmorphisms": ("category", "categories"),
    "coverings": ("category", "categories"),
    "squares": ("category", "categories"),
    "ladders": ("layered", "layered"),
}


@pytest.mark.parametrize("name", LOADABLE)
def test_pair_entries_hold_the_very_object_their_document_names(name):
    raw = raw_doc(name)
    ws = load_workspace(fixture_path(name))
    pair_tables = {
        table for table, *_rest in DOCUMENTS.values() if any(isinstance(e, tuple) for e in getattr(ws, table).values())
    }
    assert pair_tables <= set(PAIR_TABLES)
    for table, (field, home) in PAIR_TABLES.items():
        for doc_name, doc in raw.get(table, {}).items():
            on, _value = getattr(ws, table)[doc_name]
            assert on is getattr(ws, home)[doc[field]], (table, doc_name)
    for layered_name, layered in ws.layered.items():
        assert layered.name == layered_name


def test_cat_to_doc_is_a_sorted_fixed_point():
    ws = load_workspace(fixture_path("poset2.json"))
    cat = ws.categories["poset2"]
    doc = cat_to_doc(cat)
    assert doc["objects"] == sorted(doc["objects"])
    assert list(doc["morphisms"]) == sorted(doc["morphisms"])
    assert cat_to_doc(cat_from_doc("poset2", doc)) == doc
    assert json.dumps(doc, sort_keys=True) == json.dumps(cat_to_doc(cat), sort_keys=True)


def test_malformed_fixture_reports_the_schema_path():
    with pytest.raises(WorkspaceError) as exc:
        load_workspace(fixture_path("malformed.json"))
    assert str(exc.value) == "$.categories.broken.morphisms.id_x: ['x'] is too short"


def test_pair_keys():
    assert pair_key("g", "f") == "g|f"
    with pytest.raises(WorkspaceError, match="not of the form"):
        cat_from_doc(
            "c",
            {
                "objects": ["x"],
                "morphisms": {"id_x": ["x", "x"]},
                "identities": {"x": "id_x"},
                "composition": {"gf": "id_x"},
            },
        )


MINIMAL_CAT = {"objects": [], "morphisms": {}, "identities": {}, "composition": {}}


def write_doc(tmp_path, doc):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_unknown_functor_source_names_the_path(tmp_path):
    doc = {"functors": {"swap": {"source": "nope", "target": "nope", "objects": {}, "morphisms": {}}}}
    with pytest.raises(WorkspaceError, match=r"functors\.swap\.source: unknown category 'nope'"):
        load_workspace(write_doc(tmp_path, doc))


def test_unknown_zobject_reference_names_the_path(tmp_path):
    doc = {
        "categories": {"c": MINIMAL_CAT},
        "zmorphisms": {"phi": {"category": "c", "source": "nope", "target": "nope", "terms": []}},
    }
    with pytest.raises(WorkspaceError, match=r"zmorphisms\.phi\.source: unknown zobject 'nope'"):
        load_workspace(write_doc(tmp_path, doc))


def test_unknown_top_level_section_is_rejected(tmp_path):
    with pytest.raises(WorkspaceError, match="nonsense"):
        load_workspace(write_doc(tmp_path, {"nonsense": {}}))


def test_ids_may_not_contain_the_bar(tmp_path):
    # pair-valued table keys are encoded "g|f", so the bar is reserved
    doc = {"categories": {"c": dict(MINIMAL_CAT, objects=["a|b"])}}
    with pytest.raises(WorkspaceError, match=r"objects\[0\]"):
        load_workspace(write_doc(tmp_path, doc))


def test_unparsable_json_reports_line_and_column(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(WorkspaceError, match=r":1:3"):
        load_workspace(str(path))


def test_missing_file_is_a_workspace_error():
    with pytest.raises(WorkspaceError):
        load_workspace("/nonexistent/ws.json")


def test_documents_list_every_section_of_the_schema_but_checks():
    tables = [table for table, _noun, _decode, _cats in DOCUMENTS.values()]
    assert tables == [section for section in _schema()["properties"] if section != "checks"]


# (fixture, table, document, reference field, noun of the table it names);
# a list field names a document with each item, of which the first dangles
REFERENCES = [
    ("modular.json", "functors", "swap", "source", "category"),
    ("modular.json", "functors", "swap", "target", "category"),
    ("modular.json", "partitions", "mab", "category", "category"),
    ("etale2.json", "zmorphisms", "psi1", "category", "category"),
    ("etale2.json", "zmorphisms", "psi1", "source", "zobject"),
    ("etale2.json", "zmorphisms", "psi1", "target", "zobject"),
    ("chain3.json", "pointed_bases", "base", "category", "category"),
    ("chain3.json", "coverings", "K", "category", "category"),
    ("chain3.json", "presheaves", "glues", "category", "category"),
    ("modular.json", "model_cats", "M2", "category", "category"),
    ("chain3.json", "squares", "sq", "category", "category"),
    ("layered2.json", "layered", "L", "levels", "category"),
    ("layered2.json", "ladders", "lad", "layered", "layered category"),
]


@pytest.mark.parametrize(
    "fixture,table,name,field,noun", REFERENCES, ids=[f"{t}.{f}" for _x, t, _n, f, _k in REFERENCES]
)
def test_a_dangling_reference_is_an_error_at_its_field(capsys, tmp_path, fixture, table, name, field, noun):
    doc = raw_doc(fixture)
    entry = doc[table][name]
    if isinstance(entry[field], list):
        entry[field][0] = "ghost"
    else:
        entry[field] = "ghost"
    assert main(["validate", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {table}.{name}.{field}: unknown {noun} 'ghost'\n"


def test_checks_come_back_as_plain_dicts():
    ws = load_workspace(fixture_path("fingerprint.json"))
    assert isinstance(ws.checks, tuple)
    assert {c["kind"] for c in ws.checks} == {"invariant", "z_equiv"}


# =====================================================================
# the inlined schema
# =====================================================================


def test_inlined_schema_has_no_references():
    text = json.dumps(inlined_schema())
    assert "$ref" not in text and "$defs" not in text


def _sites(node):
    """(container, key) of every dict entry and list item under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _sites(value)


def _mutate(doc, rng: random.Random) -> None:
    """One seeded edit: a dropped key, a wrong type, a bar, an empty string or an extra key."""
    sites = list(_sites(doc))
    if not sites:
        doc["zz_extra"] = 1
        return
    container, key = rng.choice(sites)
    edit = rng.choice(("drop", "type", "bar", "empty", "extra"))
    if edit == "drop":
        del container[key]
    elif edit == "type":
        container[key] = rng.choice((7, "x", [], {}, None, True))
    elif edit == "bar" and isinstance(container, dict):
        container[f"{key}|z"] = container.pop(key)
    elif edit == "bar":
        container[key] = f"{container[key]}|z"
    elif edit == "empty":
        container[key] = ""
    elif isinstance(container, dict):
        container["zz_extra"] = 1
    else:
        container.append({"zz_extra": 1})


def _errors(validator, doc):
    return sorted((json.dumps(list(e.absolute_path)), e.message) for e in validator.iter_errors(doc))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_inlined_schema_reports_what_the_referencing_one_does(name):
    with_refs = jsonschema.Draft202012Validator(_schema())
    inlined = jsonschema.Draft202012Validator(inlined_schema())
    rng = random.Random(name)
    invalid = 0
    for _ in range(40):
        doc = copy.deepcopy(raw_doc(name))
        for _edit in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        want = _errors(with_refs, doc)
        assert _errors(inlined, doc) == want
        invalid += bool(want)
    assert invalid >= 10


# =====================================================================
# the stdlib validator against jsonschema
# =====================================================================


def both(*edits):
    """One edit of a raw workspace made of ``edits`` in turn."""

    def edit(raw):
        for one in edits:
            one(raw)

    return edit


# (fixture, edit, keywords whose errors it must produce): together they
# reach every keyword the shipped schema uses
TARGETED = [
    ("zlin.json", put("checks", 0, "kind", value="no_such_kind"), {"enum"}),
    ("zlin.json", put("checks", 0, "kind", value=7), {"enum"}),
    ("zlin.json", put("checks", 0, "label", value=""), {"minLength"}),
    ("zlin.json", drop("checks", 0, "label"), {"required"}),
    ("fingerprint.json", put("fingerprints", "tab", "a", 0, value=0), set()),
    ("fingerprint.json", put("fingerprints", "tab", "a", 0, value=-1), {"minimum"}),
    ("fingerprint.json", put("fingerprints", "tab", "a", 0, value=-1.5), {"type", "minimum"}),
    ("zlin.json", put("zobjects", "src", "components", 0, 0, value=1.0), set()),
    ("zlin.json", put("zobjects", "src", "components", 0, 0, value=True), {"prefixItems", "type"}),
    ("zlin.json", put("zmorphisms", "phi", "terms", 0, 2, value=1.5), {"prefixItems", "type"}),
    ("zlin.json", put("zmorphisms", "phi", "terms", 0, value=[1, 1, 2]), {"minItems"}),
    ("zlin.json", put("zobjects", "mid", "components", 0, value=[1, "Y", 3, 4]), {"maxItems"}),
    ("zlin.json", put("zobjects", "mid", "components", 0, value=["Y", 1]), {"prefixItems", "minItems"}),
    ("chain3.json", put("categories", "chain3", "pullbacks", "B<T|B<T", value=["B", "id_B"]), {"minItems"}),
    ("chain3.json", put("categories", "chain3", "pullbacks", "B<T|B<T", value=["B", "id_B", "id_B", "B"]),
     {"maxItems"}),
    ("chain3.json", put("categories", "chain3", "pullbacks", "B<T|B<T", value=["B", "id|B", 7, ""]),
     {"items", "pattern", "type", "minLength", "maxItems"}),
    ("chain3.json", put("categories", "chain3", "composition", "A<B|id|A", value="A<B"), {"propertyNames"}),
    ("chain3.json", put("categories", "chain3", "composition", "A<Bid_A", value="A<B"), {"propertyNames"}),
    ("chain3.json", put("categories", "chain3", "morphisms", "id_A", value="A"), {"additionalProperties"}),
    ("chain3.json", put("categories", "chain3", "extra_b", value=1), {"additionalProperties"}),
    ("poset2.json", put("categories", "poset2", "objects", 0, value=""), {"minLength", "pattern"}),
    ("poset2.json", put("partitions", "ep", "zz_a", value=1), {"additionalProperties"}),
    ("zlin.json", both(put("zz_b", value=1), put("zz_a", value=2)), {"additionalProperties"}),
]


def _keywords(errors) -> set:
    """The schema keywords on the schema paths of jsonschema's errors."""
    return {k for e in errors for k in e.absolute_schema_path if k in stdlib_schema.KEYWORDS}


def _targeted_mutant(name, edit):
    doc = copy.deepcopy(raw_doc(name))
    edit(doc)
    return doc


def test_targeted_mutants_reach_every_keyword():
    oracle = jsonschema.Draft202012Validator(inlined_schema())
    fired = set()
    for name, edit, keywords in TARGETED:
        reached = _keywords(oracle.iter_errors(_targeted_mutant(name, edit)))
        assert keywords <= reached, (name, keywords - reached)
        fired |= reached
    assert fired == set(stdlib_schema.KEYWORDS)


def _mutants(name):
    rng = random.Random(name)
    for _ in range(40):
        doc = copy.deepcopy(raw_doc(name))
        for _edit in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        yield doc
    for fixture, edit, _keywords_reached in TARGETED:
        if fixture == name:
            yield _targeted_mutant(name, edit)


def _where(path) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_stdlib_validator_reports_what_jsonschema_does(name, tmp_path):
    oracle = jsonschema.Draft202012Validator(inlined_schema())
    ours = stdlib_schema.Draft202012Validator(inlined_schema())
    invalid = 0
    for doc in _mutants(name):
        want = _errors(oracle, doc)
        assert _errors(ours, doc) == want
        if not want:
            continue
        invalid += 1
        # load_workspace prints the first error after a stable sort by path,
        # so errors that share a path must come in jsonschema's order
        first = sorted(oracle.iter_errors(doc), key=lambda e: list(e.absolute_path))[0]
        with pytest.raises(WorkspaceError) as exc:
            load_workspace(write_doc(tmp_path, doc))
        assert str(exc.value) == f"{_where(first.absolute_path)}: {first.message}"
    assert invalid >= 10


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "format": "date"},
        {"properties": {"a": {"$ref": "#/$defs/a"}}},
        {"items": False},
    ],
)
def test_compiling_an_unsupported_keyword_raises(schema):
    with pytest.raises(stdlib_schema.SchemaError):
        stdlib_schema.compile_schema(schema)


def test_errors_share_a_path_in_schema_order():
    ours = stdlib_schema.Draft202012Validator({"type": "integer", "minimum": 0, "enum": [1, True]})
    assert [e.message for e in ours.iter_errors(-1.5)] == [
        "-1.5 is not of type 'integer'",
        "-1.5 is less than the minimum of 0",
        "-1.5 is not one of [1, True]",
    ]
    assert [e.message for e in ours.iter_errors(1.0)] == []
    assert [e.message for e in ours.iter_errors(False)] == [
        "False is not of type 'integer'",
        "False is not one of [1, True]",
    ]
