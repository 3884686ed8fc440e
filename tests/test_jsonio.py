import copy
import json
import random

import jsonschema
import pytest

from conftest import FIXTURE_NAMES, fixture_path
from zsite.jsonio import (
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
        enc = zmorphism_to_doc(phi, category=cat, source=doc["source"], target=doc["target"])
        assert {k: v for k, v in enc.items() if k in doc} == doc, mname
        assert enc["source_components"] == raw["zobjects"][doc["source"]]["components"]
        assert enc["target_components"] == raw["zobjects"][doc["target"]]["components"]


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
