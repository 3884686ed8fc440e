"""The record contract: constructors, equality, immutability, fresh defaults.

Every ``make`` below builds a new record from new but equal arguments, so two
calls give two distinct objects that a value record must call equal; a value
record's ``make(2)`` differs from ``make()`` in one field.
"""

import inspect

import pytest

from conftest import replace
from fuzz import thin
from zsite.blur import BlurrySite
from zsite.fincat import FinCat, Functor, FunctorReport, InputError, ObjEquiv
from zsite.fingerprint import GradedDims, ZInvariant
from zsite.jsonio import DOCUMENTS, Workspace
from zsite.modular import ModelLabeledCat, ParamFamily
from zsite.reports import Finding, Report
from zsite.sheaf import Presheaf, ZPresheaf
from zsite.site import CoveringAssignment, LadderMorphism, LayeredCategory, PointedBase, Square
from zsite.zlin import RefinementTable, ZMorphism, ZObject, ZTerm, z_morphism


def _cat():
    return thin("p", ["a", "b"], [("a", "b")])


def _zobject():
    return ZObject(((1, "a", 2), (2, "b", -1)))


def _blurry_site():
    return BlurrySite(_cat(), CoveringAssignment(), ObjEquiv(()), _cat(), Report("q"), CoveringAssignment())


VALUE_RECORDS = {
    Finding: lambda n=1: Finding("law", "rule", ("a", "b"), f"detail {n}"),
    Report: lambda n=1: Report("subject", (Finding("law", "rule", ("a",), f"detail {n}"),)),
    FunctorReport: lambda n=1: FunctorReport(True, n == 1, True, Report("F")),
    ZObject: lambda n=1: ZObject(((n, "a", 2), (n + 1, "b", -1))),
    ZTerm: lambda n=1: ZTerm(n, 2, -3, "a<b"),
    RefinementTable: lambda n=1: RefinementTable((2, n), (2 + n,), {(1, 1): 2, (2, 1): n}),
    Square: lambda n=1: Square("w<v", "w<u", "u<x", f"v<x{n}"),
    LadderMorphism: lambda n=1: LadderMorphism(("f", f"g{n}")),
    GradedDims: lambda n=1: GradedDims((n, 0, 2)),
    ZInvariant: lambda n=1: ZInvariant(((1, 2, GradedDims((1, n))),)),
}

IDENTITY_RECORDS = {
    FinCat: _cat,
    Functor: lambda: Functor("F", _cat(), _cat(), {"a": "a"}, {}),
    ObjEquiv: lambda: ObjEquiv((frozenset({"a"}), frozenset({"b"}))),
    CoveringAssignment: lambda: CoveringAssignment({"b": frozenset({frozenset({"a<b"})})}),
    PointedBase: lambda: PointedBase(_cat(), {"a": ("p",)}, {"a<b": {"p": "q"}}),
    LayeredCategory: lambda: LayeredCategory("L", (_cat(),), ()),
    Presheaf: lambda: Presheaf("F", _cat(), {"a": ("s",)}, {}),
    ZPresheaf: lambda: ZPresheaf("Z", _cat(), tuple, min),
    BlurrySite: _blurry_site,
    ModelLabeledCat: lambda: ModelLabeledCat(_cat(), weq=frozenset({"a<b"})),
    ParamFamily: lambda: ParamFamily(_cat(), ModelLabeledCat(_cat()), ()),
}

FROZEN = {**VALUE_RECORDS, **IDENTITY_RECORDS, ZMorphism: lambda: z_morphism(_zobject(), _zobject(), [])}
del FROZEN[ZTerm]  # left unfrozen for build speed

# (class, field) whose default is a container each instance must own
DEFAULT_CONTAINERS = [
    (lambda: FinCat("c", (), {}, {}, {}), "pullbacks"),
    (lambda: FinCat("c", (), {}, {}, {}), "products"),
    (lambda: RefinementTable((1,), (1,)), "entries"),
    (CoveringAssignment, "families"),
    (lambda: PointedBase(_cat(), {}, {}), "residue_preserving"),
    *((Workspace, table) for table, _noun, _decode, _cats in DOCUMENTS.values()),
]


@pytest.mark.parametrize("make", VALUE_RECORDS.values(), ids=[c.__name__ for c in VALUE_RECORDS])
def test_value_records_compare_by_their_fields(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert make(2) != a and a != make(2)
    assert a != "not a record"


HASHABLE = {c: m for c, m in VALUE_RECORDS.items() if c is not RefinementTable}


@pytest.mark.parametrize("make", HASHABLE.values(), ids=[c.__name__ for c in HASHABLE])
def test_equal_value_records_hash_alike(make):
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_a_refinement_table_holds_a_dict_so_it_has_no_hash():
    with pytest.raises(TypeError):
        hash(VALUE_RECORDS[RefinementTable]())


@pytest.mark.parametrize("make", IDENTITY_RECORDS.values(), ids=[c.__name__ for c in IDENTITY_RECORDS])
def test_identity_records_equal_only_themselves(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_z_morphisms_compare_by_endpoints_and_normal_form():
    a = z_morphism(_zobject(), _zobject(), [(1, 1, 2, "a"), (2, 2, -1, "b")])
    b = z_morphism(_zobject(), _zobject(), [(2, 2, -1, "b"), (1, 1, 1, "a"), (1, 1, 1, "a")])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != z_morphism(_zobject(), _zobject(), [(1, 1, 2, "a")])


@pytest.mark.parametrize("make", FROZEN.values(), ids=[c.__name__ for c in FROZEN])
def test_frozen_records_refuse_assignment(make):
    record = make()
    field = next(iter(inspect.signature(type(record)).parameters))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_terms_are_slotted():
    term = ZTerm(1, 2, 3, "f")
    assert not hasattr(term, "__dict__")
    with pytest.raises(AttributeError):
        term.extra = 1


@pytest.mark.parametrize(
    "make,field", DEFAULT_CONTAINERS, ids=[f"{type(make()).__name__}.{field}" for make, field in DEFAULT_CONTAINERS]
)
def test_default_containers_are_not_shared(make, field):
    a, b = make(), make()
    assert getattr(a, field) == {} and getattr(a, field) is not getattr(b, field)


def test_constructors_take_fields_by_position_and_keyword():
    assert Finding("law", "r", ("w",), "d") == Finding(kind="law", rule="r", witnesses=("w",), detail="d")
    assert Report("s") == Report(subject="s", findings=())
    cat = FinCat("c", ("a",), {"1a": ("a", "a")}, {"a": "1a"}, {("1a", "1a"): "1a"}, {}, {})
    assert (cat.name, cat.objects, cat.pullbacks, cat.products) == ("c", ("a",), {}, {})
    assert ModelLabeledCat(cat).cof == frozenset()
    assert PointedBase(cat, {}, {}).etale_marked == frozenset()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ZObject(((1, "a", 0),)), r"^component 1 of \[a\] has zero coefficient$"),
        (lambda: ZObject(((2, "b", -1), (2, "a", 2))), r"^duplicate component index 2$"),
        (lambda: GradedDims((1, -1, 1)), r"^negative dimension in \(1, -1, 1\)$"),
        (lambda: GradedDims((1, 0)), r"^unnormalized dims \(1, 0\); use graded_dims\(\)$"),
    ],
)
def test_construction_checks_raise_input_errors(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_cached_lookups_work_on_frozen_records_and_replace_drops_them():
    cat = _cat()
    assert cat.hom("a", "b") == ("a<b",)
    assert "_homs" in vars(cat)
    reversed_cat = replace(cat, morphisms={m: (t, s) for m, (s, t) in cat.morphisms.items()})
    assert reversed_cat.hom("a", "b") == () and reversed_cat.hom("b", "a") == ("a<b",)
    rel = ObjEquiv((frozenset({"a", "b"}),))
    assert rel.same("a", "b") and vars(rel)["labels"] == {"a": "[a+b]", "b": "[a+b]"}


def test_records_repr_like_their_constructor_calls():
    assert repr(Finding("law", "r", ("w",), "d")) == "Finding(kind='law', rule='r', witnesses=('w',), detail='d')"
    assert repr(ZTerm(1, 2, 3, "f")) == "ZTerm(row=1, col=2, coefficient=3, arrow='f')"
