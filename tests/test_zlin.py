import random

import pytest

from conftest import assert_rule_fires, fixture_path, put, replace
from fuzz import atom_coupling, cyclic_groupoid, layered_base, narrow_zobj, rand_chain, wide_zobj
from oracles import compose_by_atoms, overlap_by_atoms
from zsite.fincat import FinCat, InputError, poset_category
from zsite.jsonio import load_workspace
from zsite.zlin import (
    MarginalMismatch,
    RefinementTable,
    SignIncoherent,
    enumerate_correspondences,
    enumerate_hom,
    interval_refinement,
    sign_coherent,
    slice_correspondence,
    z_compose,
    z_identity,
    z_morphism,
    z_object,
    z_scalar_embed,
    z_validate,
)


@pytest.fixture(scope="module")
def zbase():
    ws = load_workspace(fixture_path("zlin.json"))
    return ws.categories["zbase"]


@pytest.fixture(scope="module")
def split_pair(zbase):
    ws = load_workspace(fixture_path("zlin.json"))
    return ws.zmorphisms["phi"][1], ws.zmorphisms["psi"][1]


def parallel_pair():
    return FinCat(
        name="pp",
        objects=frozenset({"a", "b"}),
        morphisms={"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b"), "v": ("a", "b")},
        identities={"a": "id_a", "b": "id_b"},
        composition={
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
            ("u", "id_a"): "u", ("id_b", "u"): "u",
            ("v", "id_a"): "v", ("id_b", "v"): "v",
        },
    )


class TestComposition:
    def test_diagonal_split_composite(self, zbase, split_pair):
        phi, psi = split_pair
        composite = z_compose(zbase, psi, phi)
        assert composite.normal_form() == (
            (1, 1, "g1f1", 2),
            (2, 2, "g2f2", 1),
        )
        assert composite.source == phi.source
        assert composite.target == psi.target

    def test_crossed_split_composite(self, zbase, split_pair):
        # the inner layout (1, 2) straddles the outer layout (2, 1), so the
        # second row splits across both columns
        phi, psi = split_pair
        crossed = z_morphism(
            phi.source, phi.target, [(1, 1, 1, "f1"), (2, 1, 2, "f2")]
        )
        composite = z_compose(zbase, psi, crossed)
        assert composite.normal_form() == (
            (1, 1, "g1f1", 1),
            (2, 1, "g1f2", 1),
            (2, 2, "g2f2", 1),
        )

    def test_composite_is_strict_and_sign_coherent(self, zbase, split_pair):
        phi, psi = split_pair
        composite = z_compose(zbase, psi, phi)
        assert z_validate(zbase, composite).ok
        assert sign_coherent(composite)

    def test_middle_mismatch_is_input_error(self, zbase, split_pair):
        phi, psi = split_pair
        shifted = z_morphism(
            z_object([(1, "Y", 2)]), psi.target, [(1, 1, 2, "g1")]
        )
        with pytest.raises(InputError):
            z_compose(zbase, shifted, phi)

    def test_units_two_sided(self, zbase, split_pair):
        phi, _psi = split_pair
        assert z_compose(zbase, z_identity(zbase, phi.target), phi) == phi
        assert z_compose(zbase, phi, z_identity(zbase, phi.source)) == phi

    def test_units_with_negative_mass(self, zbase):
        neg = z_morphism(
            z_object([(1, "X1", -2), (2, "X2", -1)]),
            z_object([(1, "Y", -3)]),
            [(1, 1, -2, "f1"), (2, 1, -1, "f2")],
        )
        assert z_validate(zbase, neg).ok
        assert z_compose(zbase, z_identity(zbase, neg.target), neg) == neg
        assert z_compose(zbase, neg, z_identity(zbase, neg.source)) == neg

    def test_scalar_embedding_is_multiplicative(self, zbase):
        for coeff in (3, -2):
            f = z_scalar_embed(zbase, "f1", coeff)
            g = z_scalar_embed(zbase, "g1", coeff)
            assert z_compose(zbase, g, f) == z_scalar_embed(zbase, "g1f1", coeff)


class TestMixedSignMiddles:
    """A middle component split with both signs on both sides has no
    canonical refinement; composition demands an explicit table there."""

    def setup_method(self):
        self.base = poset_category(
            "mx", ["a1", "a2", "b", "c1", "c2"],
            [("a1", "b"), ("a2", "b"), ("b", "c1"), ("b", "c2")],
        )
        self.inner = z_morphism(
            z_object([(1, "a1", 2), (2, "a2", -1)]),
            z_object([(1, "b", 1)]),
            [(1, 1, 2, "a1<b"), (2, 1, -1, "a2<b")],
        )
        self.outer = z_morphism(
            z_object([(1, "b", 1)]),
            z_object([(1, "c1", 3), (2, "c2", -2)]),
            [(1, 1, 3, "b<c1"), (1, 2, -2, "b<c2")],
        )

    def test_refuses_without_explicit_table(self):
        with pytest.raises(SignIncoherent):
            z_compose(self.base, self.outer, self.inner)

    def test_explicit_table_resolves_the_middle(self):
        table = RefinementTable(
            rows=(2, -1), cols=(3, -2),
            entries={(1, 1): 3, (1, 2): -1, (2, 2): -1},
        )
        composite = z_compose(self.base, self.outer, self.inner, explicit={1: table})
        assert composite.normal_form() == (
            (1, 1, "a1<c1", 3),
            (1, 2, "a1<c2", -1),
            (2, 2, "a2<c2", -1),
        )
        assert z_validate(self.base, composite).ok

    def test_explicit_table_lays_out_each_column_by_inner_term(self):
        # the entries list column 2's rows out of order; the composite's
        # target-side layout still runs inner term by inner term
        table = RefinementTable(
            rows=(2, -1), cols=(3, -2),
            entries={(2, 2): -1, (1, 1): 3, (1, 2): -1},
        )
        composite = z_compose(self.base, self.outer, self.inner, explicit={1: table})
        layout = [[(t.row, t.col, t.coefficient, t.arrow) for t in composite.terms_into(c)] for c in (1, 2)]
        assert layout == [
            [(1, 1, 3, "a1<c1")],
            [(1, 2, -1, "a1<c2"), (2, 2, -1, "a2<c2")],
        ]
        assert [t.arrow for t in composite.terms_out_of(1)] == ["a1<c1", "a1<c2"]

    def test_explicit_table_must_reproduce_marginals(self):
        table = RefinementTable(
            rows=(2, -1), cols=(3, -2),
            entries={(1, 1): 2, (2, 2): -1},
        )
        with pytest.raises(MarginalMismatch):
            z_compose(self.base, self.outer, self.inner, explicit={1: table})

    @pytest.mark.parametrize(
        "entries",
        [
            # position 0 would alias the last row and column
            {(1, 1): 3, (1, 0): -1, (0, 0): -1},
            # position len + 1 lies past the last row
            {(1, 1): 3, (1, 2): -1, (3, 2): -1},
        ],
        ids=["zero", "past-the-end"],
    )
    def test_explicit_table_positions_are_range_checked(self, entries):
        table = RefinementTable(rows=(2, -1), cols=(3, -2), entries=entries)
        with pytest.raises(MarginalMismatch, match="lies outside"):
            z_compose(self.base, self.outer, self.inner, explicit={1: table})

    def test_explicit_entries_compose_in_the_order_listed(self):
        # two entries lack a composite; the one listed first is raised,
        # though the composite lays its cells out by row then column
        holed = replace(
            self.base,
            composition={
                k: v for k, v in self.base.composition.items() if k not in {("b<c1", "a1<b"), ("b<c2", "a2<b")}
            },
        )
        table = RefinementTable(rows=(2, -1), cols=(3, -2), entries={(2, 2): -1, (1, 1): 3, (1, 2): -1})
        with pytest.raises(InputError, match=r"^mx: no composite for \(b<c2 after a2<b\)$"):
            z_compose(holed, self.outer, self.inner, explicit={1: table})

    def test_singleton_side_is_forced_without_a_table(self):
        # only the inner side mixes signs; the outer layout is a single
        # term, so the unique marginal-correct table applies
        outer = z_morphism(
            z_object([(1, "b", 1)]),
            z_object([(1, "c1", 1)]),
            [(1, 1, 1, "b<c1")],
        )
        composite = z_compose(self.base, outer, self.inner)
        assert composite.normal_form() == (
            (1, 1, "a1<c1", 2),
            (2, 1, "a2<c1", -1),
        )


class TestIntervalRefinement:
    def test_pinned_overlaps(self):
        assert interval_refinement((2, 1), (1, 2)).entries == {
            (1, 1): 1, (1, 2): 1, (2, 2): 1,
        }
        assert interval_refinement((3,), (1, 1, 1)).entries == {
            (1, 1): 1, (1, 2): 1, (1, 3): 1,
        }
        assert interval_refinement((-2, -2), (-1, -3)).entries == {
            (1, 1): -1, (1, 2): -1, (2, 2): -2,
        }

    def test_matches_atom_pairing_oracle(self):
        rng = random.Random(20260816)
        for _ in range(300):
            sgn = rng.choice((1, -1))
            total = rng.randint(1, 12)
            rows = _rand_split(rng, total, sgn)
            cols = _rand_split(rng, total, sgn)
            table = interval_refinement(rows, cols)
            assert table.entries == overlap_by_atoms(rows, cols), (rows, cols)
            assert table.row_sums() == rows
            assert table.col_sums() == cols

    def test_marginal_mismatch_raises(self):
        with pytest.raises(MarginalMismatch):
            interval_refinement((2, 1), (2, 2))

    def test_mixed_signs_raise(self):
        with pytest.raises(SignIncoherent):
            interval_refinement((2, -1), (1,))

    def test_zero_total_must_be_empty(self):
        assert interval_refinement((), ()).entries == {}
        with pytest.raises(SignIncoherent):
            interval_refinement((1, -1), (1, -1))


def _rand_split(rng, total, sgn):
    parts = []
    left = total
    while left:
        take = rng.randint(1, left)
        parts.append(sgn * take)
        left -= take
    return tuple(parts)


def _phi_findings(ws):
    return z_validate(ws.categories["zbase"], ws.zmorphisms["phi"][1]).findings


PHI_TERM = ("zmorphisms", "phi", "terms", 0)

# one mutation of zlin.json per z_validate rule: (edits, the finding on phi);
# phi's first term is [1, 1, 2, "f1"] from X1 (row 1) to Y (column 1)
Z_VALIDATE_RULES = [
    pytest.param(
        [put(*PHI_TERM, value=[3, 1, 2, "f1"])],
        ("structural", "term_row_known", ("3", "1", "f1")), id="term_row_known",
    ),
    pytest.param(
        [put(*PHI_TERM, value=[1, 3, 2, "f1"])],
        ("structural", "term_col_known", ("1", "3", "f1")), id="term_col_known",
    ),
    pytest.param(
        [put(*PHI_TERM, value=[1, 1, 2, "ghost"])],
        ("structural", "term_arrow_known", ("1", "1", "ghost")), id="term_arrow_known",
    ),
    pytest.param(
        [put(*PHI_TERM, value=[1, 1, 2, "f2"])],
        ("structural", "term_arrow_endpoints", ("1", "1", "f2")), id="term_arrow_endpoints",
    ),
    pytest.param(
        [put(*PHI_TERM, value=[1, 1, 1, "f1"]), put("zobjects", "mid", "components", value=[[1, "Y", 2]])],
        ("law", "row_marginal", ("1",)), id="row_marginal",
    ),
    pytest.param(
        [put("zobjects", "mid", "components", value=[[1, "Y", 4]])],
        ("law", "column_marginal", ("1",)), id="column_marginal",
    ),
]


class TestValidation:
    def test_row_marginal_failure_is_law(self, zbase, split_pair):
        phi, _psi = split_pair
        short = z_morphism(phi.source, phi.target, [(1, 1, 1, "f1"), (2, 1, 1, "f2")])
        report = z_validate(zbase, short)
        rules = {f.rule for f in report.failures()}
        assert "row_marginal" in rules and "column_marginal" in rules

    def test_unknown_arrow_is_structural(self, zbase, split_pair):
        phi, _psi = split_pair
        bogus = z_morphism(phi.source, phi.target, [(1, 1, 2, "nope"), (2, 1, 1, "f2")])
        report = z_validate(zbase, bogus)
        assert any(f.rule == "term_arrow_known" and f.kind == "structural" for f in report.findings)

    @pytest.mark.parametrize("edits,finding", Z_VALIDATE_RULES)
    def test_each_rule_fires_on_a_mutated_fixture(self, tmp_path, edits, finding):
        assert_rule_fires(tmp_path, "zlin.json", edits, _phi_findings, finding)

    def test_misrouted_arrow_is_structural(self, zbase, split_pair):
        phi, _psi = split_pair
        # f2 runs X2 -> Y but sits in the X1 row
        wrong = z_morphism(phi.source, phi.target, [(1, 1, 2, "f2"), (2, 1, 1, "f2")])
        report = z_validate(zbase, wrong)
        assert any(f.rule == "term_arrow_endpoints" for f in report.findings)


class TestEnumeration:
    def test_hom_counts_on_a_parallel_pair(self):
        pp = parallel_pair()
        one = z_object([(1, "a", 1)])
        two = z_object([(1, "a", 2)])
        assert len(enumerate_hom(pp, one, z_object([(1, "b", 1)]))) == 2
        assert len(enumerate_hom(pp, two, z_object([(1, "b", 2)]))) == 3
        assert enumerate_hom(pp, one, z_object([(1, "b", 2)])) == ()

    def test_enumerated_homs_are_strict_and_coherent(self):
        pp = parallel_pair()
        src = z_object([(1, "a", 2), (2, "a", 1)])
        tgt = z_object([(1, "b", 1), (2, "b", 2)])
        homs = enumerate_hom(pp, src, tgt)
        assert homs
        for phi in homs:
            assert z_validate(pp, phi).ok
            assert sign_coherent(phi)
        assert len(set(homs)) == len(homs)

    def test_correspondences_drop_the_column_constraint(self):
        pp = parallel_pair()
        src = z_object([(1, "a", 1)])
        tgt = z_object([(1, "b", 1), (2, "b", 2)])
        # strict homs from mass 1 to mass 3 do not exist, tables do
        assert enumerate_hom(pp, src, tgt) == ()
        tables = enumerate_correspondences(pp, src, tgt)
        assert len(tables) == 4  # one unit of mass over four (col, arrow) slots

    def test_hom_is_the_strict_coherent_part_of_the_tables(self):
        # enumerate_hom is enumerate_correspondences filtered by the column
        # marginal and sign coherence, on mixed-sign sums of a parallel pair
        rng = random.Random(523)
        pp = parallel_pair()
        coefficients = [c for c in range(-3, 4) if c != 0]

        def rand_sum():
            return z_object(
                [(i, rng.choice("ab"), rng.choice(coefficients)) for i in range(1, rng.randint(0, 2) + 1)]
            )

        nonempty = 0
        for _ in range(300):
            src, tgt = rand_sum(), rand_sum()
            homs = enumerate_hom(pp, src, tgt)
            nonempty += bool(homs)
            assert homs == tuple(
                m
                for m in enumerate_correspondences(pp, src, tgt)
                if z_validate(pp, m).ok and sign_coherent(m)
            )
        assert nonempty >= 20


class TestCorrespondences:
    def test_restriction_along_identity_is_identity(self, zbase):
        src = z_object([(1, "Y", 2), (2, "Y", 1)])
        tgt = z_object([(1, "Z1", 5)])
        table = z_morphism(src, tgt, [(1, 1, 2, "g1"), (2, 1, 1, "g1")])
        back = z_compose(zbase, table, z_identity(zbase, src))
        assert back == table

    def test_restriction_along_a_split(self, zbase, split_pair):
        phi, _psi = split_pair
        table = z_morphism(
            phi.target, z_object([(1, "Z1", 7)]), [(1, 1, 3, "g1")]
        )
        pulled = z_compose(zbase, table, phi)
        # phi's layout (2, 1) refines the single row of mass 3
        assert pulled.normal_form() == (
            (1, 1, "g1f1", 2),
            (2, 1, "g1f2", 1),
        )
        assert pulled.source == phi.source

    def test_slice_keeps_one_source_component(self, zbase):
        src = z_object([(1, "Y", 2), (2, "Y", 1)])
        table = z_morphism(
            src, z_object([(1, "Z1", 9)]), [(1, 1, 2, "g1"), (2, 1, 1, "g1")]
        )
        piece = slice_correspondence(table, 2)
        assert piece.source == z_object([(2, "Y", 1)])
        assert piece.normal_form() == ((2, 1, "g1", 1),)

        # a composite's slice keeps that row's source-side layout, and each
        # column's target-side layout is the row's terms into it, in order
        rng = random.Random(4)
        base, levels = layered_base([2, 2, 2])
        for _ in range(50):
            f, g = rand_chain(rng, base, levels, length=2)
            composite = z_compose(base, g, f)
            for idx in composite.source.indices():
                piece = slice_correspondence(composite, idx)
                row = composite.terms_out_of(idx)
                assert piece.terms_out_of(idx) == row
                for c in composite.target.indices():
                    assert piece.terms_into(c) == tuple(t for t in row if t.col == c)

    def test_column_free_table_is_a_z_morphism(self):
        pp = parallel_pair()
        src = z_object([(1, "a", 2)])
        tgt = z_object([(1, "b", 1), (2, "b", -1)])
        for table in enumerate_correspondences(pp, src, tgt):
            assert not z_validate(pp, table).ok  # no column marginal holds
            built = z_morphism(src, tgt, [(r, c, v, a) for r, c, a, v in table.normal_form()])
            assert built == table
            assert hash(built) == hash(table)

    def test_restriction_along_the_wrong_target_is_input_error(self, zbase, split_pair):
        phi, _psi = split_pair
        table = z_morphism(
            z_object([(1, "Y", 2), (2, "Y", 1)]),
            z_object([(1, "Z1", 7)]),
            [(1, 1, 2, "g1"), (2, 1, 1, "g1")],
        )
        assert phi.target != table.source
        with pytest.raises(InputError):
            z_compose(zbase, table, phi)


class TestRandomChains:
    """Seeded sign-coherent chains; composition must be total, associative,
    marginal-preserving, and closed under sign coherence."""

    def test_associativity_and_closure(self):
        rng = random.Random(97)
        base, levels = layered_base([2, 2, 1, 1])
        for _ in range(200):
            f, g, h = rand_chain(rng, base, levels, length=3)
            left = z_compose(base, h, z_compose(base, g, f))
            right = z_compose(base, z_compose(base, h, g), f)
            assert left == right
            assert z_validate(base, left).ok
            assert sign_coherent(left)

    def test_mass_is_conserved_along_chains(self):
        rng = random.Random(98)
        base, levels = layered_base([2, 2, 2])
        for _ in range(100):
            f, g = rand_chain(rng, base, levels, length=2)
            composite = z_compose(base, g, f)
            assert composite.source.total_mass() == composite.target.total_mass()
            assert f.source.total_mass() == g.target.total_mass()


class TestCoupler:
    """The per-middle pairing of ``z_compose`` against atom-pairing oracles,
    and the errors it raises on middles it cannot pair."""

    line = poset_category("line", ["s", "m", "t"], [("s", "m"), ("m", "t")])

    def _block_pair(self, blocks):
        """Factors through middles 1..k with no shared rows or columns.

        ``blocks`` holds one (rows, cols) pair of splittings per middle; each
        splitting gets components of its own, so the composite's cell (row,
        col) is entry (a, b) of that middle's table.
        """
        src, mid, tgt, inner, outer = [], [], [], [], []
        for m, (rows, cols) in enumerate(blocks, start=1):
            mid.append((m, "m", sum(rows)))
            for v in rows:
                src.append((len(src) + 1, "s", v))
                inner.append((len(src), m, v, "s<m"))
            for v in cols:
                tgt.append((len(tgt) + 1, "t", v))
                outer.append((m, len(tgt), v, "m<t"))
        middle = z_object(mid)
        return (
            z_morphism(middle, z_object(tgt), outer),
            z_morphism(z_object(src), middle, inner),
        )

    def test_computed_tables_are_atom_overlaps(self):
        rng = random.Random(20261019)
        for _ in range(200):
            blocks = []
            for _m in range(rng.randint(1, 4)):
                sgn, total = rng.choice((1, -1)), rng.randint(1, 12)
                blocks.append((_rand_split(rng, total, sgn), _rand_split(rng, total, sgn)))
            outer, inner = self._block_pair(blocks)
            composite = z_compose(self.line, outer, inner)
            row0 = col0 = 0
            want = []
            for rows, cols in blocks:
                table = overlap_by_atoms(rows, cols)
                assert interval_refinement(rows, cols).entries == table
                want += [(row0 + a, col0 + b, "s<t", v) for (a, b), v in sorted(table.items())]
                row0, col0 = row0 + len(rows), col0 + len(cols)
            assert composite.normal_form() == tuple(want), blocks
            # each row lays out its cells by column, each column by row
            for r in composite.source.indices():
                cols = [t.col for t in composite.terms_out_of(r)]
                assert cols == sorted(cols)
            for c in composite.target.indices():
                rows = [t.row for t in composite.terms_into(c)]
                assert rows == sorted(rows)

    def test_wide_sums_compose_by_atom_pairing(self):
        rng = random.Random(20261020)
        base = cyclic_groupoid(3, 3)
        pool = sorted(base.objects)
        for positive, negative in ((16, 16), (20, 17)):
            wide = wide_zobj(rng, pool, positive, negative)
            endos = [atom_coupling(rng, base, wide, wide) for _ in range(4)]
            onto = atom_coupling(rng, base, wide, narrow_zobj(rng, pool, wide, 3))
            for outer in endos + [onto]:
                for inner in endos:
                    composite = z_compose(base, outer, inner)
                    assert composite.normal_form() == compose_by_atoms(base, outer, inner)
                    assert z_validate(base, composite).ok

    def _pair(self, inner_vals, middle, outer_vals):
        """Factors through the one middle component ``(1, "m", middle)``."""
        mid = z_object([(1, "m", middle)])
        outer = z_morphism(
            mid,
            z_object((b, "t", v) for b, v in enumerate(outer_vals, start=1)),
            [(1, b, v, "m<t") for b, v in enumerate(outer_vals, start=1)],
        )
        inner = z_morphism(
            z_object((a, "s", v) for a, v in enumerate(inner_vals, start=1)),
            mid,
            [(a, 1, v, "s<m") for a, v in enumerate(inner_vals, start=1)],
        )
        return outer, inner

    @pytest.mark.parametrize(
        "inner_vals,middle,outer_vals,entries,error,message",
        [
            ((1, 2), 4, (2, 2), None, MarginalMismatch,
             "middle 1: splittings (1, 2)/(2, 2) do not sum to 4"),
            ((1, 2), 4, (2, 2), {(1, 1): 1, (2, 1): 1, (2, 2): 1}, MarginalMismatch,
             "middle 1: explicit table does not reproduce its marginals"),
            ((2, -1), 1, (3, -2), None, SignIncoherent,
             "middle 1 mixes signs ((2, -1) against (3, -2)); supply an explicit table"),
            ((2, -1), 1, (3, -2), {(1, 1): 3, (2, 2): -2}, MarginalMismatch,
             "middle 1: explicit table does not reproduce its marginals"),
        ],
        ids=["sum-computed", "sum-explicit", "signs-computed", "signs-explicit"],
    )
    def test_unpairable_middles_raise_pinned_errors(self, inner_vals, middle, outer_vals, entries, error, message):
        outer, inner = self._pair(inner_vals, middle, outer_vals)
        explicit = None if entries is None else {1: RefinementTable(inner_vals, outer_vals, entries)}
        with pytest.raises(error) as info:
            z_compose(self.line, outer, inner, explicit=explicit)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "blocks,error,message",
        [
            # the first middle that cannot be paired raises, whatever follows it
            ([((1, 1), (2,)), ((2, -1), (3, -2)), ((1,), (2,))], SignIncoherent,
             "middle 2 mixes signs ((2, -1) against (3, -2)); supply an explicit table"),
            ([((1, 1), (2,)), ((1,), (2,)), ((2, -1), (3, -2))], MarginalMismatch,
             "middle 2: splittings (1,)/(2,) do not sum to 1"),
        ],
        ids=["signs-first", "sum-first"],
    )
    def test_the_first_unpairable_middle_raises(self, blocks, error, message):
        outer, inner = self._block_pair(blocks)
        with pytest.raises(error) as info:
            z_compose(self.line, outer, inner)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_a_middle_pairs_before_its_arrows_compose(self):
        # middle 1 has no composite arrow and middle 2 mixes signs: the
        # missing composite of middle 1 is met first
        composition = {k: v for k, v in self.line.composition.items() if k != ("m<t", "s<m")}
        holed = replace(self.line, composition=composition)
        outer, inner = self._block_pair([((1, 1), (2,)), ((2, -1), (3, -2))])
        with pytest.raises(InputError, match=r"^line: no composite for \(m<t after s<m\)$"):
            z_compose(holed, outer, inner)
        outer, inner = self._block_pair([((2, -1), (3, -2)), ((1, 1), (2,))])
        with pytest.raises(SignIncoherent):
            z_compose(holed, outer, inner)
