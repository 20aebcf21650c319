"""Named group constructors, spec-string parsing, and JSON loading."""

import json

import pytest

from solgeom import catalog
from solgeom.classifier import (
    PillowcaseInvariant,
    enumerate_invariants,
    group_from_invariant,
)
from solgeom.extensions import ExtensionGroup, QuotientKind
from solgeom.intmat import IntMatrix, kernel_basis


def test_registry_names():
    assert catalog.SOL4_NAMES == (
        "pillowcase", "kb-monodromy", "bordered", "B1-sd-theta")
    assert catalog.OTHER_NAMES == ("Dinf", "G2", "B1", "sigma")
    groups = catalog.default_catalog()
    assert set(groups) == set(catalog.SOL4_NAMES) | set(catalog.OTHER_NAMES)


def test_constructors_build_with_expected_shape():
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    assert g.kind is QuotientKind.DINF and g.rank == 3
    assert g.square_cocycle["u"] == (1, -1, 0)
    assert g.square_cocycle["v"] == (1, 0, 0)
    kb = catalog.kb_monodromy_group()
    assert kb.kind is QuotientKind.KLEIN and kb.rank == 2
    bd = catalog.bordered_group()
    assert bd.kind is QuotientKind.ZQ and bd.rank == 3
    assert bd.action["w"] == IntMatrix([[1, 0, 0], [1, 3, 2], [0, 4, 3]])
    sd = catalog.b1_sd_theta_group()
    assert sd.kind is QuotientKind.ZXC2 and sd.rank == 3
    sg = catalog.sigma_group()
    assert sg.kind is QuotientKind.DINF and sg.rank == 2
    assert catalog.dinf_group().rank == 0
    assert catalog.g2_group().action["u"] == -IntMatrix.identity(2)
    assert catalog.b1_group().action["x"] == IntMatrix.diagonal((1, -1))


def test_pillowcase_cocycle_matches_kernel_basis():
    # the closed-form u-cocycle spans the kernel of A - I, as kernel_basis
    # finds it: every invariant with entries <= 300
    invariants = enumerate_invariants(300)
    assert len(invariants) == 1708
    for inv in invariants:
        a = IntMatrix([[inv.p, inv.q], [-inv.r, -inv.p]])
        (e, f), = kernel_basis(a - IntMatrix.identity(2))
        u = group_from_invariant(inv).square_cocycle["u"]
        assert u == (e, f, 0), inv


def test_pillowcase_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        group_from_invariant(PillowcaseInvariant(3, 2, 2))


def test_parse_bare_names():
    for name in catalog.SOL4_NAMES + catalog.OTHER_NAMES:
        g = catalog.parse_group_spec(name)
        assert g.name.startswith(name.split("(")[0])
    with pytest.raises(ValueError):
        catalog.parse_group_spec("G3")


def test_parse_parameterized_forms():
    g = catalog.parse_group_spec("pillowcase(5,4,6)")
    assert g.name == "pillowcase(5,4,6)"
    kb = catalog.parse_group_spec("kb-monodromy(3,2;4,3)")
    assert kb.action["y"] == IntMatrix([[3, 2], [4, 3]])
    bd = catalog.parse_group_spec("bordered((1,0),(3,2;4,3))")
    assert bd.action["w"] == IntMatrix([[1, 0, 0], [1, 3, 2], [0, 4, 3]])
    bd2 = catalog.parse_group_spec("bordered((-2,-4),(3,2;4,3))")
    assert bd2.action["w"] == IntMatrix([[1, 0, 0], [-2, 3, 2], [-4, 4, 3]])


def test_parse_rejects_malformed():
    for bad in ["pillowcase(3,2)", "pillowcase(3,2,4", "unknown(1)",
                "bordered((1,0))", "pillowcase(2,2,4)"]:
        with pytest.raises(ValueError):
            catalog.parse_group_spec(bad)


def test_load_group_from_json(tmp_path):
    g = catalog.g2_group()
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(g.to_description()))
    h = catalog.load_group(str(path))
    assert h.abelianization() == (1, (2, 2))
    assert catalog.resolve_group(str(path)).abelianization() == (1, (2, 2))
    assert catalog.resolve_group("G2").abelianization() == (1, (2, 2))


def test_sol4_registry_betti_numbers():
    # first Betti number over the four-manifold registry: only the
    # pillowcase family has beta_1 = 0
    betti = {name: catalog.default_catalog()[name].abelianization()[0]
             for name in catalog.SOL4_NAMES}
    assert betti == {"pillowcase": 0, "kb-monodromy": 1,
                     "bordered": 2, "B1-sd-theta": 1}


def test_bare_names_resolve_to_their_builders():
    builders = {
        "pillowcase":
            lambda: group_from_invariant(PillowcaseInvariant(3, 2, 4)),
        "kb-monodromy": catalog.kb_monodromy_group,
        "bordered": catalog.bordered_group,
        "B1-sd-theta": catalog.b1_sd_theta_group,
        "Dinf": catalog.dinf_group,
        "G2": catalog.g2_group,
        "B1": catalog.b1_group,
        "sigma": catalog.sigma_group,
    }
    assert set(builders) == set(catalog.SOL4_NAMES + catalog.OTHER_NAMES)
    for name, build in builders.items():
        want = build().to_description()
        assert catalog.parse_group_spec(name).to_description() == want
        assert catalog.resolve_group(name).to_description() == want
        assert catalog.default_catalog()[name].to_description() == want
    with pytest.raises(ValueError, match="unknown catalog group 'G3'"):
        catalog.resolve_group("G3")


def test_bare_name_builds_one_group(monkeypatch):
    built = []
    init = ExtensionGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExtensionGroup, "__init__", counting)
    for name in catalog.SOL4_NAMES + catalog.OTHER_NAMES:
        built.clear()
        catalog.resolve_group(name)
        assert len(built) == 1, (name, built)
