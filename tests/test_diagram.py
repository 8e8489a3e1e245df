"""Diagram assignments, identities, and random-extension transfer."""

import pytest

from forcing_lab import (
    NODES,
    CardinalLabel,
    DiagramAssignment,
    InvalidGround,
    check_assignment,
    check_extension_pair,
    random_extension_constraints,
)

A1, A2, A3 = CardinalLabel.ALEPH1, CardinalLabel.ALEPH2, CardinalLabel.ALEPH3


def assignment(**overrides) -> DiagramAssignment:
    values = {node: A1 for node in NODES}
    values.update(overrides)
    return DiagramAssignment(values)


def test_labels_round_trip():
    for label in CardinalLabel:
        assert CardinalLabel.from_text(label.text) is label
    assert CardinalLabel.from_text("continuum") is CardinalLabel.CONTINUUM
    with pytest.raises(ValueError):
        CardinalLabel.from_text("alephomega")


def test_assignment_needs_exact_node_set():
    with pytest.raises(ValueError):
        DiagramAssignment({node: A1 for node in NODES[:-1]})
    with pytest.raises(ValueError):
        DiagramAssignment({**{n: A1 for n in NODES}, "extra": A1})
    with pytest.raises(ValueError):
        DiagramAssignment({**{n: A1 for n in NODES}, "b": 1})


def test_all_equal_assignment_is_consistent():
    assert check_assignment(assignment()).ok
    assert check_assignment(
        DiagramAssignment({n: CardinalLabel.CONTINUUM for n in NODES})).ok


def test_edge_violation_reported():
    verdict = check_assignment(assignment(add_null=A2))
    assert not verdict.ok
    # both outgoing edges break, the identities do not involve add_null
    assert {v.kind for v in verdict.violations} == {"edge"}
    assert len(verdict.violations) == 2
    assert all("add_null" in v.detail for v in verdict.violations)


def test_min_identity_enforced_both_ways():
    # b and cov_meager high but add_meager low: order fine, identity broken
    low = assignment(b=A2, d=A2, cov_meager=A2, non_meager=A2,
                     cof_meager=A2, cof_null=A2, non_null=A2)
    verdict = check_assignment(low)
    assert not verdict.ok
    assert any(v.kind == "identity" and "add_meager" in v.detail
               for v in verdict.violations)
    fixed = assignment(b=A2, d=A2, cov_meager=A2, non_meager=A2,
                       cof_meager=A2, cof_null=A2, non_null=A2, add_meager=A2)
    assert check_assignment(fixed).ok


def test_max_identity_enforced():
    bumped = assignment(d=A2, cof_meager=A3, cof_null=A3)
    verdict = check_assignment(bumped)
    assert any(v.kind == "identity" and "cof_meager" in v.detail
               for v in verdict.violations)
    fixed = assignment(d=A2, cof_meager=A2, cof_null=A2)
    assert check_assignment(fixed).ok


def test_transfer_constraint_count_and_kinds():
    constraints = random_extension_constraints(assignment())
    assert len(constraints) == 12
    relations = [c.relation for c in constraints]
    assert relations.count("eq") == 10
    assert relations.count("ge") == 1
    assert relations.count("le") == 1


def test_transfer_rejects_inconsistent_ground():
    with pytest.raises(InvalidGround):
        random_extension_constraints(assignment(add_null=A2))


def test_identity_extension_accepted():
    ground = assignment()
    assert check_extension_pair(ground, assignment()).ok


def test_covering_must_reach_starred_value():
    ground = assignment(
        non_meager=A2, non_null=A2, d=A1, cof_meager=A2, cof_null=A2,
        cov_star=A2, non_star=A1)
    ext = assignment(
        non_meager=A2, cof_meager=A2, cof_null=A2,
        cov_null=A2, non_null=A1, cov_star=A2, non_star=A1)
    assert check_extension_pair(ground, ext).ok
    lazy = assignment(
        non_meager=A2, non_null=A1, cof_meager=A2, cof_null=A2,
        cov_star=A2, non_star=A1)  # cov_null stayed at aleph1
    verdict = check_extension_pair(ground, lazy)
    assert not verdict.ok
    assert any(v.kind == "transfer" and "cov_null" in v.detail
               for v in verdict.violations)


def test_bounding_number_pushes_covering_up():
    ground = assignment(
        b=A2, d=A2, non_meager=A2, cof_meager=A2, cof_null=A2,
        non_null=A2, cov_star=A2, non_star=A2)
    ext = assignment(
        b=A2, d=A2, non_meager=A2, cof_meager=A2, cof_null=A2,
        non_null=A2, cov_null=A2, cov_star=A2, non_star=A2)
    assert check_extension_pair(ground, ext).ok
    constraints = {(c.node, c.relation): c.bound
                   for c in random_extension_constraints(ground)}
    assert constraints[("cov_null", "ge")] == A2  # max(cov_null, b)


def test_uniformity_squeezed_by_dominating():
    ground = assignment(d=A2, non_null=A2, cof_meager=A2, cof_null=A2,
                        non_star=A1)
    constraints = {(c.node, c.relation): c.bound
                   for c in random_extension_constraints(ground)}
    assert constraints[("non_null", "le")] == A2  # min(non_null, d)
    assert constraints[("non_null", "eq")] == A1  # pinned by the starred slot
    ext = assignment(d=A2, cof_meager=A2, cof_null=A2, non_null=A1, non_star=A1)
    assert check_extension_pair(ground, ext).ok


def test_two_label_census_is_stable():
    # every node aleph1 or aleph2: 2^12 assignments, 92 pass both
    # edge and identity checks (regression-frozen count)
    consistent = 0
    for mask in range(1 << len(NODES)):
        values = {node: (A2 if mask >> i & 1 else A1)
                  for i, node in enumerate(NODES)}
        if check_assignment(DiagramAssignment(values)).ok:
            consistent += 1
    assert consistent == 92


def test_pair_check_reports_ground_problems():
    bad_ground = assignment(add_null=A2)
    verdict = check_extension_pair(bad_ground, assignment())
    assert not verdict.ok
    assert all(v.kind in {"ground", "extension", "transfer"} for v in verdict.violations)
    assert any(v.kind == "ground" for v in verdict.violations)
    # a consistent ground: the extension's own two edges, then the transfer it breaks
    verdict = check_extension_pair(assignment(), assignment(add_null=A2))
    assert [v.kind for v in verdict.violations] == ["extension", "extension", "transfer"]
