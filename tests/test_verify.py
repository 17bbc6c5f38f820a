import pytest

from cayley8.verify import (
    CHECKS,
    SCOPES,
    registry_anchors,
    registry_ids,
    run_checks,
)

# Completeness meta-list: identity families the registry must cover, one
# representative check id per family.
REQUIRED_CHECK_IDS = [
    "cayley_term_count",
    "cayley_self_dual",
    "cayley_closed",
    "cayley_norm_14",
    "cayley_wedge_self",
    "two_form_split",
    "two_form_spectrum",
    "three_form_split",
    "three_form_spectrum",
    "four_form_split",
    "four_form_seven_rank",
    "contract_matches_decomposable_expansion",
    "vector_identity_1",
    "vector_identity_2",
    "vector_identity_3",
    "vector_identity_4",
    "multivector_identity_1",
    "multivector_identity_2",
    "multivector_identity_3",
    "multivector_identity_4",
    "schouten_vector_lie",
    "schouten_graded_symmetry",
    "schouten_leibniz",
    "schouten_graded_jacobi",
    "lie_d_commutation",
    "lie_wedge_split",
    "bracket_contraction",
    "locally_cayley_lie",
    "cayley_potential_roundtrip",
    "map_rank_vectors",
    "map_rank_two",
    "map_rank_three",
    "lemma2_minus7",
    "psi2_inverse_roundtrip",
    "psi3_section_surjective",
    "seven_star_identity",
    "seven_norm_identity",
    "decomposable_minus6",
    "norm_split_minus27",
    "cayley2_constraint",
    "coexact_seven",
    "cayley_fn_constant",
    "triple_product_coordinate_example",
    "triple_product_norm",
    "norm_split_three",
    "d_squared_zero",
    "codifferential_squared_zero",
    "homotopy_identity",
]


def test_registry_ids_unique():
    ids = registry_ids()
    assert len(ids) == len(set(ids))


def test_registry_covers_required_families():
    missing = set(REQUIRED_CHECK_IDS) - set(registry_ids())
    assert not missing


def test_every_check_has_one_anchor():
    anchors = registry_anchors()
    assert set(anchors) == set(registry_ids())
    assert all(anchor.strip() for anchor in anchors.values())


def test_scopes_partition_registry():
    assert all(scope in SCOPES for _, _, scope, _ in CHECKS)
    by_scope = {scope: 0 for scope in SCOPES if scope != "all"}
    for _, _, scope, _ in CHECKS:
        by_scope[scope] += 1
    assert all(count > 0 for count in by_scope.values())


def test_clean_run_passes():
    report = run_checks(scope="brackets", seed=3, cases=4)
    assert report["overall_status"] == "pass"
    assert report["counts"]["fail"] == 0
    assert all(check["status"] == "pass" for check in report["checks"])


def test_deterministic_given_seed():
    first = run_checks(scope="brackets", seed=5, cases=3)
    second = run_checks(scope="brackets", seed=5, cases=3)

    def strip_timing(report):
        return [
            {key: value for key, value in check.items() if key != "elapsed_s"}
            for check in report["checks"]
        ]

    assert strip_timing(first) == strip_timing(second)


def test_scope_filtering():
    report = run_checks(scope="spin7", seed=0, cases=1)
    assert all(check["scope"] == "spin7" for check in report["checks"])
    with pytest.raises(ValueError):
        run_checks(scope="everything")


def test_negative_cases_rejected():
    with pytest.raises(ValueError, match="cases"):
        run_checks(scope="core", cases=-1)


@pytest.mark.parametrize("degree", [-1, 9, 99])
def test_mutation_degree_outside_0_to_8_rejected(degree):
    with pytest.raises(ValueError, match="mutation degree"):
        run_checks(scope="core", cases=1, star_flip_degree=degree)


@pytest.mark.parametrize("degree", range(9))
def test_hodge_mutation_trips_a_named_check(degree):
    report = run_checks(scope="core", seed=0, cases=2, star_flip_degree=degree)
    assert report["overall_status"] == "fail"
    failing = [check for check in report["checks"] if check["status"] == "fail"]
    assert failing
    assert all(check["residual"] != "0" for check in failing)


def test_mutation_breaks_seven_star_identity():
    report = run_checks(scope="spin7", seed=0, cases=2, star_flip_degree=1)
    by_id = {check["check_id"]: check for check in report["checks"]}
    assert by_id["seven_star_identity"]["status"] == "fail"
    assert by_id["seven_star_identity"]["residual"] != "0"


def test_report_shape():
    report = run_checks(scope="brackets", seed=1, cases=1)
    assert report["mutation"] is None
    assert set(report["counts"]) == {"pass", "fail"}
    for check in report["checks"]:
        assert set(check) == {
            "check_id",
            "anchor",
            "scope",
            "status",
            "residual",
            "elapsed_s",
            "note",
        }
