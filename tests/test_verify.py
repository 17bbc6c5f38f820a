import enum
import random
from fractions import Fraction

import pytest

import reference_spin7
import reference_verify
from cayley8 import spin7, verify
from cayley8.cli import build_parser
from cayley8.calculus import HomotopyPrimitive
from cayley8.linalg import ExactMatrix
from cayley8.multiindex import DIM
from cayley8.polynomial import MAX_EXPONENT, ExponentOverflow, Polynomial, x
from cayley8.tensor import FORM, MULTIVECTOR, DegreeMismatch, GradedTensor, VarianceMismatch, contract, dx, inner, mv
from cayley8.verify import CHECKS, SCOPES, run_checks

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


REGISTRY_IDS = [check_id for check_id, _, _, _ in CHECKS]


def test_registry_ids_unique():
    assert len(REGISTRY_IDS) == len(set(REGISTRY_IDS))


def test_registry_covers_required_families():
    missing = set(REQUIRED_CHECK_IDS) - set(REGISTRY_IDS)
    assert not missing


def test_every_check_has_one_anchor():
    anchors = {check_id: anchor for check_id, anchor, _, _ in CHECKS}
    assert set(anchors) == set(REGISTRY_IDS)
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


def _probe(ctx):
    """A check whose residual is its first draw, so a report shows the stream."""
    yield Fraction(ctx.rng.randrange(1, 10**6))


@pytest.mark.parametrize("star_flip_degree", [None, 4])
def test_checks_independent_of_scope(star_flip_degree, monkeypatch):
    """Each check draws from its own RNG keyed by (seed, check id).

    Correct identities report 0 whatever they draw, so two probes in
    different scopes make a stream shared between checks visible also
    without a mutation.
    """
    probes = [("probe_core", "first draw", "core", _probe), ("probe_brackets", "first draw", "brackets", _probe)]
    monkeypatch.setattr(verify, "CHECKS", CHECKS + probes)

    def entries(scope):
        report = run_checks(scope=scope, seed=3, cases=2, star_flip_degree=star_flip_degree)
        return {
            check["check_id"]: {key: value for key, value in check.items() if key != "elapsed_s"}
            for check in report["checks"]
        }

    combined = entries("all")
    by_scope = {}
    for scope in SCOPES:
        if scope != "all":
            by_scope.update(entries(scope))
    assert by_scope == combined
    assert combined["probe_core"]["residual"] != combined["probe_brackets"]["residual"]


@pytest.mark.parametrize("seed", [2, 5])
def test_homotopy_closed_primitive_catches_a_zero_primitive(seed, monkeypatch):
    # at these seeds the one random draw has d = 0, so only the fixed closed
    # form the check starts from can expose a wrong primitive

    def zero_primitive(beta):
        return HomotopyPrimitive(beta, GradedTensor.zero(FORM, beta.degree - 1))

    monkeypatch.setattr(verify, "homotopy_pair", zero_primitive)
    report = run_checks(scope="core", seed=seed, cases=1)
    by_id = {check["check_id"]: check for check in report["checks"]}
    assert by_id["homotopy_closed_primitive"]["status"] == "fail"


def cayley_fn_constant():
    report = run_checks(scope="spin7", seed=0, cases=4)
    (check,) = [check for check in report["checks"] if check["check_id"] == "cayley_fn_constant"]
    return check["status"], check["residual"]


def test_cayley_fn_constant_fails_with_the_quoted_seven(monkeypatch):
    assert cayley_fn_constant() == ("pass", "0")
    monkeypatch.setattr(spin7, "CAYLEY_FUNCTION_CONSTANT", 7)
    assert cayley_fn_constant() == ("fail", "2691/2")


def test_cayley_fn_constant_fails_with_a_zero_eight_part(monkeypatch):
    # identity_report("cayley_fn") reads the eight-part from spin7.project3, which the check
    # also draws its kernel parts from; those come through the reference split, so only
    # identity_report sees the mutant, a project3 whose 3_8 is zero.  An eight-part equal to
    # the whole three-form is no mutant here: it passes, because eta_48 ^ Psi = 0 makes the
    # 48-part drop against any one-form, which is what eight_part_eq asserts.
    original = spin7.project3

    def zero_eight(eta):
        report = original(eta)
        return spin7.DecompositionReport(eta, {**report.components, "3_8": GradedTensor.zero(FORM, 3)})

    monkeypatch.setattr(verify, "project3", reference_spin7.project3)
    monkeypatch.setattr(spin7, "project3", zero_eight)
    assert cayley_fn_constant() == ("fail", "897/4")


#: Each cached operator matrix of spin7: (builder, its argument or None, the
#: spin7 checks that read it).  T and the factors of S (all ``map_matrix``),
#: the two-form 7-part, the generator pairings, pi_7 and psi2^-1.  The psi3
#: section has no matrix of its own: it applies ``map_matrix(1)``.
CACHED_OPERATORS = [
    ("map_matrix", 2, {"two_form_split"}),
    ("map_matrix", 1, {"three_form_split", "psi3_section_surjective"}),
    ("map_matrix", 3, {"three_form_split"}),
    ("_projector", "2_7", {"two_form_split"}),
    ("_generator_pairings", None, {"four_form_split", "four_form_seven_rank"}),
    ("_projector", "4_7", {"four_form_split"}),
    ("_psi2_inverse_matrix", None, {"psi2_inverse_roundtrip"}),
]


def perturbed(builder, key, entry=(0, 0)):
    """A patch of ``builder`` serving its cached matrix for ``key`` with ``entry`` moved by 1."""
    original = getattr(spin7, builder)
    matrix = original() if key is None else original(key)
    moved = matrix + ExactMatrix.from_quotients(matrix.shape, [(*entry, 1, 1)])

    def patched(*args):
        return moved if args == (() if key is None else (key,)) else original(*args)

    return patched


def failing(cases: int = 16) -> set[str]:
    report = run_checks(scope="spin7", seed=0, cases=cases)
    return {check["check_id"] for check in report["checks"] if check["status"] == "fail"}


@pytest.mark.parametrize("builder, key, checks", CACHED_OPERATORS)
def test_perturbed_operator_matrix_fails_its_checks(builder, key, checks, monkeypatch):
    # the clean run also builds every cache, so none is built from a perturbed matrix
    assert failing() == set()
    with monkeypatch.context() as patch:
        patch.setattr(spin7, builder, perturbed(builder, key))
        assert checks <= failing()
    assert failing() == set()


def test_perturbed_registry_map_matrix_fails_map_rank_two(monkeypatch):
    # verify holds its own map_matrix name; only the check that compares it with
    # the wedge-and-Hodge build of star(Psi ^ .) on two-forms reads it at degree 2
    assert failing() == set()
    monkeypatch.setattr(verify, "map_matrix", perturbed("map_matrix", 2))
    assert failing() == {"map_rank_two"}


@pytest.mark.parametrize(
    "key, project, form, defining, mass",
    [
        ("2_7", "project2", dx(0, 1), "defining:2_7", 6),
        ("4_7", "project4", dx(0, 1, 2, 3), "defining:4_27_selfdual", 2),
    ],
)
def test_split_sum_residual_is_zero_by_construction(key, project, form, defining, mass, monkeypatch):
    # each split takes its last part as the input minus the others, so "sum" stays zero
    # under a perturbed projector; the defining residuals are what fail the split checks
    monkeypatch.setattr(spin7, "_projector", perturbed("_projector", key))
    residuals = getattr(spin7, project)(form).residuals()
    assert verify._mass(residuals["sum"]) == 0
    assert verify._mass(residuals[defining]) == mass


@pytest.mark.parametrize(
    "builder, key, project, part",
    [
        ("_projector", "2_7", "project2", "2_7"),
        ("_projector", "4_7", "project4", "4_7"),
        ("map_matrix", 1, "project3", "3_8"),
    ],
)
def test_recorded_norm_reads_the_matrix_that_built_the_part(builder, key, project, part, monkeypatch):
    # a recorded part's norm is read through the Gram matrix of the very matrix that built the part, so
    # a perturbed matrix, a new instance, brings its own: a Gram matrix cached by name would read the
    # clean one, whose norm differs here
    degree = int(part[0])
    form = GradedTensor(FORM, degree, {tuple(range(degree)): x(1), tuple(range(8 - degree, 8)): x(2) - 3})
    if degree == 3:
        form = form + contract(mv(0), spin7.cayley_form()) * x(0)  # an 8-part on dx0, the column moved
    clean = getattr(spin7, project)(form)
    clean_norm = clean.norms()[part]  # the clean matrix's Gram matrix is built first
    monkeypatch.setattr(spin7, builder, perturbed(builder, key))
    report = getattr(spin7, project)(form)
    component = report.components[part]
    assert component != clean.components[part]
    assert report.norms()[part] == inner(component, component) != clean_norm


def test_identity_checks_read_every_returned_residual(monkeypatch):
    # the registry yields identity_report's residuals as returned, so a residual the
    # report adds under a name the registry never spells still fails its check
    original = spin7.identity_report
    monkeypatch.setattr(spin7, "identity_report", lambda name, *inputs: {**original(name, *inputs), "extra": Polynomial.one()})
    identity_checks = {"seven_norm_identity", "decomposable_minus6", "norm_split_minus27", "norm_split_three", "cayley_fn_constant"}
    assert failing(cases=1) == identity_checks


# each entry sits in a column that the one seeded draw at seed 0 does not read
@pytest.mark.parametrize(
    "builder, key, entry, check",
    [("_psi2_inverse_matrix", None, (0, 0), "psi2_inverse_roundtrip"), ("_projector", "2_7", (27, 27), "two_form_split")],
)
def test_basis_sweep_reads_every_column_at_one_case(builder, key, entry, check, monkeypatch):
    assert failing(cases=1) == set()
    monkeypatch.setattr(spin7, builder, perturbed(builder, key, entry))
    assert check in failing(cases=1)


def test_raising_check_fails_and_keeps_the_report(monkeypatch):
    # with psi2^-1 perturbed, the potential of a Cayley 2-field is refused: that check
    # fails with the mass it yielded so far, and every other check still reports
    assert failing() == set()
    monkeypatch.setattr(spin7, "_psi2_inverse_matrix", perturbed("_psi2_inverse_matrix", None))
    report = run_checks(scope="spin7", seed=0, cases=16)
    by_id = {check["check_id"]: check for check in report["checks"]}
    assert len(by_id) == sum(1 for c in CHECKS if c[2] == "spin7")
    raised = by_id["cayley_potential_roundtrip"]
    assert raised["status"] == "fail"
    assert raised["note"].startswith("raised NotLocallyCayleyError: multivector field is not locally Cayley")
    assert report["overall_status"] == "fail"
    assert by_id["cayley_fn_constant"]["note"] == verify.NOTES["cayley_fn_constant"]


@pytest.mark.parametrize("check_id", ["cayley_potential_roundtrip", "locally_cayley_lie"])
def test_degree_two_checks_solve_through_cayley_2mvf_for(check_id, monkeypatch):
    # psi2^-1 o d has one home: the registry's degree-2 Cayley fields come from the solver
    calls = []
    solver = spin7.cayley_2mvf_for

    def counting(alpha):
        calls.append(alpha)
        return solver(alpha)

    monkeypatch.setattr(spin7, "cayley_2mvf_for", counting)
    monkeypatch.setattr(verify, "CHECKS", [c for c in CHECKS if c[0] == check_id])
    (check,) = run_checks(scope="spin7", seed=0, cases=16)["checks"]
    assert check["status"] == "pass"
    assert len(calls) > 0


def test_raising_check_keeps_its_static_note(monkeypatch):
    def raising(ctx):
        yield 3
        raise spin7.NotLocallyCayleyError(GradedTensor.zero(FORM, 3))

    monkeypatch.setattr(verify, "CHECKS", [("cayley_fn_constant", "anchor", "spin7", raising)])
    (check,) = run_checks(scope="spin7", cases=1)["checks"]
    assert (check["status"], check["residual"]) == ("fail", "3")
    assert check["note"] == verify.NOTES["cayley_fn_constant"] + "; raised NotLocallyCayleyError: " + (
        "multivector field is not locally Cayley; d(Q _| Psi) has L1 coefficient mass 0"
    )


#: The paper's checks, the ids ``scope="all"`` reports, in report order.  A
#: new check goes in a new scope that ``all`` skips, so this list, the
#: whole-report digests and the benchmark's pins stay as they are.
ALL_CHECK_IDS = [
    "wedge_graded_commutativity",
    "wedge_associativity",
    "contract_matches_decomposable_expansion",
    "star_involution",
    "star_inner_consistency",
    "musical_inverse",
    "vector_identity_1",
    "vector_identity_2",
    "vector_identity_3",
    "vector_identity_4",
    "multivector_identity_1",
    "multivector_identity_2",
    "multivector_identity_3",
    "multivector_identity_4",
    "pullback_functorial",
    "pullback_rotation_star",
    "d_squared_zero",
    "codifferential_squared_zero",
    "homotopy_identity",
    "homotopy_closed_primitive",
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
    "lemma2_minus7",
    "map_rank_vectors",
    "map_rank_two",
    "map_rank_three",
    "psi2_inverse_roundtrip",
    "psi3_section_surjective",
    "triple_product_coordinate_example",
    "triple_product_norm",
    "seven_star_identity",
    "seven_norm_identity",
    "decomposable_minus6",
    "norm_split_minus27",
    "norm_split_three",
    "coexact_seven",
    "cayley_fn_constant",
    "cayley2_constraint",
    "cayley_potential_roundtrip",
    "locally_cayley_lie",
    "schouten_vector_lie",
    "schouten_jacobi_vectors",
    "schouten_graded_symmetry",
    "schouten_leibniz",
    "schouten_graded_jacobi",
    "lie_d_commutation",
    "lie_wedge_split",
    "bracket_contraction",
]


def test_all_scope_reports_the_papers_57_checks_in_order():
    report = run_checks("all", seed=0, cases=1)
    assert len(ALL_CHECK_IDS) == 57
    assert [check["check_id"] for check in report["checks"]] == ALL_CHECK_IDS


def test_scopes_are_read_from_the_registry():
    assert SCOPES == ("all", "core", "spin7", "brackets")
    verify_parser = build_parser()._subparsers._group_actions[0].choices["verify"]
    (scope,) = [action for action in verify_parser._actions if action.dest == "scope"]
    assert tuple(scope.choices) == SCOPES


def test_scope_filtering():
    report = run_checks(scope="spin7", seed=0, cases=1)
    assert all(check["scope"] == "spin7" for check in report["checks"])
    with pytest.raises(ValueError):
        run_checks(scope="everything")


def test_negative_cases_rejected():
    # cases=0 would evaluate no random instance and pass vacuously
    for cases in (-1, 0):
        with pytest.raises(ValueError, match="cases"):
            run_checks(scope="core", cases=cases)


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


def test_fractional_mutation_degree_rejected():
    # no tensor has degree 2.5: the mutation would flip nothing and every check would pass
    with pytest.raises(ValueError, match="star_flip_degree must be an integer, got 2.5"):
        run_checks(scope="core", cases=1, star_flip_degree=2.5)


def test_fractional_cases_rejected():
    # 1.5 cases used to reach range() in a check body and escape as a TypeError
    with pytest.raises(ValueError, match="cases must be an integer, got 1.5"):
        run_checks(scope="core", cases=1.5)


@pytest.mark.parametrize("seed", [1.5, "7", None])
def test_non_integer_seed_rejected(seed):
    # the RNG key is f"{seed}:{check id}", so "7" used to run the draws of seed 7 and report "seed": "7"
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        run_checks(scope="core", seed=seed, cases=1)


@pytest.mark.parametrize("name", ["seed", "cases", "star_flip_degree"])
@pytest.mark.parametrize("flag", [True, False, enum.IntEnum("Count", "ONE").ONE])
def test_bool_arguments_rejected(name, flag):
    # True would run one case or seed 1, False would flip the star on degree 0; an IntEnum is no plain int either
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_checks(scope="core", **{"cases": 1, name: flag})


# -- the seeded generators against the bodies they replaced ----------------------


def _fields(value):
    """Everything a generated value holds, in its stored order."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, Polynomial):
        return value._den, list(value._nums.items())
    return value.variance, value.degree, [(idx, _fields(poly)) for idx, poly in value.terms.items()]


def _draw_both(name, *args, calls=12, seeds=range(4)):
    """``calls`` draws of ``verify.name(rng, *args)`` and of its reference, from equal seeds."""
    new_fn, ref_fn = getattr(verify, name), getattr(reference_verify, name)
    for seed in seeds:
        new_rng, ref_rng = random.Random(f"{seed}:{name}"), random.Random(f"{seed}:{name}")
        for _ in range(calls):
            new, ref = new_fn(new_rng, *args), ref_fn(ref_rng, *args)
            assert _fields(new) == _fields(ref), (seed, args)
            assert new_rng.getstate() == ref_rng.getstate(), (seed, args)


def test_random_fraction_draws_as_its_reference():
    _draw_both("random_fraction", calls=200)


@pytest.mark.parametrize("max_degree", range(4))
@pytest.mark.parametrize("seed", range(1, 5))
def test_random_polynomial_draws_as_its_reference(max_degree, seed):
    _draw_both("random_polynomial", max_degree, seeds=(seed,))


@pytest.mark.parametrize("degree", range(DIM + 1))
@pytest.mark.parametrize("variance", [FORM, MULTIVECTOR])
def test_random_tensor_draws_as_its_reference(variance, degree):
    _draw_both("random_tensor", variance, degree)
    for max_terms in (1, 2, 5, 70):
        for max_poly_degree in (0, 2, 3):
            _draw_both("random_tensor", variance, degree, max_terms, max_poly_degree, calls=3, seeds=range(2))


def test_vector_fields_and_decomposables_draw_as_their_reference():
    _draw_both("random_vector_field")
    for degree in range(5):
        _draw_both("random_decomposable", degree, calls=3)


@pytest.mark.parametrize(
    "name, args",
    [
        ("random_tensor", (FORM, 9)),
        ("random_tensor", (FORM, -1)),
        ("random_tensor", ("field", 2)),
        ("random_tensor", (FORM, True)),
        ("random_tensor", (FORM, 2, 0)),
        ("random_polynomial", (-1,)),
        ("random_polynomial", (-2,)),
    ],
)
def test_generators_raise_as_their_reference(name, args):
    new_rng, ref_rng = random.Random(name), random.Random(name)
    with pytest.raises(ValueError) as ref_error:
        getattr(reference_verify, name)(ref_rng, *args)
    with pytest.raises(type(ref_error.value)):
        getattr(verify, name)(new_rng, *args)
    assert new_rng.getstate() == ref_rng.getstate()


def test_generator_errors_are_shape_errors():
    rng = random.Random(0)
    with pytest.raises(VarianceMismatch):
        verify.random_tensor(rng, "field", 2)
    with pytest.raises(DegreeMismatch):
        verify.random_tensor(rng, FORM, True)
    state = rng.getstate()
    with pytest.raises(ExponentOverflow):  # a field could pass the cap: refused before any draw
        verify.random_polynomial(rng, MAX_EXPONENT + 1)
    assert rng.getstate() == state


@pytest.mark.parametrize("n", [*range(1, 40), 64, 70, 255, 256, 257, 10**20, 2**70])
def test_below_draws_as_randrange(n):
    mine, theirs = random.Random(n), random.Random(n)
    for _ in range(30):
        assert verify._below(mine, n) == theirs.randrange(n)
        assert mine.getstate() == theirs.getstate()


class _BoundedBits(random.Random):
    """A ``Random`` whose 100th ``getrandbits`` call raises, so an endless draw loop fails, not hangs."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls >= 100:
            raise RuntimeError("the draw loop does not end")
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [0, -1, -8])
def test_below_an_empty_range_raises(n):
    # getrandbits(0) is always 0, never below 0: an unchecked loop would spin forever
    with pytest.raises(ValueError, match="empty range"):
        verify._below(_BoundedBits(0), n)
