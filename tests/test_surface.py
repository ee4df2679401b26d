"""Tests of the package's public surface: what ``gnystrom`` exports."""

import ast
from pathlib import Path

import gnystrom

# The error classes, the result types, the paper's extrapolation, and the
# names that README, the CLI, bench/, tools/ and the acceptance tests use.
PUBLIC = (
    "BoundCheck", "Dataset", "DegenerateBandwidthError", "DictionaryState",
    "ExperimentConfig", "FitResult", "GNystromError", "InductiveModel", "InputError",
    "KMeansConfig", "KernelParams", "LabelVector", "LambdaRecord",
    "LearnConfig", "LinearModel", "ModelFormatError", "NumericalError",
    "NystromCore", "ParseError", "RepeatResult", "RunReport", "SelectionReport",
    "SideInformation", "SolverReport", "UndefinedAlignmentError", "DEFAULT_LAMBDA_GRID",
    "bandwidth_heuristic", "build_core", "embed", "emit_report",
    "experiment_config_from_file", "extrapolation_bound",
    "factorize", "fit", "gradient", "init_closed_form", "kernel_matrix",
    "load", "load_dataset", "make_blobs", "make_two_moons",
    "nka_score", "objective", "psd_project", "rbf_lipschitz_constant",
    "reconstruct_entry", "run_experiment", "sample_labeled", "save", "select_kmeans",
    "select_lambda", "select_random", "similarity", "train_linear",
)


def test_all_lists_the_public_surface():
    assert len(gnystrom.__all__) == len(set(gnystrom.__all__)) == 54
    assert set(gnystrom.__all__) == set(PUBLIC)


def test_every_exported_name_resolves():
    for name in gnystrom.__all__:
        assert getattr(gnystrom, name) is not None, name


def test_acceptance_tests_import_only_exported_names():
    source = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "gnystrom"
                for alias in node.names}
    assert imported
    assert imported <= set(gnystrom.__all__)


def test_helpers_kept_in_their_modules_are_not_reexported():
    for module, name in (("experiment", "default_landmark_count"),
                         ("experiment", "read_config"), ("modelselect", "validate_grid")):
        assert callable(getattr(getattr(gnystrom, module), name))
        assert not hasattr(gnystrom, name)


def test_side_information_is_built_from_codes_or_pairs_only():
    """Besides its constructor, side information comes from labels or from
    constraint pairs; nothing takes the dense l x l form."""
    classmethods = {name for name, value in vars(gnystrom.SideInformation).items()
                    if isinstance(value, classmethod)}
    assert classmethods == {"from_labels", "from_constraints"}
