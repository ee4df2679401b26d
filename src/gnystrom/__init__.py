"""Low-rank kernel decompositions with dictionaries learned from side
information, plus the harness to compare them against the plain
pseudo-inverse baseline."""

from .datasets import Dataset, load_dataset, make_blobs, make_two_moons, sample_labeled
from .dictlearn import (DictionaryState, FitResult, LearnConfig, SolverReport,
                        factorize, fit, gradient, init_closed_form, objective,
                        psd_project)
from .errors import (DegenerateBandwidthError, GNystromError, InputError,
                     ModelFormatError, NumericalError, ParseError,
                     UndefinedAlignmentError)
from .experiment import (ExperimentConfig, RepeatResult, RunReport, emit_report,
                         experiment_config_from_file, run_experiment)
from .inductive import InductiveModel, embed, load, save, similarity
from .kernels import KernelParams, LabelVector, bandwidth_heuristic, kernel_matrix, nka_score
from .landmarks import KMeansConfig, select_kmeans, select_random
from .linear_svm import LinearModel, train_linear
from .modelselect import DEFAULT_LAMBDA_GRID, LambdaRecord, SelectionReport, select_lambda
from .nystrom import (BoundCheck, NystromCore, build_core, extrapolation_bound,
                      rbf_lipschitz_constant, reconstruct_entry)
from .supervision import SideInformation

__version__ = "0.1.0"

__all__ = [
    "BoundCheck", "Dataset", "DegenerateBandwidthError",
    "DictionaryState", "ExperimentConfig", "FitResult", "GNystromError",
    "InductiveModel", "InputError", "KMeansConfig", "KernelParams",
    "LabelVector", "LambdaRecord",
    "LearnConfig", "LinearModel", "ModelFormatError", "NumericalError",
    "NystromCore", "ParseError", "RepeatResult", "RunReport", "SelectionReport",
    "SideInformation", "SolverReport",
    "UndefinedAlignmentError", "DEFAULT_LAMBDA_GRID",
    "bandwidth_heuristic", "build_core", "embed", "emit_report",
    "experiment_config_from_file", "factorize",
    "fit", "gradient", "init_closed_form", "kernel_matrix",
    "load", "load_dataset",
    "make_blobs", "make_two_moons", "nka_score", "objective", "extrapolation_bound",
    "psd_project", "rbf_lipschitz_constant",
    "reconstruct_entry", "run_experiment", "sample_labeled", "save",
    "select_kmeans", "select_lambda", "select_random", "similarity",
    "train_linear",
]
