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
from .experiment import (ExperimentConfig, RepeatResult, RunReport,
                         default_landmark_count, emit_report,
                         experiment_config_from_file, read_config, run_experiment)
from .inductive import InductiveModel, embed, load, save, similarity
from .kernels import (KernelParams, LabelVector, bandwidth_heuristic, double_center,
                      ideal_kernel, kernel_matrix, nka_score)
from .landmarks import KMeansConfig, LandmarkSet, select_kmeans, select_random
from .linear_svm import LinearModel, train_linear
from .modelselect import (DEFAULT_LAMBDA_GRID, LambdaRecord, SelectionReport,
                          alignment_scores, select_lambda, validate_grid)
from .nystrom import (BoundCheck, LandmarkEigensystem, NystromCore, build_core,
                      extrapolate_eigenvectors, landmark_eigensystem, extrapolation_bound,
                      rbf_lipschitz_constant, reconstruct_entry)
from .supervision import SideInformation

__version__ = "0.1.0"

__all__ = [
    "BoundCheck", "Dataset", "DegenerateBandwidthError",
    "DictionaryState", "ExperimentConfig", "FitResult", "GNystromError",
    "InductiveModel", "InputError", "KMeansConfig", "KernelParams",
    "LabelVector", "LambdaRecord", "LandmarkEigensystem", "LandmarkSet",
    "LearnConfig", "LinearModel", "ModelFormatError", "NumericalError",
    "NystromCore", "ParseError", "RepeatResult", "RunReport", "SelectionReport",
    "SideInformation", "SolverReport",
    "UndefinedAlignmentError", "DEFAULT_LAMBDA_GRID",
    "alignment_scores", "bandwidth_heuristic", "build_core",
    "default_landmark_count", "double_center", "embed", "emit_report",
    "experiment_config_from_file", "extrapolate_eigenvectors", "factorize",
    "fit", "gradient", "ideal_kernel", "init_closed_form", "kernel_matrix",
    "landmark_eigensystem", "load", "load_dataset",
    "make_blobs", "make_two_moons", "nka_score", "objective", "extrapolation_bound",
    "psd_project", "rbf_lipschitz_constant", "read_config",
    "reconstruct_entry", "run_experiment", "sample_labeled", "save",
    "select_kmeans", "select_lambda", "select_random", "similarity",
    "train_linear", "validate_grid",
]
