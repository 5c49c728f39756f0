"""Partial-label learning with reduction-based pseudo-labels.

Training couples a predictor with a multi-branch auxiliary model (one branch
per excludable label) and a meta-learned weighting net trained by exact
hypergradients through a single trial step. A separate theory harness checks
the method's consistency guarantees numerically on finite scenarios with
known posteriors.
"""

from .data import (
    GaussianMixture,
    PllDataset,
    SplitSpec,
    corrupt_instance_dependent,
    gen_gaussian_mixture,
    load_csv,
    save_csv,
    split,
    validate_dataset,
)
from .nets import MlpParams, backward_ce, forward, hypergradient, init_mlp, sgd_step
from .pseudo import (
    PseudoLabelState,
    basic_pseudo,
    combine,
    meta_weights,
    reduction_pseudo,
    reduction_row,
)
from .theory import (
    TheoryScenario,
    check_tsybakov,
    membership_J,
    reduced_posterior,
    verify_theorem1,
    verify_theorem2,
)
from .training import (
    EpochMetrics,
    RunResult,
    TrainConfig,
    fit,
    fit_lanes,
    train_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianMixture",
    "PllDataset",
    "SplitSpec",
    "corrupt_instance_dependent",
    "gen_gaussian_mixture",
    "load_csv",
    "save_csv",
    "split",
    "validate_dataset",
    "MlpParams",
    "backward_ce",
    "forward",
    "hypergradient",
    "init_mlp",
    "sgd_step",
    "PseudoLabelState",
    "basic_pseudo",
    "combine",
    "meta_weights",
    "reduction_pseudo",
    "reduction_row",
    "TheoryScenario",
    "check_tsybakov",
    "membership_J",
    "reduced_posterior",
    "verify_theorem1",
    "verify_theorem2",
    "EpochMetrics",
    "RunResult",
    "TrainConfig",
    "fit",
    "fit_lanes",
    "train_epoch",
    "__version__",
]
