"""Partial-label learning with reduction-based pseudo-labels.

Training couples a predictor with a multi-branch auxiliary model (one branch
per excludable label) and a meta-learned weighting net trained by exact
hypergradients through a single trial step. A separate theory harness checks
the method's consistency guarantees numerically on finite scenarios with
known posteriors.

Importing the package loads no submodule. Each name is imported from the
submodule that defines it, as in `from reduxpll.training import fit_lanes`.
"""

__version__ = "0.1.0"

# the training methods, read by the CLI parser before any submodule loads;
# `training.METHODS` is this tuple
METHODS = ("reduxpll", "reduxpll-uniform-w", "proden")

# one line of a metrics file, the fields of `training.EpochMetrics`, as an
# `errors.check` schema; `report` reads it before any training code loads
METRICS_LINE = {
    "epoch": int, "train_loss": float, "val_accuracy": float, "test_accuracy": float,
    "bayes_consistency": (float, None), "pseudo_label_drift": float,
}
