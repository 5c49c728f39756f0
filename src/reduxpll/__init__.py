"""Partial-label learning with reduction-based pseudo-labels.

Training couples a predictor with a multi-branch auxiliary model (one branch
per excludable label) and a meta-learned weighting net trained by exact
hypergradients through a single trial step. A separate theory harness checks
the method's consistency guarantees numerically on finite scenarios with
known posteriors.

Submodules and the names below load on first use (PEP 562), so a process
pays only for the code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the training methods; `training.METHODS` is this tuple
METHODS = ("reduxpll", "reduxpll-uniform-w", "proden")

_SUBMODULES = ("cli", "data", "errors", "nets", "pseudo", "theory", "training")

# public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "data": (
            "GaussianMixture",
            "PllDataset",
            "SplitSpec",
            "corrupt_instance_dependent",
            "gen_gaussian_mixture",
            "load_csv",
            "save_csv",
            "split",
            "validate_dataset",
        ),
        "nets": ("MlpParams", "backward_ce", "forward", "hypergradient", "init_mlp", "sgd_step"),
        "pseudo": (
            "PseudoLabelState",
            "basic_pseudo",
            "combine",
            "meta_weights",
            "reduction_pseudo",
            "reduction_row",
        ),
        "theory": (
            "TheoryScenario",
            "check_tsybakov",
            "membership_J",
            "reduced_posterior",
            "verify_theorem1",
            "verify_theorem2",
        ),
        "training": ("EpochMetrics", "RunResult", "TrainConfig", "fit", "fit_lanes", "train_epoch"),
    }.items()
    for name in names
}

__all__ = [*_SOURCE, "METHODS", "__version__"]


def __getattr__(name):
    # not cached: a name reads its submodule's binding at each access
    if name in _SOURCE:
        return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
