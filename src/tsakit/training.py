"""Training protocol for stiff strings.

Fresh stiff strings do not coil in an orderly way. Cycling them to full
twist under a moderate load reshapes the bundle in stages until coils
form uniformly, after which overtwisting is reliable. Stage boundaries
are cycle-count thresholds, configurable per string batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import ParameterError
from .model import LoadCase, Material, StringSpec

DEFAULT_STAGE_THRESHOLDS = (6, 11, 50)

# Fractional length lost to the permanent set once training completes.
DEFAULT_TRAINING_SHORTENING = 0.02


class TrainingStage(IntEnum):
    PERPENDICULAR = 0   # coils jut out sideways from the bundle
    MIXED = 1           # perpendicular and inline coils coexist
    INLINE_UNEVEN = 2   # coils aligned but of uneven diameter
    UNIFORM = 3         # uniform coils, ready for overtwisting


def stage_of(cycles: int, thresholds=DEFAULT_STAGE_THRESHOLDS) -> TrainingStage:
    """Stage reached after a number of completed training cycles."""
    if cycles < 0:
        raise ParameterError("cycle count must be nonnegative")
    t = tuple(thresholds)
    if len(t) != 3 or not (0 < t[0] < t[1] < t[2]):
        raise ParameterError("stage thresholds must be three ascending positive counts",
                             field="thresholds")
    if cycles >= t[2]:
        return TrainingStage.UNIFORM
    if cycles >= t[1]:
        return TrainingStage.INLINE_UNEVEN
    if cycles >= t[0]:
        return TrainingStage.MIXED
    return TrainingStage.PERPENDICULAR


@dataclass(frozen=True)
class TrainingState:
    """Progress of one string pair through the training protocol."""

    cycles_done: int = 0
    trained_load: float = 0.0  # load used during training (g)
    thresholds: tuple = DEFAULT_STAGE_THRESHOLDS
    shortening: float = DEFAULT_TRAINING_SHORTENING  # length fraction lost once trained

    def __post_init__(self):
        stage_of(self.cycles_done, self.thresholds)  # validates both fields
        if not 0 <= self.trained_load < math.inf:
            raise ParameterError("trained load must be nonnegative and finite",
                                 field="trained_load")
        if not 0.0 <= self.shortening < 1.0:
            raise ParameterError("shortening fraction must lie in [0, 1)", field="shortening")

    @property
    def stage(self) -> TrainingStage:
        return stage_of(self.cycles_done, self.thresholds)


def coiling_available(spec: StringSpec, state: TrainingState, load: LoadCase) -> bool:
    """Whether overtwisting is admissible for this string and load.

    Compliant strings coil without training. Stiff strings must have
    reached the uniform stage, and only carry loads at least as heavy as
    the one they were trained with.
    """
    if spec.material is Material.COMPLIANT:
        return True
    return state.stage is TrainingStage.UNIFORM and load.mass >= state.trained_load


def operating_length(spec: StringSpec, state: TrainingState) -> float:
    """Untwisted length after training (mm).

    Completed training leaves a permanent set of the state's shortening
    fraction on stiff strings; compliant strings are unaffected.
    """
    if spec.material is Material.STIFF and state.stage is TrainingStage.UNIFORM:
        return spec.initial_length * (1.0 - state.shortening)
    return spec.initial_length
