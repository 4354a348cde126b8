"""Training state machine and the stiff-string coiling gate."""

import math

import pytest

from tsakit.errors import ParameterError
from tsakit.model import LoadCase, Material, StringSpec
from tsakit.training import (
    DEFAULT_STAGE_THRESHOLDS,
    TrainingStage,
    TrainingState,
    coiling_available,
    operating_length,
    stage_of,
)

STIFF = StringSpec(diameter=1.3, initial_length=214.3, material=Material.STIFF)
COMPLIANT = StringSpec(
    diameter=1.05, initial_length=210.0, material=Material.COMPLIANT, ply=6
)


class TestStageOf:
    def test_first_cycle_is_perpendicular(self):
        assert stage_of(0) is TrainingStage.PERPENDICULAR
        assert stage_of(5) is TrainingStage.PERPENDICULAR

    def test_stage_boundaries(self):
        assert stage_of(6) is TrainingStage.MIXED
        assert stage_of(10) is TrainingStage.MIXED
        assert stage_of(11) is TrainingStage.INLINE_UNEVEN
        assert stage_of(18) is TrainingStage.INLINE_UNEVEN
        assert stage_of(49) is TrainingStage.INLINE_UNEVEN
        assert stage_of(50) is TrainingStage.UNIFORM

    def test_monotone_and_absorbing(self):
        seen = [stage_of(cycles) for cycles in range(82)]
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        assert seen[-1] is TrainingStage.UNIFORM

    def test_custom_thresholds(self):
        assert stage_of(3, (2, 5, 9)) is TrainingStage.MIXED
        assert stage_of(9, (2, 5, 9)) is TrainingStage.UNIFORM

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            stage_of(0, (6, 6, 50))
        with pytest.raises(ParameterError):
            stage_of(0, (6, 11))
        with pytest.raises(ParameterError):
            stage_of(0, (0, 11, 50))
        with pytest.raises(ParameterError):
            stage_of(-1)

    @pytest.mark.parametrize("load", [-1.0, math.nan, math.inf])
    def test_trained_load_must_be_nonnegative_and_finite(self, load):
        with pytest.raises(ParameterError, match="trained load"):
            TrainingState(trained_load=load)

    @pytest.mark.parametrize("shortening", [-0.1, 1.0, math.nan, math.inf])
    def test_shortening_must_lie_in_unit_interval(self, shortening):
        with pytest.raises(ParameterError) as excinfo:
            TrainingState(shortening=shortening)
        assert str(excinfo.value) == "shortening fraction must lie in [0, 1)"
        assert excinfo.value.field == "shortening"


class TestCoilingGate:
    def test_compliant_never_gated(self):
        fresh = TrainingState()
        assert coiling_available(COMPLIANT, fresh, LoadCase(mass=200.0))

    def test_stiff_needs_uniform_stage(self):
        partial = TrainingState(cycles_done=18, trained_load=200.0)
        assert not coiling_available(STIFF, partial, LoadCase(mass=2900.0))

    def test_stiff_trained_at_minimum_load_covers_higher_loads(self):
        trained = TrainingState(cycles_done=50, trained_load=200.0)
        assert coiling_available(STIFF, trained, LoadCase(mass=2900.0))
        assert coiling_available(STIFF, trained, LoadCase(mass=200.0))

    def test_stiff_gate_monotone_in_load(self):
        trained = TrainingState(cycles_done=50, trained_load=500.0)
        flags = [
            coiling_available(STIFF, trained, LoadCase(mass=m))
            for m in (100.0, 300.0, 500.0, 800.0, 2000.0)
        ]
        assert flags == sorted(flags)
        assert not coiling_available(STIFF, trained, LoadCase(mass=499.0))


class TestOperatingLength:
    def test_trained_stiff_string_shortens(self):
        trained = TrainingState(cycles_done=50)
        assert operating_length(STIFF, trained) == pytest.approx(214.3 * 0.98)

    def test_untrained_keeps_initial_length(self):
        assert operating_length(STIFF, TrainingState(cycles_done=3)) == 214.3

    def test_compliant_unchanged(self):
        trained = TrainingState(cycles_done=50)
        assert operating_length(COMPLIANT, trained) == 210.0

    def test_custom_shortening(self):
        trained = TrainingState(cycles_done=50, shortening=0.05)
        assert operating_length(STIFF, trained) == pytest.approx(214.3 * 0.95)

    def test_defaults_exported(self):
        assert DEFAULT_STAGE_THRESHOLDS == (6, 11, 50)
