"""Quasi-static modeling toolkit for two-phase twisted string actuators.

A twisted string actuator converts motor rotation into linear contraction.
Driven far enough, the twisted bundle wraps onto itself and forms coils;
that second regime roughly doubles the stroke at a higher transmission
ratio. This package models both regimes with a shared parameter set,
calibrates the parameters from endpoint measurements, simulates twist
profiles (optionally with hysteresis and self-sensing), and solves the
sizing and linkage problems that come up when building actuators.

The modules are the API (tsakit.model, tsakit.calibration, tsakit.cli
and the rest); this package module re-exports nothing and imports none
of them.
"""
