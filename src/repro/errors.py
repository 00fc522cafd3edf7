"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class at the API boundary.  Hardware-emulation errors mirror
the failures a real driver would see (bad MSR address, write to a read-only
register, unsupported feature on a platform), which keeps the policy code
honest about what each platform actually provides.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Invalid experiment, platform, or policy configuration."""


class PlatformError(ReproError):
    """A request is incompatible with the selected platform."""


class UnsupportedFeatureError(PlatformError):
    """The platform lacks a required hardware feature.

    Example: requesting the power-shares policy on Skylake, which has no
    per-core power telemetry (paper section 4.2).
    """


class MSRError(ReproError):
    """Base class for MSR register-file access errors."""


class MSRAddressError(MSRError):
    """Access to an MSR address that does not exist on this platform."""


class MSRIOError(MSRError):
    """Transient I/O failure of an ``rdmsr``/``wrmsr`` (the ``EIO`` a
    flaky msr-tools access returns).  Retrying may succeed; the fault
    injector (:mod:`repro.faults`) raises these to exercise the daemon's
    containment paths."""


class MSRPermissionError(MSRError):
    """Write to a read-only MSR, or write touching reserved bits."""


class FrequencyError(ReproError):
    """A frequency request outside the platform's valid range or grid."""


class SchedulerError(ReproError):
    """Invalid pinning or time-sharing request."""


class PolicyError(ReproError):
    """A policy was asked to do something inconsistent with its contract."""


class ShareError(PolicyError):
    """Invalid share specification (non-positive shares, empty set, ...)."""


class FaultConfigError(ConfigError):
    """Invalid fault-injection scenario (rates outside [0, 1], unknown
    scenario name, crash events pointing at missing apps, ...)."""


class SimulationError(ReproError):
    """Internal simulator inconsistency (negative time, unplaced app, ...)."""
