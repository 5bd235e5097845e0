"""XLF Core (paper §IV-D).

The center of Fig. 4: connects and correlates the security functions in
the three layers.  Layer functions push :class:`SecuritySignal`s onto
the :class:`CoreBus`; the :class:`CrossLayerCorrelator` joins signals
across layers into high-confidence :class:`Alert`s; the MKL and
graph-learning modules provide the "most advanced techniques" analyses
the paper assigns to the Core; and :class:`XLF` is the facade that
wires a whole smart-home world together.
"""

from repro.core.signals import Alert, Layer, SecuritySignal, Severity, SignalType
from repro.core.plugin import (
    REGISTRY,
    FunctionRegistry,
    PluginError,
    SecurityFunction,
    load_builtin_functions,
    register,
)
from repro.core.bus import CoreBus
from repro.core.correlator import CorrelationRule, CrossLayerCorrelator
from repro.core.mkl import KernelSpec, MklClassifier
from repro.core.graphlearn import CommunityModel
from repro.core.policy import TokenLifetimePolicy
from repro.core.streaming import (
    OnlineWindow,
    StreamingConfig,
    StreamingDetector,
)
from repro.core.window import SlidingWindow


def __getattr__(name):
    # XLF/XlfConfig import the security layer functions, which in turn
    # import repro.core.signals — loading them lazily breaks the cycle
    # when a security module is the first thing imported.
    if name in ("XLF", "XlfConfig"):
        from repro.core import framework

        return getattr(framework, name)
    if name in ("ResponseEngine", "ResponseAction"):
        from repro.core import response

        return getattr(response, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Layer",
    "REGISTRY",
    "FunctionRegistry",
    "PluginError",
    "SecurityFunction",
    "load_builtin_functions",
    "register",
    "SignalType",
    "Severity",
    "SecuritySignal",
    "Alert",
    "CoreBus",
    "CrossLayerCorrelator",
    "CorrelationRule",
    "MklClassifier",
    "KernelSpec",
    "CommunityModel",
    "OnlineWindow",
    "SlidingWindow",
    "StreamingConfig",
    "StreamingDetector",
    "TokenLifetimePolicy",
    "XLF",
    "XlfConfig",
]
