"""repro — Hybrid gate-pulse model for variational quantum algorithms.

A from-scratch reproduction of Liang et al., "Hybrid Gate-Pulse Model for
Variational Quantum Algorithms" (DAC 2023), including the gate-level and
pulse-level substrates it depends on.

The most commonly used names are re-exported here; the subpackages
(``repro.core``, ``repro.backends``, ``repro.service``, ...) hold the rest.

Logging: every module logs under the ``repro`` root logger
(``repro.service``, ``repro.telemetry``, ...), which carries a
:class:`logging.NullHandler` — the library never calls ``basicConfig``
or installs real handlers, so importing it cannot hijack an
application's logging setup.  To see repro's warnings, configure your
own handler::

    logging.getLogger("repro").addHandler(logging.StreamHandler())
    logging.getLogger("repro").setLevel(logging.WARNING)
"""

import logging as _logging

from repro.circuits import Parameter, ParameterExpression, QuantumCircuit
from repro.simulators import (
    DensityMatrix,
    Statevector,
    circuit_to_unitary,
    simulate_statevector,
)
from repro.noise import NoiseModel, ReadoutError

# library logging etiquette: a NullHandler on the package root so
# "no logging configured" means silence, not lastResort stderr spam
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "Parameter",
    "ParameterExpression",
    "QuantumCircuit",
    "DensityMatrix",
    "Statevector",
    "circuit_to_unitary",
    "simulate_statevector",
    "NoiseModel",
    "ReadoutError",
    "__version__",
]
