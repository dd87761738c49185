"""Noisy replicator dynamics laboratory.

Subpackages: :mod:`replab.games` (matrix-game statics), :mod:`replab.ess`
(support enumeration), :mod:`replab.engine` (simplex SDE simulation),
:mod:`replab.bounds` (closed-form long-run bounds and their Monte Carlo
checks), :mod:`replab.attrition` (discrete war of attrition) and
:mod:`replab.cli` (command-line driver).
"""

__version__ = "0.1.0"

from .errors import PreconditionError, ReplabError, SimulationError, ValidationError

__all__ = [
    "PreconditionError",
    "ReplabError",
    "SimulationError",
    "ValidationError",
    "__version__",
]
