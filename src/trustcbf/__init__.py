"""Trust-adaptive control barrier function safety filters and a multi-agent simulator.

The package root imports no submodule; import each from its own module, for
instance ``from trustcbf.schema import Scenario`` or ``from trustcbf.sim import run``.
"""

__version__ = "0.1.0"
