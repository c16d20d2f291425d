"""bordcalc: a term calculus for the 2-dimensional bordism bicategory.

Layers:

* `termcore` -- the free symmetric monoidal bicategory term language,
* `presentations` -- the unoriented/oriented generator-and-relation data
  and a subterm rewrite engine,
* `_diagram` -- arc diagrams, movie playback, the one component walk,
* `surface` -- reconstruction of the denoted surfaces and their invariants,
* `linear` -- the one-dimensional linear-diagram calculus,
* `frobenius` -- exact evaluation into finite-dimensional Frobenius
  algebras over the rationals,
* `cli` -- the `bordcalc` command.
"""

from . import termcore, presentations, surface, linear, frobenius  # noqa: F401

__all__ = ["termcore", "presentations", "surface", "linear", "frobenius"]
__version__ = "0.1.0"
