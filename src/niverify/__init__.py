"""Noninterference verifier built from sound symbolic execution and abstract interpretation.

The analyses come in four flavours, all over the same small imperative
language:

* single-trace bounded symbolic execution that over-approximates loops
  past a user bound instead of silently dropping them (``soundse``),
* its reduced product with an interval analysis (``redsoundse``); with no
  domain the product's step is the plain engine's step,
* a relational pair-of-traces variant for information-flow reasoning
  (``relational``),
* and the relational product with a variable-dependence analysis (the
  dependence havoc of ``driver.make_rel_engine``), which powers the
  noninterference verdict.

``driver.verify_ni`` classifies a program as Secure, Insecure (with a
replayed two-trace counter-example) or Inconclusive.
"""

from niverify.driver import AnalysisConfig, Verdict, verify_ni

__all__ = ["AnalysisConfig", "Verdict", "verify_ni"]
__version__ = "0.1.0"
