"""Reproduction of "A Fast Sketch Method for Mining User Similarities
over Fully Dynamic Graph Streams" (VOS, ICDE 2019) on PySpark.

Packages: ``core`` (VOS sketch, estimator, streaming operator),
``baselines`` (dynamic MinHash / OPH / RP, exact truth), ``streams``
(dynamic graph stream generation), ``eval`` (Fig 2 / Fig 3 harnesses),
``common`` (hashing, checkpoint prefix sums). See DESIGN.md for the module map.
"""
