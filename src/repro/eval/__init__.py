"""Evaluation harnesses reproducing the paper's Figures 2 and 3 as tables."""
from ..baselines import BASELINES

# Every method the figures compare: VOS, then the per-user baselines.
METHODS = ("vos", *BASELINES)
