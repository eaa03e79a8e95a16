"""Momentum-contrastive text classification with label-aware hard-negative
sampling, trained end to end on a from-scratch encoder."""

__version__ = "0.1.0"
