"""Sentiment classification for software-engineering text.

Pipeline: phrase dictionary with document-frequency IDF weights, sparse
vectorization, optional SMOTE oversampling, a budget-limited random search
over a from-scratch classifier portfolio with greedy ensemble selection, and
a stratified multi-round evaluation harness.

Each name is imported from the module that defines it; the package root
exports only ``__version__``.
"""

__version__ = "0.1.0"
