"""A small continual-learning laboratory for studying plasticity loss.

Trains MLPs and CNNs online on non-stationary image-classification
streams (pixel-permutation and random-relabelling shifts), with a roster
of plasticity interventions: regularization toward the initial parameters,
standard L2, shrink & perturb, selective neuron reinitialization, and
layer normalization. Records online accuracies plus weight-magnitude and
effective-feature-rank diagnostics.
"""

__version__ = "0.1.0"
