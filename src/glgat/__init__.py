"""Traffic forecasting with global-local graph attention.

Subpackage layout:

- ``autodiff``: dense float64 tensors with reverse-mode differentiation
- ``gradcheck``: central-difference verification of analytic gradients
- ``data``: CSV ingestion, synthetic generation, windowing, normalization
- ``adjacency``: event-based and connectivity adjacency matrices
- ``encoding``: direction/distance pairwise encoding and vertex encodings
- ``layers``: graph attention layers (baseline and global-local variants)
- ``model``: the stacked forecasting model and ablation wiring
- ``training``: loss, Adam, training loop, metrics
- ``cli``: the ``glgat`` command-line interface
"""

__version__ = "0.1.0"
