"""qtradeoff: measurement-error / disturbance tradeoff toolkit for binary
qubit instruments.

Models two-outcome qubit measurements as quantum instruments, evaluates
worst-case error and disturbance measures, reproduces the optimal
tradeoff frontier together with the asymmetric-cloner and coherent-swap
reference curves, and simulates the interferometric realization of the
optimal instrument family including the data-analysis pipeline.

Names are imported from their own modules (``qtradeoff.measures`` and
so on); the package root holds only ``__version__`` and loads none.
"""

__version__ = "0.1.0"
