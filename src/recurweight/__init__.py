"""Stabilized IPTW estimation for two-gap-time recurrent survival data.

The package simulates cohorts with confounded treatment assignment and
two gap times per subject, builds stabilized inverse-probability
weights, fits weighted Cox models (one row per subject) with naive
and robust sandwich variances, and aggregates Monte Carlo replications
into bias and standard-error summaries. A calibration solver maps
target marginal hazard ratios to the conditional effects that induce
them.
"""

__version__ = "0.1.0"
