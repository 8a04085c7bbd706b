"""Probabilistic thrust corrections for total-energy climb models.

Learns per-aircraft-type effective thrust profiles from radar-derived
climb data, fits a generative basis-plus-Gaussian-weights model, and
provides analytic confidence bounds on climb performance.  The package
binds no names of its own: each is imported from its module.
"""
