"""Random integers weighted by multiplicative functions.

Exact sieving and sampling of the measure P(n) = alpha(n)/S(x) on [1, x],
extraction of prime-factor statistics, the permutation-side Ewens
machinery, and quantitative comparison against the limiting laws (normal,
Poisson-Dirichlet, gamma, geometric-type) and explicit asymptotic
predictors.
"""

__version__ = "0.1.0"
