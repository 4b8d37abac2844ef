"""Reliability scoring: fit a two-component 1-D Gaussian mixture to a blend
of "close to the class prototype" and "far from it" cosine similarities, and
read off each point's posterior of belonging to the high-similarity
component.

That posterior is the reliability score gamma used to pick contrastive
positives and to weight pseudo-labeled samples.
"""

import numpy as np

from seqssl import gmm

rng = np.random.default_rng(7)

# Similarities of trustworthy candidates cluster high, noise clusters low.
reliable = rng.normal(0.80, 0.05, size=60)
junk = rng.normal(0.35, 0.08, size=40)
points = np.clip(np.concatenate([reliable, junk]), -1.0, 1.0)

fit = gmm.fit_gmm(points)
print(f"component means     : {fit.means.round(4)}")
print(f"component variances : {fit.variances.round(5)}")
print(f"mixture weights     : {fit.weights.round(3)}")
print(f"EM iterations       : {len(fit.log_likelihood_trace)}")
print(f"high-similarity comp: index {fit.reliable_component}")

for value in (0.85, 0.60, 0.30):
    print(f"gamma({value:.2f}) = {gmm.reliability_many(fit, [value])[0]:.4f}")

# The fit is monotone where it should be: higher similarity, higher gamma.
grid = np.linspace(0.2, 0.95, 16)
gammas = gmm.reliability_many(fit, grid)
assert np.all(np.diff(gammas) >= -1e-12)
print("gamma is monotone over the similarity range — reliable candidates"
      " score near 1, junk near 0.")
