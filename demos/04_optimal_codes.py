"""Closed-form optimal code parameters, and why they need integer refinement.

For a large pool, minimizing age is the same as minimizing the mean
service time.  That gives the repetition fraction shift*straggling, clamped
to [1/n, 1], in closed form, and the MDS fraction through the lower Lambert
W branch.
Both are continuous answers; the integer argmin can sit one step away, so
the optimizers re-check the exact age around the rounded seed.
"""
import math

from coded_aoi import MDS, SystemParams, age_of, lambert_w_m1, opt_mds, opt_repetition

for mu in (1.0, 0.5):
    p = SystemParams(1.0, 1.0, mu, 100)
    rep = opt_repetition(p)
    mds = opt_mds(p)
    print(f"straggling rate mu = {mu}:")
    print(f"  repetition: alpha* = {rep.alpha_star:.4f} -> k* = {rep.k_star}, "
          f"age {rep.delta_star:.5f}")
    print(f"  mds:        alpha* = {mds.alpha_star:.4f} -> k* = {mds.k_star}, "
          f"age {mds.delta_star:.5f}")

# The continuous MDS optimum comes from w*exp(w) = -exp(-mu*c - 1).
x = -math.exp(-2.0)
w = lambert_w_m1(x)
print(f"\nlambert lower branch at {x:.5f}: w = {w:.10f}, "
      f"residual {abs(w * math.exp(w) - x):.2e}")
print(f"continuous fraction 1 + 1/w = {1 + 1 / w:.6f}; n=100 rounds to 68, "
      f"but the exact integer argmin is {opt_mds(SystemParams(1, 1, 1, 100)).k_star}")

# Age minimization and service-time minimization pick the same k at scale.
p = SystemParams(1.0, 1.0, 1.0, 1000)
by_age = opt_mds(p, objective="age").k_star
by_service = opt_mds(p, objective="service").k_star
print(f"\nn=1000: argmin by age = {by_age}, by mean service time = {by_service}")

# And the optimum really beats every other k.
p = SystemParams(1.0, 1.0, 1.0, 100)
best = opt_mds(p).k_star
assert all(age_of(MDS(best), p).delta <= age_of(MDS(k), p).delta for k in range(1, 100))
print(f"verified: k = {best} beats every k in 1..99 at n = 100")
