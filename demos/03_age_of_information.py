"""Average age of information as the code parameter varies.

With exponential transmission delays at unit rate, the destination's
average age is 2/lambda plus a service-time penalty.  Sweeping k shows
each scheme's sweet spot: this reproduces the familiar U-shaped curves
with the coded schemes beating the uncoded baseline.
"""
from coded_aoi import MDS, Repetition, SystemParams, Uncoded, age_of

p = SystemParams(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=100)

unc = age_of(Uncoded(), p).delta
print(f"uncoded baseline (all {p.nworkers} results needed): age = {unc:.5f}\n")

print(f"{'k':>4}{'repetition':>13}{'mds':>13}")
for k in range(10, 100, 10):
    rep = age_of(Repetition(k), p).delta
    mds = age_of(MDS(k), p).delta
    print(f"{k:>4}{rep:>13.5f}{mds:>13.5f}")

best_rep = min(range(1, 101), key=lambda k: age_of(Repetition(k), p).delta)
best_mds = min(range(1, 100), key=lambda k: age_of(MDS(k), p).delta)
print(f"\nbest repetition k = {best_rep} (age {age_of(Repetition(best_rep), p).delta:.5f})")
print(f"best mds        k = {best_mds} (age {age_of(MDS(best_mds), p).delta:.5f})")
print(f"floor 2/lambda  = {2 / p.arrival_rate}")
print("""
At shift*straggling >= 1 replication cannot beat the uncoded scheme (its
best k is n), while the MDS code trims the straggler tail and closes most
of the gap to the 2/lambda floor.""")
