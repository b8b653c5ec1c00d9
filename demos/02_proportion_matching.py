"""Proportion matching on a heterogeneous star network.

Five nodes with very different null proportions calibrate a shared slope in
a single round of integer messages, then test locally.  Compare against
testing with no communication and against shipping every p-value.
"""

import starfdr as sf

net = sf.NetworkModel([
    sf.NodeModel(1 / 3, 0.5, sf.gaussian_alt(1.25)),
    sf.NodeModel(4 / 15, 0.6, sf.gaussian_alt(2.50)),
    sf.NodeModel(3 / 15, 0.7, sf.gaussian_alt(3.75)),
    sf.NodeModel(2 / 15, 0.8, sf.gaussian_alt(5.00)),
    sf.NodeModel(1 / 15, 0.9, sf.gaussian_alt(6.25)),
])
sizes = (1000, 800, 600, 400, 200)
sample = sf.sample_trial(net, sizes, mean_jitter=0.5, seed=7)
matched = sf.run_proportion_matching(sample, 0.2, adaptive=True)

# the levels of that run: each node's estimate, sent as a rounded null count
print("node   m     r0    r0_hat  sent m0  local level")
ests = [[sf.make_estimator("spacing")(p, i).value for i, p in enumerate(sample.pvalues)]]
levels = sf.estimate_levels(ests, sizes, 0.2, adaptive=True)
for i, (r0, m0, a) in enumerate(zip(levels.r0[0], levels.m0[0], levels.prop_match[0])):
    print(f"  {i}   {sizes[i]:4d}  {net.nodes[i].r0:.1f}   {r0:.4f}  {m0:7d}  alpha_hat = {a:.4f}")
print(f"network estimate r0*_hat = {levels.r0_star[0]:.4f}, slope = {levels.beta[0]:.3f}")

for name, res in [
    ("no communication", sf.run_no_comm(sample, 0.2)),
    ("proportion matching", matched),
    ("pooled BH", sf.run_pooled_bh(sample, 0.2)),
]:
    t = res.transcript
    print(f"{name:20s} FDP={res.metrics.fdp:.3f}  TDP={res.metrics.tdp:.3f}  "
          f"bits up/down = {t.bits_up}/{t.bits_down}")

print("\nproportion-matching transcript (round, dir, from, to, payload, bits):")
print(matched.transcript.serialize())
