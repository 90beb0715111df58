"""Workload definitions: config text generated from a seed.

The seed sets ``base_seed`` and every ``band-limited-random`` profile seed;
sizes, schemes and amplitudes are fixed per workload.  The program only ever
sees the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    paths: int
    steps: int
    save_fields: bool
    template: str

    def config_text(self, seed: int, out_dir: str = "out") -> str:
        rng = random.Random(f"{self.name}/{seed}")
        seeds = {f"s{i}": rng.randrange(1, 2**31) for i in range(4)}
        return self.template.format(paths=self.paths, out_dir=out_dir,
                                    base_seed=rng.randrange(0, 2**31),
                                    **seeds)


# Strong-mode transformed equation with a gauged noise channel on 8^3:
# small arrays, so per-call Python overhead and the gauge terms dominate.
MC_GAUGE_8 = Workload("mc_gauge_8", paths=6, steps=64, save_fields=False,
                      template="""\
[grid]
points = 8
length = 6.283185307179586

[model]
q = 2.0
mode = strong
equation = tsee
nonlinearity = on

[noise]
count = 1
B_1 = plane-wave(amplitude=0.25, mode=1 0 0)
b_1 = constant(value=0.1) * cos(1.0)
J = band-limited-random(seed={s0}, amplitude=0.2, max_mode=1)
u0 = band-limited-random(seed={s1}, amplitude=1.0, max_mode=2)

[kernel]
form = zero

[scheme]
type = euler_maruyama
dt = 0.015625
cutoff = 2
tau_m = auto
horizon = 1.0

[monte_carlo]
paths = {paths}
base_seed = {base_seed}

[outputs]
directory = {out_dir}
stride = 1
save_fields = off
""")

# Linear equation with a trivial gauge on 32^3: the step is FFT-bound and
# Kerr, gauge and memory are all bypassed.
LINEAR_FFT_32 = Workload("linear_fft_32", paths=2, steps=8, save_fields=False,
                         template="""\
[grid]
points = 32
length = 6.283185307179586

[model]
q = 2.0
mode = weak
equation = tsee
nonlinearity = off

[noise]
count = 2
B_1 = zero
B_2 = zero
b_1 = band-limited-random(seed={s0}, amplitude=0.1, max_mode=2) * cos(1.0)
b_2 = band-limited-random(seed={s1}, amplitude=0.1, max_mode=3) * sin(2.0)
J = band-limited-random(seed={s2}, amplitude=0.2, max_mode=2)
u0 = band-limited-random(seed={s3}, amplitude=1.0, max_mode=3)

[kernel]
form = zero

[scheme]
type = euler_maruyama
dt = 0.015625
cutoff = 3
tau_m = auto
horizon = 0.125

[monte_carlo]
paths = {paths}
base_seed = {base_seed}

[outputs]
directory = {out_dir}
stride = 1
save_fields = off
""")

# Direct multiplicative-noise equation with an exponential memory kernel,
# Lie splitting and checkpoints on 16^3: the only user of the memory law,
# exp(tm), the implicit Kerr resolvent and the checkpoint writer.
MEMORY_LIE_16 = Workload("memory_lie_16", paths=1, steps=64, save_fields=True,
                         template="""\
[grid]
points = 16
length = 6.283185307179586

[model]
q = 3.0
mode = weak
equation = msee
nonlinearity = on

[noise]
count = 1
B_1 = band-limited-random(seed={s0}, amplitude=0.2, max_mode=1)
b_1 = constant(value=0.05) * sin(2.0)
J = gaussian-bump(amplitude=0.1, width=0.2, component=0)
u0 = band-limited-random(seed={s1}, amplitude=0.8, max_mode=2)

[kernel]
form = exponential
amplitude = 0.5
rate = 1.0

[scheme]
type = lie_splitting
dt = 0.0078125
cutoff = 3
tau_m = auto
horizon = 0.5

[monte_carlo]
paths = {paths}
base_seed = {base_seed}

[outputs]
directory = {out_dir}
stride = 1
save_fields = on
""")

WORKLOADS = {w.name: w for w in (MC_GAUGE_8, LINEAR_FFT_32, MEMORY_LIE_16)}
