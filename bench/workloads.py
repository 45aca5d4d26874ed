"""Workload table shared by the launcher (run.py) and the worker (child.py).

Standard library only: run.py imports this without importing numpy.
Why each workload exists is written down in README.md.
"""

# Pinned before numpy is imported, in the launcher and in every worker.
# With the default BLAS threads, desk training took 12.4 instead of
# 9.3 ms/slot on a 2-CPU host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

POLICIES = ("eda_nf", "dynamic_nf", "buffer_threshold", "non_cooperative")

WORKLOADS = {
    # 40 episodes on desk are about 915 slots, so learning runs for about
    # 660 slots after the 256-transition replay warm-up.
    "desk_train": {"kind": "train", "config": "configs/desk.json", "episodes": 40},
    # 40 episodes of 150 slots; warm-up is one episode.
    "solo_train": {"kind": "train", "config": "configs/single_agent.json", "episodes": 40},
    # Frozen seeded actors (no training), every formation policy, one
    # evaluation episode per cell, demand 1x..16x: the 400-slot cap binds
    # from about 8x on.
    "desk_sweep": {"kind": "sweep", "config": "configs/desk.json", "episodes": 0,
                   "policies": POLICIES,
                   "scales": tuple(float(s) for s in range(1, 17))},
}
