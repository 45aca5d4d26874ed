"""Per-layer tracing from outside the package.

Wraps public functions of the flysense modules through their module or
class attributes, so the package itself is unchanged.  Calls from other
modules (marl -> world.step, world -> channel.offload) and calls inside
one module (channel.offload -> channel.u2u_rate) both go through the
module namespace and therefore through the wrapper.

Spans are aggregated in memory rather than stored one by one: per name
the call count, total time and self time (total minus the time covered
by child spans), and per (parent, child) pair the call count.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Timed spans: (module, attribute path).
SPANS = (
    ("config", "load_config"), ("config", "save_config"),
    ("world", "make_world"), ("world", "step"), ("world", "select_gu"),
    ("channel", "offload"),
    ("formation", "eda_nf"), ("formation", "baseline_dynamic_nf"),
    ("formation", "baseline_buffer"), ("formation", "baseline_noncoop"),
    ("gp", "propose_point"),
    ("nn", "Mlp.forward"), ("nn", "Mlp.backward"), ("nn", "Adam.step"),
    ("nn", "soft_update"), ("nn", "save_checkpoint"),
    ("marl", "observe"), ("marl", "critic_q"), ("marl", "arbitrate"),
    ("marl", "td_targets"), ("marl", "update_agent"),
    ("marl", "build_cost_report"), ("marl", "expected_transmitters"),
    ("marl", "make_formation_fn"), ("marl", "rollout"),
    ("marl", "ReplayBuffer.sample"),
    ("marl", "Trainer.__init__"), ("marl", "Trainer.train_episode"),
    ("marl", "Trainer.evaluate"),
    ("harness", "run_train"), ("harness", "run_compare"), ("harness", "save_agents"),
    ("harness", "write_trajectory"),
    ("harness", "CsvSink.slot_row"), ("harness", "CsvSink.episode_row"),
)

# Counted but not timed: each is called tens to hundreds of thousands of
# times per run, where a timer would cost more than the call.
COUNTS = (
    ("gp", "expected_improvement"),
    ("channel", "u2u_rate"), ("channel", "interference"),
    ("channel", "point_rate"), ("channel", "validate_alloc"),
)

POLICY_FNS = ("eda_nf", "baseline_dynamic_nf", "baseline_buffer", "baseline_noncoop")
ARB_SOURCES = ("bo", "actor", "random")


def _resolve(package: str, module: str, path: str):
    owner = sys.modules[f"{package}.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers and holds what they record."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()           # (parent name or None, name) -> calls
        self.arbitration = Counter()     # source -> arbitrate() calls
        self.decisions = Counter()       # policy fn -> formation decisions
        self.relay_decisions = Counter()  # policy fn -> decisions with a relay link
        self.rollouts = 0
        self.distinct_worlds = 0
        self._stack = []                 # open spans: [name, child seconds]
        self._policy_of = {}             # formation fn -> policy kind
        self._seen_worlds = set()

    def new_iteration(self) -> None:
        """Starting worlds are compared within one workload run only."""
        self._seen_worlds.clear()

    def install(self, package: str = "flysense") -> None:
        before = {("marl", "rollout"): self._on_rollout}
        after = {("marl", "arbitrate"): self._on_arbitrate,
                 ("marl", "make_formation_fn"): self._on_make_formation_fn}
        after.update({("formation", f): self._on_decision(f) for f in POLICY_FNS})
        for module, path in SPANS:
            name = f"{module}.{path}"
            self._replace(package, module, path,
                          lambda fn, name=name, key=(module, path): self._span(
                              name, fn, before.get(key), after.get(key)))
        for module, path in COUNTS:
            self._replace(package, module, path,
                          lambda fn, name=f"{module}.{path}": self._count(name, fn))

    @staticmethod
    def _replace(package: str, module: str, path: str, make) -> None:
        owner, attr = _resolve(package, module, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if "." in path:
            return
        # Names bound by `from .x import f` elsewhere in the package.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith(package + ".") and mod is not owner:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _span(self, name, fn, before=None, after=None):
        stack, calls, total_s, self_s, edges = (
            self._stack, self.calls, self.total_s, self.self_s, self.edges)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                edges[(None if parent is None else parent[0], name)] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_arbitrate(self, args, kwargs, result) -> None:
        self.arbitration[result[1]] += 1

    def _on_decision(self, policy_fn: str):
        def hook(args, kwargs, fm) -> None:
            self.decisions[policy_fn] += 1
            if any(rx != 0 for _, rx, _ in fm.links()):
                self.relay_decisions[policy_fn] += 1
        return hook

    def _on_make_formation_fn(self, args, kwargs, fn) -> None:
        policy = args[0] if args else kwargs["policy"]
        self._policy_of[fn] = policy.kind

    def _on_rollout(self, args, kwargs) -> None:
        # rollout(w, act_fn, horizon, formation_fn, ...) is the greedy
        # evaluation episode; key it by the world it starts from and the
        # formation policy that will drive it.
        w, horizon, formation_fn = args[0], args[2], args[3]
        key = (
            self._policy_of.get(formation_fn, id(formation_fn)), horizon,
            repr(w.scenario), w.formation.key(),
            tuple((u.pos.x, u.pos.y, u.pos.z, u.buffer, u.energy_used) for u in w.uavs),
            tuple((g.pos.x, g.pos.y, g.remaining, g.demand) for g in w.gus),
        )
        self.rollouts += 1
        if key not in self._seen_worlds:
            self._seen_worlds.add(key)
            self.distinct_worlds += 1

    def summary(self) -> dict:
        """Everything recorded, as plain JSON."""
        return {
            "spans": {name: {"calls": self.calls[name],
                             "ms": self.total_s[name] * 1e3,
                             "self_ms": self.self_s[name] * 1e3}
                      for name in sorted(self.total_s)},
            "counts": {f"{m}.{p}": self.calls[f"{m}.{p}"] for m, p in COUNTS},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "arbitration": dict(self.arbitration),
            "decisions": dict(self.decisions),
            "relay_decisions": dict(self.relay_decisions),
            "rollouts": self.rollouts,
            "distinct_worlds": self.distinct_worlds,
        }
