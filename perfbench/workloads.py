"""Seeded task lists for the benchmark workloads.

A task is one user action: one `habiro` command, or the crosscheck-then-expand
pair of crosscheck-nested.  Each task carries the argv lists the program
receives (without `--cache-dir`, which the worker appends per pass) and the
parameters the output checks need.

Sizes are drawn by stratified sampling: a class of c tasks splits its size
range into c near-equal blocks and draws one size from each.  Every seed therefore
gets the same spread of sizes, and only the members, transforms, sample
indices and order change, which keeps total cost nearly equal across seeds.
"""

from __future__ import annotations

import random

TASKS_PER_RUN = 40
# task_tail_s is the order statistic with this many tasks above it:
# with 40 tasks that is the 75th percentile.
TAIL_BEYOND = 10

TRANSFORMS = ("one-minus-q", "inv-one-plus-q", "ratio")


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of count near-equal blocks of lo..hi, ascending.

    The range must hold at least count integers, so the draws are distinct.
    """
    values = range(lo, hi + 1)
    cuts = [len(values) * i // count for i in range(count + 1)]
    return [rng.choice(values[a:b]) for a, b in zip(cuts, cuts[1:])]


def _family_argv(kind: str, params: dict[str, int]) -> list[str]:
    argv = ["--family", kind]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return argv


# (kind, parameter choices, N range, task count).  N is set so the direct
# route costs about 0.2-1.5 s per member on a 2-core VM at the seed commit.
# Each range holds at least as many values as its class has tasks.
_NESTED_CLASSES = (
    ("torus2", [{"m": 2, "ell": e} for e in range(2)], (26, 33), 7),
    ("torus2", [{"m": 3, "ell": e} for e in range(3)], (20, 26), 7),
    ("habiro-g", [{"k": 2}], (21, 28), 7),
    ("habiro-g", [{"k": 3}], (18, 23), 6),
    ("torus32t", [{"t": 2}], (45, 60), 7),
    ("torus32t", [{"t": 3}], (34, 44), 6),
)


def crosscheck_nested(rng: random.Random) -> list[dict]:
    """crosscheck then expand on one member; each member's N rises in run order.

    Rising N makes every crosscheck a cache miss that extends the stored row
    and every expand a cache hit, whatever the order the seed picks.
    """
    drafts = []
    for kind, choices, (lo, hi), count in _NESTED_CLASSES:
        for n in _stratified(rng, lo, hi, count):
            drafts.append({"family": kind, "params": rng.choice(choices), "N": n,
                           "transform": rng.choice(TRANSFORMS)})
    rng.shuffle(drafts)
    by_member: dict[str, list[dict]] = {}
    for d in drafts:
        by_member.setdefault(d["family"] + repr(d["params"]), []).append(d)
    for group in by_member.values():
        for d, n in zip(group, sorted(d["N"] for d in group)):
            d["N"] = n
    tasks = []
    for d in drafts:
        fam = _family_argv(d["family"], d["params"])
        n = str(d["N"])
        tasks.append({
            "kind": "crosscheck-expand", **d,
            "argv": [["crosscheck", *fam, "-N", n],
                     ["expand", *fam, "-N", n, "--transform", d["transform"]]],
        })
    return tasks


def _low_period_member(rng: random.Random, group: int) -> tuple[str, dict[str, int]]:
    if group == 0:
        return ("fishburn", {}) if rng.random() < 0.4 else ("torus32t", {"t": rng.randint(2, 6)})
    if group == 1:
        m = rng.randint(2, 6)
        return "torus2", {"m": m, "ell": rng.randrange(m)}
    return "habiro-g", {"k": rng.randint(2, 5)}


def _samples(rng: random.Random, top: int) -> list[int]:
    """Four increasing sample indices from 10 up to top."""
    mid = sorted(rng.sample(range(11, top), 2))
    return [10, *mid, top]


def asym_deep(rng: random.Random) -> list[dict]:
    """Theta-route asymptotics: 30 low-period members deep, 10 high-t members shallow."""
    drafts = []
    for i, top in enumerate(_stratified(rng, 90, 130, 30)):
        kind, params = _low_period_member(rng, i % 3)
        drafts.append((kind, params, _samples(rng, top)))
    for i, top in enumerate(_stratified(rng, 30, 40, 10)):
        drafts.append(("torus32t", {"t": 11 + i // 2}, _samples(rng, top)))
    rng.shuffle(drafts)
    tasks = []
    for kind, params, samples in drafts:
        transform = rng.choice(TRANSFORMS)
        tasks.append({
            "kind": "asym", "family": kind, "params": params, "transform": transform,
            "samples": samples,
            "argv": [["asym", *_family_argv(kind, params), "--transform", transform,
                      "--samples", ",".join(map(str, samples))]],
        })
    return tasks


def verify_sweep(rng: random.Random) -> list[dict]:
    """Positivity sweeps: torus32t t-windows, torus2 m-ranges over all ell, habiro-g k-ranges."""
    # Ten windows evenly spread over t = 60..150, each start moved by at most
    # 2: the cost of a window grows like t**3.5, so wider draws would make the
    # run's total depend on the seed.
    drafts = [("torus32t", "t", lo, lo + 4) for lo in
              (62 + 82 * i // 9 + rng.randint(-2, 2) for i in range(10))]
    # every M in 20..40 once, and 24, 30, 36 again: the same sizes for every
    # seed, because the median task of this workload is one of these sweeps
    drafts += [("torus2", "m", 1, hi) for hi in [*range(20, 41), 24, 30, 36]]
    for _ in range(6):
        lo = rng.randint(1, 40)
        drafts.append(("habiro-g", "k", lo, lo + rng.randint(0, 20)))
    rng.shuffle(drafts)
    return [{
        "kind": "verify", "family": kind, "varied": name, "range": [lo, hi],
        "argv": [["verify", "--family", kind, f"--{name}", f"{lo}:{hi}"]],
    } for kind, name, lo, hi in drafts]


WORKLOADS = {
    "crosscheck-nested": crosscheck_nested,
    "asym-deep": asym_deep,
    "verify-sweep": verify_sweep,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The task list of one run; the same workload and seed give the same list."""
    tasks = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    if len(tasks) != TASKS_PER_RUN:
        raise AssertionError(f"{workload} made {len(tasks)} tasks, not {TASKS_PER_RUN}")
    for i, task in enumerate(tasks):
        task["id"] = i
    return tasks
