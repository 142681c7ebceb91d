"""The benchmark's workloads: fixed factor sets, seeded command arguments.

A workload is one factor set plus a command mix.  One closed-loop
client runs the mix in order, each command starting when the previous
one returns, and repeats it until the run's time is spent.  The factor
set defines the workload and never changes; the seed only picks the
`sample --seed`, the `--initial-state` and a small `--tree-index`
offset, so every seed loads the same layers by the same amount.
"""

import random
from dataclasses import dataclass

# n=7 reference from the README (psi=16); the smoke mode runs every
# workload's mix on it so the benchmark's own tests cover every path.
SMOKE_FACTORS = "11,111,11111"


@dataclass(frozen=True)
class Workload:
    name: str
    factors: str
    # (command, repetitions) in pass order; short commands repeat between
    # the long ones so their samples spread over the run.  "partial" is
    # `generate --partial`; "verify" reads the lines of verify_source.
    mix: tuple[tuple[str, int], ...]
    verify_source: str
    generate_limit: int = 100
    sample_limit: int = 100


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-count",
            factors="11,1011110010111",
            mix=(("count", 1), ("partial", 2), ("generate", 1), ("verify", 1), ("partial", 2),
                 ("verify", 1), ("sample", 1), ("partial", 2), ("verify", 1), ("partial", 2),
                 ("verify", 1)),
            verify_source="generate",
        ),
        Workload(
            name="stream-n16",
            factors="1001001,10000001111",
            mix=(("generate", 1), ("count", 1), ("partial", 1), ("verify", 1), ("count", 1),
                 ("partial", 1), ("verify", 1), ("sample", 1), ("count", 1), ("partial", 1),
                 ("verify", 1), ("count", 1), ("partial", 1), ("verify", 1)),
            verify_source="generate",
            sample_limit=20,
        ),
    )
}


@dataclass(frozen=True)
class Params:
    """Seed-derived command arguments, fixed for a whole run."""

    initial_state: str
    tree_index: int
    sample_seed: int
    flip_line: int
    flip_bit: int


def params_for(seed: int, n: int) -> Params:
    rng = random.Random(seed)
    return Params(
        initial_state="".join(rng.choice("01") for _ in range(n)),
        tree_index=rng.randrange(32),
        sample_seed=rng.randrange(1 << 31),
        flip_line=rng.randrange(1 << 16),  # reduced modulo the line count
        flip_bit=rng.randrange(1 << n),
    )


def argv_for(command: str, wl: Workload, factors: str, p: Params, verify_path=None) -> list[str]:
    """The `cyclejoin` argument list of one command of the mix."""
    if command == "count":
        return ["count", "--factors", factors]
    if command == "generate":
        return [
            "generate", "--factors", factors, "--limit", str(wl.generate_limit),
            "--tree-index", str(p.tree_index), "--initial-state", p.initial_state,
        ]
    if command == "sample":
        return [
            "sample", "--factors", factors, "--limit", str(wl.sample_limit),
            "--seed", str(p.sample_seed), "--initial-state", p.initial_state,
        ]
    if command == "partial":
        return ["generate", "--factors", factors, "--partial", "--initial-state", p.initial_state]
    if command == "verify":
        return ["verify", str(verify_path)]
    raise ValueError(f"unknown command {command!r}")
