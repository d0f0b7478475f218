"""The benchmark's workloads.

A run repeats chunks.  A chunk runs every config of its workload once,
through `montecarlo.run` and `cli.render_csv`.  Chunk c of a run at seed s
uses master_seed s + c * 2**32, so chunk 0 runs at the workload seed itself
and no two chunks of seeds below 2**32 share inputs.  All configs use q=1
and the uniform base law, the ExperimentConfig default.
"""

from __future__ import annotations

from dataclasses import dataclass

# Apery's constant, montecarlo.SPANNING_TREE_LIMIT: the tree dual budget.
ZETA3 = 1.2020569031595942


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (label, ExperimentConfig fields other than master_seed)
    configs: tuple[tuple[str, dict], ...]
    # Nominal untraced wall time of one chunk.  A traced run of S seconds
    # runs round(S / (2 * chunk_seconds)) chunks, each untraced and traced,
    # so it lasts about S seconds and its counts are exact.
    chunk_seconds: float

    def families(self) -> list[tuple[str, int]]:
        """(family, n) pairs the workload builds, in first-use order."""
        seen = {}
        for _, fields in self.configs:
            for n in fields.get("n_grid") or (fields["n"],):
                seen[(fields["family"], n)] = None
        return list(seen)

    def trials_per_chunk(self) -> dict[str, int]:
        return {
            label: fields["trials"] * len(fields.get("n_grid") or (1,))
            for label, fields in self.configs
        }


CATALOG = {
    w.name: w
    for w in (
        Workload(
            name="tree-value",
            why="tree optimum over n=50..800, both sides of the "
                "partial-selection threshold: min_weight and sampling "
                "dominate; dual and patching idle",
            configs=(
                ("value", dict(family="trees", kind="value",
                               n_grid=(50, 100, 200, 400, 800), trials=8)),
            ),
            chunk_seconds=0.235,
        ),
        Workload(
            name="tree-repair",
            why="patch, dual and split trials on trees at n=400: completion, "
                "component patch, budget prefix sums and the coupling; full "
                "sorts instead of one partial selection",
            configs=(
                ("patch", dict(family="trees", kind="patch", n=400, r=20,
                               trials=4)),
                ("dual", dict(family="trees", kind="dual", n=400, budget=ZETA3,
                              r=2, trials=4)),
                ("split", dict(family="trees", kind="split", n=400, r=20, s=0.1,
                               trials=4)),
            ),
            chunk_seconds=0.35,
        ),
        Workload(
            name="matching-dual",
            why="budget duals on matchings at n=100: the assignment ladder "
                "dominates, twice per trial; tree layers idle",
            configs=(
                ("dual", dict(family="matchings", kind="dual", n=100,
                              budget=1.0, r=10, trials=4)),
            ),
            chunk_seconds=0.17,
        ),
    )
}
