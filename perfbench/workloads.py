"""The benchmark's workloads: one `fedleak` CLI invocation each.

BENCHMARK.json lists the two that the regression check runs:

* sweep  -- all four modes. The secure-aggregation modes spend their
  time in the kd-tree queries of `infotheory` (`_kth_neighbor_radius`,
  `_strict_counts`). dfl spends it in the O(N^2) matrix path of
  `leakage` (`chebyshev_matrix`, `mi_fixed_set`), plus cached self-MI
  hits at high density.
* attack -- gradient inversion; no kNN work at all.

The two are small (about 3 s per invocation) so that one run holds
about a dozen invocations; see `host_scaled` in run.py.

sweep_sa and sweep_dfl split the sweep by layer, for attribution runs
(`--workload sweep_sa`). They are not in the regression set: three
workloads left too little run time each for steady figures.

Every option the program reads is passed explicitly, so a change of a
CLI default does not silently change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

SWEEP = "simulate"
ATTACK = "attack"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # SWEEP or ATTACK
    modes: tuple[str, ...]
    n_values: tuple[int, ...]
    densities: tuple[float, ...]
    samples: int = 1000  # sweeps only
    knn_k: int = 3  # sweeps only
    iters: int = 1000  # attack only
    corrupt: int = 0  # attack only
    # The program splits the work over every CPU (the sweeps' kd-tree
    # queries use workers=-1), so its wall time waits for the slower CPU.
    # run.py scales such a wall time by the reference kernel's wall time,
    # and a one-thread call's by the kernel's CPU time.
    parallel: bool = True

    @property
    def unit_name(self) -> str:
        """What one delivered unit of work is, for the throughput metric."""
        return "estimates" if self.command == SWEEP else "inversions"

    def argv(self, seed: int, out_dir: str) -> list[str]:
        args = [
            self.command,
            "--seed", str(seed),
            "--out-dir", out_dir,
            "--modes", ",".join(self.modes),
            "--n", ",".join(str(n) for n in self.n_values),
            "--densities", ",".join(repr(d) for d in self.densities),
        ]
        if self.command == SWEEP:
            args += ["--samples", str(self.samples), "--knn-k", str(self.knn_k)]
        else:
            args += ["--iters", str(self.iters), "--corrupt", str(self.corrupt), "--seeds", "1"]
        return args

    def expected_units(self) -> int:
        """Pair estimates (sweeps) or inversions (attack) one run must deliver."""
        if self.command == ATTACK:
            (n,) = self.n_values
            return len(self.densities) * len(self.modes) * (n - 1)
        per_density = sum(
            n if mode == "cfl" else n * (n - 1)
            for n in self.n_values
            for mode in self.modes
        )
        return per_density * len(self.densities)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            command=SWEEP,
            modes=("cfl", "cfl_sa", "dfl", "dfl_sa"),
            n_values=(8,),
            densities=(0.3, 0.9),
        ),
        Workload(
            name="sweep_sa",
            command=SWEEP,
            # cfl is included because `simulate` without it exits 3 when
            # plotting the (all-NaN) relative-leakage chart; it adds only
            # n self-MI estimates per cell against 2n(n-1) SA estimates.
            modes=("cfl", "cfl_sa", "dfl_sa"),
            n_values=(12,),
            densities=(0.3, 0.9),
        ),
        Workload(
            name="sweep_dfl",
            command=SWEEP,
            modes=("cfl", "dfl"),
            n_values=(16,),
            densities=(0.3, 0.9),
        ),
        Workload(
            name="attack",
            command=ATTACK,
            modes=("cfl", "cfl_sa", "dfl", "dfl_sa"),
            n_values=(6,),
            densities=(0.4, 0.8, 1.0),
            parallel=False,
        ),
    )
}
