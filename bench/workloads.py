"""The benchmark's workloads: one `lab` experiment and config file each.

The configs live in ``bench/configs`` rather than being imported from the
test suite, so that an edit to a test cannot silently change what the
benchmark measures.  Each config file names the acceptance criterion it
mirrors in its header comment; README.md says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCES = BENCH_DIR / "references.json"

#: the references cover CLI seeds 0 .. REFERENCE_SEEDS - 1
REFERENCE_SEEDS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str   # the `lab` subcommand, equal to the config's kind

    @property
    def config(self) -> Path:
        return CONFIG_DIR / f"{self.name}.ini"


WORKLOADS = {w.name: w for w in (
    Workload("coupled-lsq", "bound-check"),
    Workload("hinge-gap", "bound-check"),
    Workload("long-horizon", "rate-fit"),
    Workload("checker-battery", "properties"),
)}


def cli_seed(seed: int, k: int) -> int:
    """The CLI seed of the k-th call of an invocation with benchmark seed ``seed``.

    The calls of one invocation take consecutive reference seeds, so that
    work that depends on the inputs, such as the adaptive quadrature of the
    hinge risk, averages out within an invocation, and no seed repeats in
    the first REFERENCE_SEEDS calls.
    """
    return (seed + k) % REFERENCE_SEEDS


def cli_argv(workload: Workload, seed: int, out_dir: Path) -> list:
    """Arguments for ``sgdlab.harness.cli.main`` for one run with CLI seed ``seed``."""
    return [workload.experiment, "--config", str(workload.config),
            "--seed", str(seed), "--out", str(out_dir)]


def csv_path(workload: Workload, out_dir: Path) -> Path:
    return out_dir / f"{workload.experiment}.csv"
