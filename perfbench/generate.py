"""Benchmark inputs: the worlds and workloads, and the step that writes a
world's files.

Writing a world is not part of what the benchmark times, and it runs in a
child process (``python3 perfbench/generate.py WORLD SEED OUT_DIR``) so that
its memory does not count toward the measured process's peak RSS.  The
measured process receives only the files written here.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``SyntheticSpec`` arguments of each world; the seed comes from the run.
WORLDS = {
    # the world of the quick start and the tier-1 acceptance suite
    "accept": dict(num_classes=25, dim=16, samples_per_class=200),
    # the paper's feature shape: d=640, 64 base + 16 novel classes
    "paper": dict(num_classes=80, dim=640, samples_per_class=600,
                  group_size=5),
}


@dataclass(frozen=True)
class Workload:
    world: str
    k_shot: int
    #: Episodes per ``evaluate`` call, about a second's work at this commit.
    block_episodes: int
    #: Leading blocks every untraced run completes: the fixed episode set
    #: whose reports are checked, hashed and averaged into ``accuracy_pct``.
    fixed_blocks: int
    #: Leading blocks a traced run runs, untraced and then traced.
    traced_blocks: int


#: Every workload is 5-way with 15 queries under ``PipelineConfig()``; why
#: each one is here is in README.md.
WORKLOADS = {
    "accept-1shot": Workload("accept", 1, block_episodes=4, fixed_blocks=20,
                             traced_blocks=6),
    "paper-1shot": Workload("paper", 1, block_episodes=1, fixed_blocks=17,
                            traced_blocks=6),
    "paper-5shot": Workload("paper", 5, block_episodes=1, fixed_blocks=16,
                            traced_blocks=5),
}

DATASET_FILE = "world.fsdc"
SPLIT_FILE = "world.split.json"


def import_fsdc():
    """Import the package from this checkout's ``src``, never from elsewhere.

    Raises ``SystemExit`` when the sources are missing, so a directory that
    holds only the benchmark fails without printing a result.
    """
    init = os.path.join(SRC, "fsdc", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no fsdc sources at {SRC}")
    sys.path.insert(0, SRC)
    import fsdc
    if os.path.realpath(fsdc.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported fsdc from {fsdc.__file__}, "
                         f"not from {SRC}")
    return fsdc


def write_world(world: str, seed: int, out_dir: str) -> None:
    fsdc = import_fsdc()
    ds, split, _ = fsdc.generate_synthetic(
        fsdc.SyntheticSpec(seed=seed, **WORLDS[world]))
    fsdc.save_dataset(ds, os.path.join(out_dir, DATASET_FILE))
    fsdc.save_split(split, os.path.join(out_dir, SPLIT_FILE))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORLDS:
        raise SystemExit(f"usage: generate.py {{{','.join(WORLDS)}}} SEED OUT_DIR")
    write_world(sys.argv[1], int(sys.argv[2]), sys.argv[3])
