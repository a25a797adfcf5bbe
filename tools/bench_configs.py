"""Write the configs of the benchmark workloads at one seed.

    python tools/bench_configs.py SEED DIR

Writes DIR/<name>.json for every command of the fit_sweep, flow_march and
reference_checks workloads that perfbench/workloads.py generates from SEED,
one JSON document each, as the benchmark writes them. The module is read,
not changed. The benchmark's outputs can then be compared between two
source trees:

    python tools/bench_configs.py 11 DIR
    python tools/same_outputs.py TREE_A TREE_B DIR/*.json --seed 11

Standard library only, like perfbench/workloads.py itself.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("fit_sweep", "flow_march", "reference_checks")


def workloads():
    """perfbench/workloads.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def write_configs(seed: int, out: Path) -> list[Path]:
    """One <name>.json per command of the NAMES workloads at seed; the paths written."""
    module = workloads()
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in NAMES:
        for cmd in module.WORKLOADS[name](seed):
            path = out / f"{cmd.name}.json"
            path.write_text(json.dumps(cmd.document, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    for path in write_configs(args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
