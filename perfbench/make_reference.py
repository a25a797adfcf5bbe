"""Rebuild reference.json: fitted and flowed parameters of every jitter variant.

    python3 perfbench/make_reference.py

Runs each fit_sweep and flow_march variant once through the CLI and stores
the parameters that workloads.check compares against.  Rebuild it only when
a change is meant to move those results, and say so where the change is
described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import run_cli, write_configs  # noqa: E402


def main() -> int:
    from qaction import cli

    reference = {"fit_sweep": {}, "flow_march": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for v in range(workloads.VARIANTS):
            for workload in reference:
                commands = workloads.WORKLOADS[workload](v)
                work = Path(tmp) / f"{workload}_{v}"
                entry = {}
                for cmd, path in zip(commands, write_configs(commands, work)):
                    out = work / "out" / cmd.name
                    code, text = run_cli(cli.main, [cmd.command, "--config", str(path),
                                                    "--out", str(out)])
                    if code != 0:
                        print(text, file=sys.stderr)
                        return 1
                    if workload == "fit_sweep":
                        entry = workloads.fit_slices(out)
                    else:
                        final = workloads.flow_final(out)
                        entry[cmd.name] = {k: final[k] for k in ("beta", *workloads.PARAMS)}
                reference[workload][str(v)] = entry
                print(f"{workload} variant {v}: {json.dumps(entry)}", flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
