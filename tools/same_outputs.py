"""Check that two source trees of qaction give the same outputs on the same configs.

    python tools/same_outputs.py TREE_A TREE_B [CONFIG ...] [--seed N]

Each config (by default every configs/*.json next to this script's
directory) runs as `python -m qaction <command> --config CONFIG --out DIR
--seed N` once per tree, each run in a fresh process with
PYTHONPATH=<tree>/src. The command is the config's one top-level key besides
"model"; a config without one (verify and scales may take the model alone)
names no command and is reported as one the script cannot run. The script
reports every output file that differs between the two runs or exists in one
only (the CSVs and JSON summaries), and any difference in stderr, in the exit
code, or in stdout once the output directory is replaced by "<out>". A run
that outlives TIMEOUT seconds counts as exit code "timeout". Exit status: 0
when every config runs and matches, 1 otherwise.

Standard library only, so it runs against any tree, the parent commit's too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TIMEOUT = 600.0  # seconds one run may take


def command_of(config: Path) -> str | None:
    """The config's one top-level key besides "model", or None."""
    keys = set(json.loads(config.read_text(encoding="utf-8"))) - {"model"}
    return keys.pop() if len(keys) == 1 else None


def run(tree: Path, command: str, config: Path, out: Path, seed: int) -> dict:
    """One CLI run of config against tree: exit code, streams and output files."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "qaction", command, "--config", str(config),
            "--out", str(out), "--seed", str(seed)]
    try:
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=TIMEOUT)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = "timeout", exc.stdout or b"", exc.stderr or b""
    files = {}
    if out.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    return {
        "exit code": code,
        "stdout": stdout.replace(os.fsencode(out), b"<out>"),
        "stderr": stderr,
        "files": files,
    }


def differences(a: dict, b: dict) -> list[str]:
    found = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        if name not in a["files"] or name not in b["files"]:
            found.append(f"{name} (in one tree only)")
        elif a["files"][name] != b["files"][name]:
            found.append(name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("configs", nargs="*", type=Path,
                        help="config files (default: configs/*.json)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    configs = [p.resolve() for p in args.configs] or sorted(CONFIGS.glob("*.json"))
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    for tree in trees:
        if not (tree / "src" / "qaction").is_dir():
            parser.error(f"{tree} has no src/qaction")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for i, config in enumerate(configs):
            command = command_of(config)
            if command is None:
                failed += 1
                print(f"{config.name}: CANNOT RUN: no section key names the command", flush=True)
                continue
            # equal-length output paths in both trees
            a, b = (run(tree, command, config, Path(tmp) / side / f"{i:03d}", args.seed)
                    for tree, side in zip(trees, "ab"))
            found = differences(a, b)
            failed += bool(found)
            status = "DIFFERS: " + ", ".join(found) if found else "same"
            print(f"{config.name}: {status} (exit {a['exit code']})", flush=True)
    print(f"{len(configs) - failed} of {len(configs)} configs give the same outputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
