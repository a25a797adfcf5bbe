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
code, or in stdout once the output directory is replaced by "<out>". For
each CSV that differs it also prints the largest relative difference
|a - b| / max(|a|, |b|) in every numeric column, and for each JSON summary
that differs the same at every numeric key path, which states the tolerance
that a change keeps. Beside each it prints the largest absolute difference
|a - b|: a column that is itself a difference of nearly equal numbers can
differ by much relative to its own size and by little in absolute terms. A
run that outlives TIMEOUT seconds counts as exit code "timeout". Exit
status: 0 when every config runs and matches, 1 otherwise.

Standard library only, so it runs against any tree, the parent commit's too.
"""

from __future__ import annotations

import argparse
import json
import math
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


def relative_difference(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal values (two NaNs too), inf where it is not finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    rel = abs(x - y) / max(abs(x), abs(y))
    return rel if math.isfinite(rel) else math.inf


def absolute_difference(x: float, y: float) -> float:
    """|x - y|: 0 for equal values (two NaNs too), inf where it is not finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y)
    return diff if math.isfinite(diff) else math.inf


def column_differences(a: bytes, b: bytes, measure=relative_difference) -> dict[str, float] | None:
    """The largest difference (by measure, relative by default) in each numeric column of two CSVs.

    Lines that start with "#" are skipped, and the first line left is the
    header. A column is numeric where both cells parse as floats; it is
    listed once one pair does. None when the headers or row counts differ.
    """

    def table(data: bytes):
        rows = [line.split(",") for line in data.decode().splitlines() if not line.startswith("#")]
        return (rows[0] if rows else []), rows[1:]

    (head_a, rows_a), (head_b, rows_b) = table(a), table(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return None
    largest: dict[str, float] = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, cell_a, cell_b in zip(head_a, row_a, row_b):
            try:
                rel = measure(float(cell_a), float(cell_b))
            except ValueError:
                continue
            largest[name] = max(largest.get(name, 0.0), rel)
    return largest


def json_differences(
    a: bytes, b: bytes, measure=relative_difference
) -> dict[str, float | None] | None:
    """The largest difference (by measure, relative by default) at each numeric key path of
    two JSON documents.

    A key path joins object keys with "." and writes the items of a list as
    "[]", so the items of one list share a path, as the rows of a CSV share a
    column. A path is numeric where both leaves are numbers (bools are not)
    and is listed once one pair is; a path in one document only maps to
    None. None when either document is not JSON.
    """
    try:
        doc_a, doc_b = json.loads(a), json.loads(b)
    except ValueError:
        return None
    largest: dict[str, float | None] = {}

    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def walk(x, y, path: str):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in list(x) + [k for k in y if k not in x]:
                sub = f"{path}.{key}" if path else str(key)
                if key in x and key in y:
                    walk(x[key], y[key], sub)
                else:
                    largest[sub] = None
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                largest[path] = None
            for item_x, item_y in zip(x, y):
                walk(item_x, item_y, f"{path}[]")
        elif number(x) and number(y) and largest.get(path, 0.0) is not None:
            largest[path] = max(largest.get(path, 0.0), measure(x, y))

    walk(doc_a, doc_b, "")
    return largest


def report(name: str, a: bytes | None, b: bytes | None) -> str | None:
    """The line that states how a differing CSV or JSON output differs, or None.

    Each numeric column or key path reads "name relative (abs absolute)".
    """
    if a is None or b is None:
        return None
    if name.endswith(".csv"):
        compare, broken = column_differences, "headers or row counts differ"
    elif name.endswith(".json"):
        compare, broken = json_differences, "not JSON"
    else:
        return None
    relative = compare(a, b)
    if relative is None:
        cells = broken
    else:
        absolute = compare(a, b, absolute_difference)
        cells = ", ".join(
            f"{key} in one tree only" if rel is None
            else f"{key} {rel:.2g} (abs {absolute[key]:.2g})"
            for key, rel in relative.items()
        )
    return f"  {name}: largest relative difference: {cells}"


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
            for name in found:
                line = report(name, a["files"].get(name), b["files"].get(name))
                if line:
                    print(line, flush=True)
    print(f"{len(configs) - failed} of {len(configs)} configs give the same outputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
