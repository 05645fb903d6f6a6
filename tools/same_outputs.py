"""Run the reference configs and the property checks from two checkouts and
compare their outputs byte for byte.

    python3 tools/same_outputs.py BASE CHANGE

In each checkout, with PYTHONPATH=<checkout>/src, the script runs
`python -m hetmix.cli run` on each configs/random16_*.conf, through a copy
whose `out` is a temporary directory, and `python -m hetmix.cli check`,
which runs every property check. Each command's printed output and exit
code are kept as files beside the CSVs it wrote. It then compares every
file of the two sides byte for byte, prints one line per file (same, the
first differing byte, or missing on one side) and exits 1 on any
difference. Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def _run(root: str, args: list, out: str, name: str) -> None:
    """Run `python -m hetmix.cli ARGS` in root; keep its stdout and exit code in out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "hetmix.cli", *args], cwd=root, env=env,
                          capture_output=True)
    with open(os.path.join(out, f"{name}.stdout"), "wb") as fh:
        fh.write(proc.stdout)
    with open(os.path.join(out, f"{name}.exit"), "w") as fh:
        fh.write(f"{proc.returncode}\n")


def collect(root: str, out: str) -> None:
    """Write the reference configs' CSVs and every command's output of checkout root into out."""
    for path in sorted(glob.glob(os.path.join(root, "configs", "random16_*.conf"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            text = re.sub(r"(?m)^out\s*=.*$", lambda _: f"out = {out}", fh.read())
        conf = os.path.join(out, f"{name}.conf")
        with open(conf, "w") as fh:
            fh.write(text)
        _run(root, ["run", conf], out, f"run_{name}")
        os.remove(conf)
    _run(root, ["check"], out, "check")


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(base: str, change: str) -> tuple[list, bool]:
    """One line per file of either directory, by relative path, and whether all are the same."""
    lines, same = [], True
    for name in sorted(_files(base) | _files(change)):
        paths = [os.path.join(side, name) for side in (base, change)]
        missing = [label for label, p in zip(("base", "change"), paths) if not os.path.isfile(p)]
        if missing:
            lines.append(f"{name}: missing in {missing[0]}")
            same = False
            continue
        a, b = (Path(p).read_bytes() for p in paths)
        if a == b:
            lines.append(f"{name}: same ({len(a)} bytes)")
            continue
        first = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        lines.append(f"{name}: differs at byte {first}")
        same = False
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [os.path.join(tmp, "base"), os.path.join(tmp, "change")]
        for root, out in zip((args.base, args.change), sides):
            os.makedirs(out)
            collect(os.path.abspath(root), out)
        lines, same = compare(*sides)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
