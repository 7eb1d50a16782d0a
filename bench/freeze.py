"""Known answers frozen for the default seed.

    python3 bench/freeze.py            # regenerate and compare with bench/frozen/
    python3 bench/freeze.py --write    # rewrite bench/frozen/ after a deliberate change

Regenerating runs the seeded generators and the oracle again; any
difference from the frozen inputs, known answers or their provenance is
reported and exits 1.  The workbench itself is not imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads as W

FROZEN = Path(__file__).resolve().parent / "frozen"


def frozen_path(name: str) -> Path:
    return FROZEN / f"{name}.json"


def render(name: str) -> str:
    doc = {"workload": name, "seed": W.DEFAULT_SEED,
           "items": W.generate(name, W.DEFAULT_SEED)}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def differences() -> list[str]:
    out = []
    for name in W.NAMES:
        path = frozen_path(name)
        if not path.is_file():
            out.append(f"{name}: no frozen file")
            continue
        want = json.loads(path.read_text())["items"]
        got = json.loads(render(name))["items"]
        if len(got) != len(want):
            out.append(f"{name}: {len(got)} items, frozen {len(want)}")
        for k, (g, w) in enumerate(zip(got, want)):
            if g != w:
                out.append(f"{name}: item {k} differs: {g} != frozen {w}")
                break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    if args.write:
        FROZEN.mkdir(exist_ok=True)
        for name in W.NAMES:
            frozen_path(name).write_text(render(name))
        return 0
    diffs = differences()
    for d in diffs:
        print(d, file=sys.stderr)
    print("frozen answers " + ("differ" if diffs else "match"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
