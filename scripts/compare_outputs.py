#!/usr/bin/env python3
"""Compare two output directories of run_all_scenarios.py by value.

Usage: compare_outputs.py DIR_A DIR_B

Reports (*.json) are compared as parsed trees and tables (*.csv) cell by cell.
Every number is read as a float and compared with float.hex, so two texts of
the same double ("0.5", "5e-1") agree and any other difference, the sign of
zero included, does not. Each difference is printed, and so is each file whose
values agree but whose bytes differ; the summary line also names the largest
absolute difference between two numbers and where it is. The exit code is 1
if there is any value difference, else 0 (2 on a usage error).
"""
import json
import sys
from pathlib import Path


def _key(x):
    """A float's exact bits as text; anything else as itself."""
    return float.hex(x) if isinstance(x, float) else x


def _diff_tree(a, b, where, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append((f"{where}.{key}: present in only one", where, None))
            else:
                _diff_tree(a[key], b[key], f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((f"{where}: lengths {len(a)} and {len(b)}", where, None))
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_tree(x, y, f"{where}[{i}]", out)
    elif type(a) is not type(b) or _key(a) != _key(b):
        gap = abs(a - b) if type(a) is float and type(b) is float else None
        out.append((f"{where}: {a!r} and {b!r}", where, gap))


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _read(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        # integers read as floats too: the same number may be written "8" or "8.0"
        return json.loads(text, parse_int=float)
    return [[_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


def _names(directory: Path) -> set[str]:
    return {p.name for p in directory.iterdir() if p.suffix in (".json", ".csv")}


def compare(dir_a: Path, dir_b: Path) -> tuple[list[tuple], list[str]]:
    """Every value difference between the reports and tables of two
    directories, as (text, location, absolute gap or None if not two
    numbers), and the files whose values agree but whose bytes differ."""
    names_a, names_b = _names(dir_a), _names(dir_b)
    out = [(f"{name}: present in only one directory", name, None)
           for name in sorted(names_a ^ names_b)]
    bytes_only = []
    for name in sorted(names_a & names_b):
        before = len(out)
        _diff_tree(_read(dir_a / name), _read(dir_b / name), name, out)
        if len(out) == before and (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            bytes_only.append(f"{name}: same values, different bytes")
    return out, bytes_only


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    differences, bytes_only = compare(dir_a, dir_b)
    for line in [text for text, _, _ in differences] + bytes_only:
        print(line)
    summary = f"{len(differences)} difference(s) over {len(_names(dir_a) | _names(dir_b))} file(s)"
    gaps = [(gap, where) for _, where, gap in differences if gap is not None]
    if gaps:
        gap, where = max(gaps, key=lambda item: item[0])
        summary += f"; largest absolute difference {gap!r} at {where}"
    print(summary)
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
