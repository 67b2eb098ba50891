"""Compare two trees kept by tools/output_digest.py --keep, value by value.

    python3 tools/output_values.py A B

For each run (a directory of A or B) and each file in it, prints
`<run> <file> equal` where the two files have the same bytes.  Where they
do not, it prints one line per JSON key or CSV column, `<run> <file>
<key> <change>`, with the largest absolute change of that key's numbers
(0.0 where they are equal; NaN against NaN counts as equal, NaN against a
number as inf).  A nested key is written with dots (`header.units`); a
list of objects is one key per member name, over all the list's objects
(`snapshots.rho`).  A value that is not a number prints `equal` or
`differs`, and so do CSV `# key = value` header lines, under the key
`#`.  A file or run on one side only prints `only in A` or `only in B`;
keys or columns that do not match print `shape differs`.  Exits 1 if any
line is not `equal` or 0.0, else 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def leaves(value, path=""):
    """(key, value) pairs of a parsed JSON value: its numeric arrays and
    scalars under their dotted key, members of listed objects by name."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        for item in value:
            yield from leaves(item, path)
    else:
        yield path, value


def numbers(value):
    """The numbers of a nested list, flattened, or None if it holds
    anything else."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    out = []
    for item in value:
        got = numbers(item)
        if got is None:
            return None
        out += got
    return out


def change(a, b) -> str:
    """The largest absolute change from the values a to b, or `equal`,
    `differs` or `shape differs`."""
    na, nb = numbers(a), numbers(b)
    if na is None or nb is None:
        return "equal" if a == b else "differs"
    if len(na) != len(nb):
        return "shape differs"
    worst = 0.0
    for x, y in zip(na, nb):
        if math.isnan(x) and math.isnan(y) or x == y:
            continue
        d = abs(x - y)
        worst = max(worst, math.inf if math.isnan(d) else d)
    return repr(worst)


def json_changes(a: str, b: str):
    """(key, change) of two JSON texts, a key's leaves taken together."""
    grouped = {}
    for side, text in enumerate((a, b)):
        for key, value in leaves(json.loads(text)):
            grouped.setdefault(key, ([], []))[side].append(value)
    for key, (va, vb) in grouped.items():
        yield key, change(va, vb) if len(va) == len(vb) else "shape differs"


def csv_changes(a: str, b: str):
    """(column, change) of two CSV texts of this package's tables."""
    tables = []
    for text in (a, b):
        lines = text.splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        body = lines[len(header):]
        columns = body[0].split(",") if body else []
        rows = [[float(x) for x in ln.split(",")] for ln in body[1:]]
        tables.append((header, columns, rows))
    (ha, ca, ra), (hb, cb, rb) = tables
    yield "#", "equal" if ha == hb else "differs"
    if ca != cb or len(ra) != len(rb):
        yield ",".join(ca), "shape differs"
        return
    for j, column in enumerate(ca):
        yield column, change([r[j] for r in ra], [r[j] for r in rb])


def compare(a: Path, b: Path):
    """Yield the report lines of trees a and b."""
    runs = sorted({p.name for root in (a, b) for p in root.iterdir()
                   if p.is_dir()})
    for run in runs:
        files = sorted({str(p.relative_to(root / run)) for root in (a, b)
                        if (root / run).is_dir()
                        for p in (root / run).rglob("*") if p.is_file()})
        for name in files:
            pa, pb = a / run / name, b / run / name
            if not (pa.is_file() and pb.is_file()):
                yield f"{run} {name} only in {'A' if pa.is_file() else 'B'}"
                continue
            ta, tb = pa.read_bytes(), pb.read_bytes()
            if ta == tb:
                yield f"{run} {name} equal"
                continue
            ta, tb = ta.decode(), tb.decode()
            parse = csv_changes if name.endswith(".csv") else json_changes
            try:
                for key, moved in parse(ta, tb):
                    yield f"{run} {name} {key} {moved}"
            except (ValueError, IndexError):
                yield f"{run} {name} differs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="a tree of --keep")
    parser.add_argument("b", type=Path, help="another tree of --keep")
    args = parser.parse_args(argv)
    moved = False
    for line in compare(args.a, args.b):
        print(line, flush=True)
        moved |= line.rsplit(" ", 1)[-1] not in ("equal", "0.0")
    return int(moved)


if __name__ == "__main__":
    sys.exit(main())
