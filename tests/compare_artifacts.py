"""Compare two `swarmplan plan` output directories.

Every file under either directory must be present in both and equal byte
for byte, with one exception: the wall_time_s column of
refine_report.csv, the one value that differs between identical runs, is
masked.  A directory that is missing or holds no files is a difference
too, so two runs that wrote nothing do not match.

Run from the command line as

    python tests/compare_artifacts.py DIR_A DIR_B

to print each file that differs and exit 1, or exit 0 when none does.
"""

import os
import sys

MASKED_FILE = "refine_report.csv"
MASKED_COLUMN = "wall_time_s"


def artifact_files(root):
    """Paths of every file under root, relative to it, sorted."""
    return sorted(
        os.path.relpath(os.path.join(base, name), root)
        for base, _, names in os.walk(root)
        for name in names
    )


def _masked(raw):
    lines = raw.decode().splitlines()
    col = lines[0].split(",").index(MASKED_COLUMN)
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[col] = "-"
        out.append(",".join(parts))
    return out


def artifact_differences(dir_a, dir_b):
    """Files that are missing from one directory or differ between the
    two, with MASKED_COLUMN of MASKED_FILE masked, after one entry for
    each directory that is missing or holds no files; [] when they
    match."""
    files_a, files_b = artifact_files(dir_a), artifact_files(dir_b)
    differ = [f"{root} (no files)" for root, files in ((dir_a, files_a), (dir_b, files_b)) if not files]
    differ += sorted(set(files_a) ^ set(files_b))
    for rel in sorted(set(files_a) & set(files_b)):
        with open(os.path.join(dir_a, rel), "rb") as f:
            a = f.read()
        with open(os.path.join(dir_b, rel), "rb") as f:
            b = f.read()
        if rel == MASKED_FILE:
            a, b = _masked(a), _masked(b)
        if a != b:
            differ.append(rel)
    return differ


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_artifacts.py DIR_A DIR_B", file=sys.stderr)
        return 2
    differ = artifact_differences(*args)
    for rel in differ:
        print(f"differs: {rel}")
    if not differ:
        print(f"{len(artifact_files(args[0]))} files match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
