#!/usr/bin/env python3
"""Checks a bench run's JSON lines against the stored trajectory.

Usage:
  python3 tools/bench_lines_match.py STORED.json RUN_OUTPUT.txt

For every row the run printed for the stored file's bench, the last stored
line with the same "app" must carry exactly the same fields and values. Exits
1 and names each mismatch otherwise; a refactor that claims bit-identical
results runs this on the full-scale bench.
"""
import json
import sys

# The stored lines predate schema_version, so it is not compared.
IGNORED = {"schema_version"}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    stored_path, run_path = sys.argv[1:]

    stored = {}
    bench = None
    with open(stored_path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                bench = row["bench"]
                stored[row["app"]] = row  # the last line per app wins

    prefix = '{"bench":"%s"' % bench
    with open(run_path) as f:
        rows = [json.loads(l) for l in f if l.startswith(prefix)]

    def strip(row):
        return {k: v for k, v in row.items() if k not in IGNORED}

    failures = []
    seen = set()
    for row in rows:
        app = row["app"]
        seen.add(app)
        if app not in stored:
            failures.append(f"{app}: no stored line")
            continue
        want, got = strip(stored[app]), strip(row)
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                failures.append(f"{app}.{field}: stored {want.get(field)!r}, "
                                f"run {got.get(field)!r}")
    for app in sorted(set(stored) - seen):
        failures.append(f"{app}: the run printed no row")

    if failures:
        print("\n".join(failures))
        return 1
    print(f"{len(rows)} {bench} rows equal the stored lines in {stored_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
