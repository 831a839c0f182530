#!/usr/bin/env python3
"""Checks a bench run's JSON lines against the stored trajectory.

Usage:
  python3 tools/bench_lines_match.py STORED.json RUN_OUTPUT.txt

Rows are keyed per bench (KEYS below: "app" for ablation_async, "scenario"
for ablation_chaos, "fail_prob" for ablation_faults, "knob" for
ablation_hetero). For every row the run printed for the stored file's bench,
the last stored line with the same key must carry exactly the same fields and
values, and every stored key must appear in the run. Exits 1 and names each
mismatch otherwise; a refactor that claims bit-identical results runs this on
the full-scale bench.
"""
import json
import sys

# The column that tells a bench's rows apart.
KEYS = {
    "ablation_async": "app",
    "ablation_chaos": "scenario",
    "ablation_faults": "fail_prob",
    "ablation_hetero": "knob",
}

# Some stored lines predate schema_version, so it is not compared.
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
                if bench not in KEYS:
                    print(f"{stored_path}: no row key known for bench {bench!r}",
                          file=sys.stderr)
                    return 2
                stored[row[KEYS[bench]]] = row  # the last line per key wins
    key = KEYS[bench]

    prefix = '{"bench":"%s"' % bench
    with open(run_path) as f:
        rows = [json.loads(l) for l in f if l.startswith(prefix)]

    def strip(row):
        return {k: v for k, v in row.items() if k not in IGNORED}

    failures = []
    seen = set()
    for row in rows:
        name = row[key]
        seen.add(name)
        if name not in stored:
            failures.append(f"{name}: no stored line")
            continue
        want, got = strip(stored[name]), strip(row)
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                failures.append(f"{name}.{field}: stored {want.get(field)!r}, "
                                f"run {got.get(field)!r}")
    for name in sorted(set(stored) - seen):
        failures.append(f"{name}: the run printed no row")

    if failures:
        print("\n".join(failures))
        return 1
    print(f"{len(rows)} {bench} rows equal the stored lines in {stored_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
