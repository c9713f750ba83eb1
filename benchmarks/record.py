"""Append one labelled A/B snapshot to the performance record.

    python3 benchmarks/record.py --label NAME --commit SHA \\
                                 --base a.json [...] --head b.json [...]

``--base`` and ``--head`` are ``benchmarks/e2e/run.py --out`` files for the
parent and the change.  The snapshot's ``rows`` are exactly the rows
``benchmarks/e2e/compare.py`` prints for the same files, verdicts
included.  ``--backfilled ROWS.json`` instead appends rows transcribed
from an A/B table written down earlier, marked ``"backfilled": true``.

The record, ``benchmarks/results/BENCH_e2e.json``, is a JSON list of
``{label, commit, date, backfilled, rows}`` snapshots, oldest first;
``date`` is the day the snapshot was recorded.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

import compare  # noqa: E402

RECORD = HERE / "results" / "BENCH_e2e.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True,
                        help="the commit whose change was measured")
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--head", nargs="+")
    parser.add_argument("--backfilled", type=pathlib.Path, metavar="ROWS")
    parser.add_argument("--out", type=pathlib.Path, default=RECORD)
    args = parser.parse_args(argv)
    if bool(args.backfilled) == bool(args.base and args.head):
        parser.error("give either --base and --head, or --backfilled")
    if args.backfilled:
        rows = json.loads(args.backfilled.read_text())
    else:
        spec = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
        rows = compare.compare(compare.load(args.base),
                               compare.load(args.head), spec)
    record = json.loads(args.out.read_text()) if args.out.exists() else []
    record.append({"label": args.label, "commit": args.commit,
                   "date": datetime.date.today().isoformat(),
                   "backfilled": bool(args.backfilled),
                   "rows": rows})
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.label}: {len(rows)} row(s) appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
