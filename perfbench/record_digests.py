#!/usr/bin/env python3
"""Record answer digests for the requests that have no independent reference.

    python3 perfbench/record_digests.py --seeds 0-63 --seeds 104729

Runs, for every listed seed, the unplanted Nebel `strong-check`/`scenario`
requests and the `seqfree`/`dot` requests through `cli.main`, checks them
like the benchmark does, and merges their digests into digests.json.  The
committed table was recorded from the program as first benchmarked; a later
change that alters one of these answers then shows as a wrong answer.
Requests that raise get no digest.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import gen
import verify
from run import SRC, run_request


def seed_list(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="append", required=True, metavar="A[-B]")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from twf import cli

    checker = verify.Checker(record=True)
    table = json.loads(verify.DIGESTS.read_text()) if verify.DIGESTS.exists() else {}
    for seed in seed_list(args.seeds):
        for workload in gen.WORKLOADS:
            requests = [r for r in gen.generate(workload, seed) if verify.needs_digest(r)]
            work = Path(__file__).parent / ".work"
            work.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                for doc in gen.documents(requests).values():
                    (Path(tmp) / f"{doc.name}.twf").write_text(doc.text, encoding="utf-8")
                for req in requests:
                    argv = [req.command, *(f"{tmp}/{d.name}.twf" for d in req.docs), *req.extra]
                    code, out, err, _ = run_request(cli.main, argv)
                    if code is not None:
                        checker.check(req, code, out, err)
        print(f"seed {seed}: {len(checker.digests)} digests so far", file=sys.stderr)
    table.update(checker.digests)
    verify.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
