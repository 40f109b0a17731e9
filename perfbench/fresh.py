"""Measurements that need a fresh interpreter; run as a child of `run.py`.

    python3 fresh.py setup SRC FILE   time `import twf` plus one cli.main call
    python3 fresh.py allen SRC SEED   compose_sets ops/s, cold cache then warm
    python3 fresh.py defects SRC SEED the longest chain `normalize` and `dot`
                                      handle, and the share of `normalize`
                                      outputs that are fixed points

Each prints one JSON object on standard output.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def setup(path: str) -> dict:
    start = time.perf_counter()
    from twf import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["strong-check", path])
    return {"setup_s": time.perf_counter() - start, "code": code}


def allen(seed: int, pairs: int = 20000) -> dict:
    """Two passes over the same seeded sample of (mask, mask) pairs."""
    from twf.allen import RelationSet, compose_sets

    rng = random.Random(f"twf-bench:allen:{seed}")
    sample = [(RelationSet(rng.randrange(1, 1 << 13)), RelationSet(rng.randrange(1, 1 << 13)))
              for _ in range(pairs)]
    rates = {}
    for label in ("cold", "warm"):
        start = time.perf_counter()
        for a, b in sample:
            compose_sets(a, b)
        rates[label] = pairs / (time.perf_counter() - start)
    return rates


def _run(main, argv: list[str]) -> tuple[int | None, str]:
    """One quiet cli.main call: (exit code, stdout); code None if it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return main(argv), out.getvalue()
    except Exception:
        return None, out.getvalue()


def defects(seed: int) -> dict:
    """Two properties the timed loop cannot count as failures.

    `max_chain_steps`: the longest chain, up to gen.DEPTH_MAX steps, on which
    `dot` and `normalize` both exit 0 (bisection; the program as first
    benchmarked raises RecursionError from 993 steps on).
    `fixpoint`: the share of `normalize` outputs on seeded structured
    documents that print back to the same text after a re-parse.
    `broken`: outputs that failed or re-parse to another document.
    """
    sys.path.insert(0, str(HERE))
    import gen
    import verify
    from twf import cli

    work = HERE / ".work" / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        def handles(steps: int) -> bool:
            doc = gen.depth_doc(seed, steps)
            path = work / f"{doc.name}.twf"
            path.write_text(doc.text, encoding="utf-8")
            return all(_run(cli.main, [command, str(path)])[0] == 0
                       for command in ("dot", "normalize"))

        lo, hi = 1, gen.DEPTH_MAX
        if handles(hi):
            lo = hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if handles(mid) else (lo, mid)

        fixed = broken = 0
        requests = gen.fixpoint_requests(seed)
        for req in requests:
            doc = req.docs[0]
            path = work / f"{doc.name}.twf"
            path.write_text(doc.text, encoding="utf-8")
            code, out = _run(cli.main, ["normalize", str(path)])
            try:
                if code != 0:
                    raise verify.PropertyError(f"normalize exited {code}")
                fixed += verify.normalize_roundtrip(out)
            except Exception:
                broken += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"max_chain_steps": lo, "fixpoint": fixed / len(requests),
            "documents": len(requests), "broken": broken}


if __name__ == "__main__":
    mode, src, arg = sys.argv[1:4]
    sys.path.insert(0, src)
    if mode == "setup":
        result = setup(arg)
    elif mode == "allen":
        result = allen(int(arg))
    else:
        result = defects(int(arg))
    print(json.dumps(result))
