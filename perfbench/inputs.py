"""Seeded workload inputs: campaign files and the serve request trace.

The seed only reorders or re-draws; it never changes how much work a
workload is.  The same seed always yields the same bytes.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import List

SYSTEMS = ["dawn", "isambard-ai", "lumi"]

#: Every GEMM and GEMV problem ident of Tables III-VI ("square" names
#: both the square GEMM and the square GEMV, so 13 idents are 14 types).
TABLE_PROBLEMS = [
    "square", "kn32_m", "kn_m16k", "mk32_n", "mk_n16k", "mn32_k",
    "mn_k16m", "mn_k32", "mn_m16k", "m16n", "m32_n", "n16m", "n32_m",
]

PAPER_ITERATIONS = [1, 8, 32, 64, 128]

#: tables-cold sweeps dims 1..TABLES_MAX_DIM at the table benches'
#: stride 8.  The paper's 4096 takes 13-22 s a campaign on a 2-vCPU
#: host; 2048 keeps the matrix shape, and its ~258k noise keys still
#: overflow the 2**17-entry noise memo, so repeated campaigns in one
#: process stay cold.
TABLES_MAX_DIM = 2048

#: serve keys: the problem types whose default query (max_dim 4096,
#: step 8) has 513 points.  Mixing in the 33-point ratio-16 types puts
#: the hot p50 on a mode boundary (25.7-44.0 ms across identical runs).
SERVE_PROBLEMS = [
    ("gemm", "square"), ("gemm", "kn32_m"), ("gemm", "mk32_n"),
    ("gemm", "mn32_k"), ("gemm", "mn_k32"), ("gemv", "square"),
    ("gemv", "m32_n"), ("gemv", "n32_m"),
]
#: one request in each block of this many is cold (20%)
SERVE_BLOCK = 5


def _toml_list(values) -> str:
    return "[" + ", ".join(json.dumps(v) for v in values) + "]"


def _campaign_toml(name: str, matrix: dict, sweep: dict,
                   execution: dict) -> str:
    lines = ["schema = 1", f"name = {json.dumps(name)}", "", "[matrix]"]
    lines += [f"{k} = {_toml_list(v)}" for k, v in matrix.items()]
    lines += ["", "[sweep]"]
    lines += [f"{k} = {v}" for k, v in sweep.items()]
    lines += ["", "[execution]"]
    lines += [f"{k} = {json.dumps(v)}" for k, v in execution.items()]
    return "\n".join(lines) + "\n"


def _shuffled(rng: random.Random, values) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


def tables_cold_toml(seed: int, max_dim: int = TABLES_MAX_DIM) -> str:
    """Tables III-VI: 3 systems x 5 iteration counts (15 scenarios) x
    14 problem types x 2 precisions x CPU + 3 paradigms, analytic
    backend, in process.  The seed orders the matrix axes."""
    rng = random.Random(seed)
    return _campaign_toml(
        "perfbench-tables-cold",
        {
            "systems": _shuffled(rng, SYSTEMS),
            "kernels": _shuffled(rng, ["gemm", "gemv"]),
            "problems": _shuffled(rng, TABLE_PROBLEMS),
            "precisions": _shuffled(rng, ["single", "double"]),
            "transfers": _shuffled(rng, ["once", "always", "unified"]),
            "iterations": _shuffled(rng, PAPER_ITERATIONS),
        },
        {"min_dim": 1, "max_dim": max_dim, "step": 8},
        {"backend": "analytic", "jobs": 1},
    )


#: des-campaign sweeps dims 1..4096 at this stride.  At stride 32 a
#: campaign took 10.4 s, two a run; 64 keeps the matrix shape and fits
#: four or five.
DES_STEP = 64


def des_campaign_toml(seed: int, max_dim: int = 4096) -> str:
    """3 systems x iterations {1, 128} (6 scenarios) x square GEMM+GEMV
    x 2 precisions x 3 paradigms, dims 1-4096 at stride DES_STEP, on the
    discrete-event backend through the warm pool (jobs=2)."""
    rng = random.Random(seed)
    return _campaign_toml(
        "perfbench-des-campaign",
        {
            "systems": _shuffled(rng, SYSTEMS),
            "kernels": _shuffled(rng, ["gemm", "gemv"]),
            "problems": ["square"],
            "precisions": _shuffled(rng, ["single", "double"]),
            "transfers": _shuffled(rng, ["once", "always", "unified"]),
            "iterations": _shuffled(rng, [1, 128]),
        },
        {"min_dim": 1, "max_dim": max_dim, "step": DES_STEP},
        {"backend": "des", "jobs": 2},
    )


def serve_keys() -> List[dict]:
    """The 240 distinct sweep keys: 3 systems x 8 problem types x 2
    precisions x 5 paper iteration counts."""
    return [
        {"system": system, "kernel": kernel, "problem": problem,
         "precision": precision, "iterations": iterations}
        for system in SYSTEMS
        for kernel, problem in SERVE_PROBLEMS
        for precision in ("single", "double")
        for iterations in PAPER_ITERATIONS
    ]


def serve_trace(seed: int, length: int) -> List[dict]:
    """``length`` threshold queries.  Each block of SERVE_BLOCK requests
    has exactly one that touches an unseen key (at a seeded position;
    the first request always does) while unseen keys remain, and the
    rest repeat a seen key, so every prefix of the trace is 20% cold and
    the seed changes which keys, not how many.  A repeat picks among keys
    first touched at least SERVE_BLOCK requests earlier (any seen key in
    the first block), whose sweep has finished: a repeat of a key still
    sweeping would coalesce and wait as long as a cold request, and how
    often that happened moved the p90 with the seed.  The paradigm is
    drawn per request; it shares the key's cache entry because every
    query sweeps all three."""
    rng = random.Random(seed)
    unseen = serve_keys()
    rng.shuffle(unseen)
    seen: List[dict] = []
    touched_at: List[int] = []
    trace = []
    cold_at = 0
    for i in range(length):
        if i % SERVE_BLOCK == 0 and i:
            cold_at = i + rng.randrange(SERVE_BLOCK)
        if unseen and (not seen or i == cold_at):
            key = unseen.pop()
            seen.append(key)
            touched_at.append(i)
        else:
            settled = bisect.bisect_right(touched_at, i - SERVE_BLOCK)
            key = rng.choice(seen[:settled] or seen)
        query = dict(key)
        query["paradigm"] = rng.choice(["once", "always", "unified"])
        trace.append(query)
    return trace
