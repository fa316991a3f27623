#!/usr/bin/env python3
"""Schema check for the bench harness's BENCH_*.json result files.

Every experiment binary that emits a JSON result must produce a document CI
(and downstream tooling) can consume without guessing:

  * a top-level object,
  * a name under ``"bench"`` (legacy) or ``"name"`` — a non-empty string,
  * at least one payload key holding the measurements: either a non-empty
    list of row objects (``"sizes"``, ``"cells"``, ...) or a non-empty
    object of scalars (``"metrics"``, ``"config"``, ...),
  * numbers that are real JSON numbers — no NaN/Infinity tokens, which
    ``fprintf("%f")`` happily emits but strict parsers reject.

Usage: validate_bench_json.py FILE [FILE...]
Exits non-zero on the first malformed file. Stdlib only.
"""

import json
import sys


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return 1


# The failover file feeds CI's E16 gate (restore latency, exactly-once
# execution, warm start); pin its fields so a rename cannot silently turn
# the gate into a no-op.
FAILOVER_TOP_KEYS = {
    "nodes": int,
    "tasks": int,
    "warm_start_ok": bool,
    "snapshot_vs_unbatched_speedup": (int, float),
}
FAILOVER_CELL_KEYS = {
    "mode": str,
    "detect_s": (int, float),
    "restore_s": (int, float),
    "reconverge_s": (int, float),
    "completion_rate": (int, float),
    "lost_tasks": int,
    "duplicate_executions": int,
    "known_at_promotion": int,
    "capacity": int,
    "tasks_recovered_from_snapshot": int,
    "app_known": bool,
}
FAILOVER_MODES = {"snapshot", "heartbeat-batched", "heartbeat-unbatched"}


def validate_failover(path, doc):
    for key, kind in FAILOVER_TOP_KEYS.items():
        value = doc.get(key)
        if kind is not bool and isinstance(value, bool):
            return fail(path, f'failover: "{key}" must not be a bool')
        if not isinstance(value, kind):
            return fail(path, f'failover: "{key}" missing or not {kind}')
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        return fail(path, 'failover: "cells" must be a non-empty list')
    modes = set()
    for i, cell in enumerate(cells):
        for key, kind in FAILOVER_CELL_KEYS.items():
            value = cell.get(key)
            if kind is not bool and isinstance(value, bool):
                return fail(path, f"failover: cells[{i}].{key} must not be a bool")
            if not isinstance(value, kind):
                return fail(path, f"failover: cells[{i}].{key} missing or not {kind}")
        modes.add(cell["mode"])
    if not FAILOVER_MODES <= modes:
        return fail(path, "failover: cells must cover the snapshot, "
                          "heartbeat-batched, and heartbeat-unbatched modes")
    return 0


# The bsp_churn file feeds CI's E17 gate (checkpoint dedup ratio, wire-byte
# reduction vs whole-image shipping, restart latency under churn); pin its
# fields so a rename cannot silently turn the gate into a no-op.
BSP_CHURN_TOP_KEYS = {
    "nodes": int,
    "ranks": int,
    "supersteps": int,
    "image_mib": (int, float),
    "dedup_ratio_best": (int, float),
    "wire_reduction_best": (int, float),
    "restart_speedup": (int, float),
    "gates_ok": bool,
}
BSP_CHURN_CELL_KEYS = {
    "cell": str,
    "chunker": str,
    "chunk_kib": int,
    "compress": bool,
    "dedup": bool,
    "replicate_k": int,
    "converged": bool,
    "dedup_ratio": (int, float),
    "bytes_on_wire": int,
    "wire_bytes_per_logical": (int, float),
    "restores": int,
    "restart_ms": (int, float),
    "checkpoints": int,
    "rollbacks": int,
    "elapsed_min": (int, float),
}


def validate_bsp_churn(path, doc):
    for key, kind in BSP_CHURN_TOP_KEYS.items():
        value = doc.get(key)
        if kind is not bool and isinstance(value, bool):
            return fail(path, f'bsp_churn: "{key}" must not be a bool')
        if not isinstance(value, kind):
            return fail(path, f'bsp_churn: "{key}" missing or not {kind}')
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        return fail(path, 'bsp_churn: "cells" must be a non-empty list')
    has_baseline = False
    has_dedup_lz = False
    has_cdc = False
    for i, cell in enumerate(cells):
        for key, kind in BSP_CHURN_CELL_KEYS.items():
            value = cell.get(key)
            if kind is not bool and isinstance(value, bool):
                return fail(path, f"bsp_churn: cells[{i}].{key} must not be a bool")
            if not isinstance(value, kind):
                return fail(path, f"bsp_churn: cells[{i}].{key} missing or not {kind}")
        if cell["chunker"] not in ("fixed", "cdc"):
            return fail(path, f"bsp_churn: cells[{i}].chunker must be fixed or cdc")
        has_baseline = has_baseline or not cell["dedup"]
        has_dedup_lz = has_dedup_lz or (cell["dedup"] and cell["compress"])
        has_cdc = has_cdc or cell["chunker"] == "cdc"
    if not (has_baseline and has_dedup_lz and has_cdc):
        return fail(path, "bsp_churn: cells must cover the whole-image "
                          "baseline, a dedup+compress cell, and a CDC cell")
    return 0


# The economy file feeds CI's E18 gate (fair-share deviation, deadline
# hit-rate vs the FIFO and load-only baselines, checkpoint-assisted
# preemption with exactly-once execution); pin its fields so a rename
# cannot silently turn the gate into a no-op.
ECONOMY_TOP_KEYS = {
    "nodes": int,
    "small_tenants": int,
    "tasks_per_small_tenant": int,
    "fair_share_max_dev": (int, float),
}
ECONOMY_CELL_KEYS = {
    "mode": str,
    "deadline_hit_rate": (int, float),
    "share_max_dev": (int, float),
    "small_makespan_s": (int, float),
    "preemptions": int,
    "tasks_preempted": int,
    "warm_restores": int,
    "admission_rejected": int,
    "lost_tasks": int,
    "duplicate_executions": int,
    "all_done": bool,
}
ECONOMY_MODES = {"economy", "fifo", "load-only"}


def validate_economy(path, doc):
    for key, kind in ECONOMY_TOP_KEYS.items():
        value = doc.get(key)
        if kind is not bool and isinstance(value, bool):
            return fail(path, f'economy: "{key}" must not be a bool')
        if not isinstance(value, kind):
            return fail(path, f'economy: "{key}" missing or not {kind}')
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        return fail(path, 'economy: "cells" must be a non-empty list')
    modes = set()
    for i, cell in enumerate(cells):
        for key, kind in ECONOMY_CELL_KEYS.items():
            value = cell.get(key)
            if kind is not bool and isinstance(value, bool):
                return fail(path, f"economy: cells[{i}].{key} must not be a bool")
            if not isinstance(value, kind):
                return fail(path, f"economy: cells[{i}].{key} missing or not {kind}")
        modes.add(cell["mode"])
    if not ECONOMY_MODES <= modes:
        return fail(path, "economy: cells must cover the economy, fifo, and "
                          "load-only modes")
    return 0


def validate(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # parse_constant rejects NaN/Infinity/-Infinity, which json.load
            # would otherwise accept silently.
            doc = json.load(handle, parse_constant=lambda token: (_ for _ in ()).throw(
                ValueError(f"non-finite number {token!r}")))
    except (OSError, ValueError) as error:
        return fail(path, f"unreadable or invalid JSON: {error}")

    if not isinstance(doc, dict):
        return fail(path, f"top level must be an object, got {type(doc).__name__}")

    name = doc.get("bench", doc.get("name"))
    if not isinstance(name, str) or not name:
        return fail(path, 'missing a non-empty "bench" or "name" string key')

    payloads = 0
    for key, value in doc.items():
        if isinstance(value, list):
            if not value:
                return fail(path, f'"{key}" is an empty list')
            for i, row in enumerate(value):
                if not isinstance(row, dict) or not row:
                    return fail(path, f'"{key}"[{i}] must be a non-empty object')
            payloads += 1
        elif isinstance(value, dict):
            if not value:
                return fail(path, f'"{key}" is an empty object')
            payloads += 1
    if payloads == 0:
        return fail(path, "no measurement payload (no list-of-rows or object key)")

    if name == "failover" and validate_failover(path, doc):
        return 1
    if name == "bsp_churn" and validate_bsp_churn(path, doc):
        return 1
    if name == "economy" and validate_economy(path, doc):
        return 1

    print(f"{path}: ok ({name!r}, {payloads} payload key(s))")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return max(validate(path) for path in argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
