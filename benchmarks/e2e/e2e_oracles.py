"""Independent oracles of the end-to-end benchmark.

Each workload's outputs are checked against something that does not
share code with the path under test:

* compile — the committed golden HLS-C files (``tests/compiler/golden``);
* offload / serve — the apps' pure-Python ``spec.reference``;
* explore — a re-estimate of the best point through ``repro.hls.estimate``
  plus run-to-run identity of ``DSERun.to_dict()``;
* stream — :func:`stream_replay`, a pure-Python replay of the whole
  pipeline (chunked generator -> ``spec.reference`` -> the app's
  fold/state semantics -> partition slicing) that imports nothing from
  ``repro.streaming`` or Blaze, compared with the decoded sink file.

Oracles always run outside the timed region.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "compiler" / "golden"

#: The micro-batch source's chunk-seed mix (``repro.streaming.source``
#: documents it as plain arithmetic; restated here so the replay stays
#: independent of the module it checks).
_MIX_A, _MIX_B, _MIX_C, _MIX_MOD = 1_000_003, 7_919, 17, 2 ** 31


def golden_path(app_name: str) -> Path:
    """``tests/compiler/golden/<app>.c`` for a registered app name."""
    slug = "".join(ch.lower() if ch.isalnum() else "_" for ch in app_name)
    return GOLDEN_DIR / f"{slug}.c"


def wire_form(value):
    """What ``value`` looks like after a JSON round trip (the serve
    protocol ships results as JSON: tuples arrive as lists)."""
    return json.loads(json.dumps(value))


# ----------------------------------------------------------------------
# Explore
# ----------------------------------------------------------------------

def check_explore(build) -> list[str]:
    """Problems with one ``AcceleratorBuild`` (empty = correct)."""
    from repro.hls import estimate
    from repro.merlin.config import DesignConfig

    problems = []
    run = build.dse
    again = estimate(build.compiled.kernel,
                     DesignConfig.from_point(run.best_point), build.device)
    if not again.feasible:
        problems.append("best point re-estimates as infeasible: "
                        + again.infeasible_reason)
    elif not math.isclose(again.normalized_cycles, run.best_qor,
                          rel_tol=1e-12):
        problems.append(f"best_qor {run.best_qor!r} does not reproduce "
                        f"(re-estimate {again.normalized_cycles!r})")
    if not run.best_qor <= run.first_qor:
        problems.append(f"best_qor {run.best_qor!r} is worse than the "
                        f"first evaluated point {run.first_qor!r}")
    return problems


# ----------------------------------------------------------------------
# Stream
# ----------------------------------------------------------------------

def source_records(generator, seed: int, total: int,
                   chunk_records: int) -> list:
    """Records ``[0, total)`` of the chunked, seeded source."""
    out: list = []
    chunk = 0
    while len(out) < total:
        chunk_seed = (seed * _MIX_A + chunk * _MIX_B + _MIX_C) % _MIX_MOD
        out.extend(generator(chunk_records, chunk_seed))
        chunk += 1
    return out[:total]


def partition_slices(data: list, partitions: int) -> list[list]:
    """Even contiguous slices, at most one per element, at least one."""
    n = max(1, min(partitions, max(1, len(data))))
    base, extra = divmod(len(data), n)
    slices, start = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        slices.append(data[start:start + size])
        start += size
    return slices


def _lr_batch(spec, state, records):
    return [spec.reference(record) for record in records]


def _log_batch(spec, state, records):
    """Severity filter -> (bucket, 1) pairs -> running per-bucket count;
    emits the buckets touched this batch, sorted, with their totals."""
    touched: dict = {}
    for record in records:
        if spec.reference(record):
            bucket = record % 1000 % 7
            touched[bucket] = touched.get(bucket, 0) + 1
    out = []
    for bucket in sorted(touched):
        state[bucket] = state.get(bucket, 0) + touched[bucket]
        out.append((bucket, state[bucket]))
    return out


#: Per-app batch semantics of the replay (``aes-window`` is not a
#: benchmark class; see the README).
_BATCH_SEMANTICS = {"lr-stream": _lr_batch, "log-filter": _log_batch}


def stream_replay(spec, *, seed: int, total: int, batch_records: int,
                  partitions: int) -> list[dict]:
    """The sink rows a correct run must have written, in order."""
    step = _BATCH_SEMANTICS[spec.name]
    records = source_records(spec.generator, seed, total,
                             spec.chunk_records)
    rows, seq, state = [], 0, {}
    for batch in range(-(-total // batch_records)):
        chunk = records[batch * batch_records:(batch + 1) * batch_records]
        out = step(spec, state, chunk)
        for part, piece in enumerate(partition_slices(out, partitions)):
            rows.append({"batch": batch, "part": part, "seq": seq,
                         "records": piece})
            seq += 1
    return rows


def _untag(obj):
    """Undo the sink codec's tuple / keyed-dict tagging."""
    if isinstance(obj, list):
        return [_untag(item) for item in obj]
    if isinstance(obj, dict):
        if set(obj) == {"__t__"}:
            return tuple(_untag(item) for item in obj["__t__"])
        if set(obj) == {"__kv__"}:
            return {_untag(k): _untag(v) for k, v in obj["__kv__"]}
        raise ValueError(f"untagged object in sink row: {sorted(obj)!r}")
    return obj


def read_sink(path) -> list[dict]:
    """Decoded rows of a JSONL sink file (raises on a torn line)."""
    rows = []
    with open(path, "rb") as fh:
        for line in fh:
            row = json.loads(line)
            row["records"] = _untag(row["records"])
            rows.append(row)
    return rows


def check_stream(spec, rows: list, **geometry) -> str:
    """What is wrong with a finished stream run's sink rows (decoded
    ``read_sink`` rows or a memory sink's); empty when correct."""
    expected = stream_replay(spec, **geometry)
    if rows == expected:
        return ""
    if len(rows) != len(expected):
        return (f"{spec.name}: sink has {len(rows)} rows, "
                f"replay expects {len(expected)}")
    first = next(i for i, (a, e) in enumerate(zip(rows, expected))
                 if a != e)
    return (f"{spec.name}: sink row {first} differs from the replay "
            f"(batch {expected[first]['batch']}, "
            f"part {expected[first]['part']})")
