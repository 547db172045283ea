"""Zoo benchmark: per-code throughput and FER across the registry.

Shared by ``python -m repro zoo-bench`` and the perf gate so the CLI,
the advisory CI artifact, and the committed ``BENCH_zoo.json`` baseline
all measure the same thing: for each selected registry code, encoded
random payloads through an AWGN channel, decoded with
:func:`~repro.decoder.api.decode_many` on the chosen batch kernel and
schedule.  One row per registry id — the zoo analogue of the paper's
table 3, where the same architecture is re-timed per (z, rate) point.

Unlike the accel bench (five datapaths, one code), the zoo bench is one
datapath, many codes: its job is to keep the whole registry's serving
cost visible, so a regression localized to one family (say, the NR
extension rows) cannot hide behind the WiMAX case study.  ``mode`` in
each row is the registry id, which is exactly the routing key the
gateway uses — the throughput you see here is the throughput that id
gets behind :meth:`~repro.serve.pool.DecodeService.from_registry`.

FER is advisory (reported, never gated): a single Eb/N0 is applied to
every code, so high-rate codes legitimately show higher FER than the
rate-1/2 floor at the default operating point.  Bit-exactness is gated:
each row's ``mismatches`` counts frames whose bits, iterations or
converged flag differ from the per-frame reference decoder of the same
schedule, and ``repro zoo-bench`` exits 1 on any.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.accel.bench import count_mismatches, generate_traffic
from repro.decoder.api import decode_many
from repro.decoder.column_layered import ColumnLayeredMinSumDecoder
from repro.decoder.layered import LayeredMinSumDecoder
from repro.errors import ServeError
from repro.utils.provenance import bench_meta

__all__ = ["DEFAULT_ZOO_IDS", "run_zoo_bench"]

#: One representative per (family, operating point) — small enough for
#: CI, broad enough that every construction path (WiMAX floor/modulo
#: scaling, 802.11n tables, NR extension rows) gets timed.
DEFAULT_ZOO_IDS = (
    "wimax-r12-576",
    "wimax-r12-2304",
    "wimax-r56-2304",
    "wifi-r12-648",
    "wifi-r34-1944",
    "nr-bg1-z16",
    "nr-bg2-z32",
)


def run_zoo_bench(
    code_ids: Optional[Sequence[str]] = None,
    frames: int = 32,
    ebno_db: float = 4.0,
    iterations: int = 10,
    fixed: bool = False,
    seed: int = 11,
    schedule: str = "row",
    registry: Optional[object] = None,
) -> Dict[str, object]:
    """Throughput/FER for each registry code; JSON-ready document.

    Each row carries ``mode`` (the registry id — so the perf gate's
    per-mode comparison machinery applies unchanged), ``frames_per_s``,
    ``time_s``, ``fer``, ``mean_iterations``, ``converged``,
    ``mismatches`` (frames that differ from the per-frame reference:
    :class:`~repro.decoder.layered.LayeredMinSumDecoder` for
    ``schedule="row"``,
    :class:`~repro.decoder.column_layered.ColumnLayeredMinSumDecoder`
    for ``"column"``; decoded outside the timed region), and the code's
    shape.  The run configuration is embedded under ``config``
    so the gate can re-run the identical measurement from the committed
    document alone.
    """
    if frames < 1:
        raise ServeError(f"frames must be >= 1, got {frames}")
    if registry is None:
        from repro.codes.registry import default_registry

        registry = default_registry()
    ids = list(code_ids) if code_ids else list(DEFAULT_ZOO_IDS)
    reference_cls = (
        ColumnLayeredMinSumDecoder if schedule == "column"
        else LayeredMinSumDecoder
    )

    rows: List[Dict[str, object]] = []
    for code_id in ids:
        entry = registry.entry(code_id)  # UnknownCodeError on a bad id
        code = registry.get(code_id)
        encoder = registry.encoder(code_id)
        llrs = generate_traffic(code, frames, ebno_db, seed, encoder=encoder)

        # warm the plan cache outside the timed region, like a serving
        # process that built its plans at startup
        decode_many(code, llrs[:1], max_iterations=1, fixed=fixed,
                    schedule=schedule)
        t0 = time.perf_counter()
        batch = decode_many(
            code, llrs, max_iterations=iterations, fixed=fixed,
            schedule=schedule,
        )
        elapsed = time.perf_counter() - t0
        reference = reference_cls(
            code, max_iterations=iterations, fixed=fixed
        )
        mismatches = count_mismatches(
            [reference.decode(f) for f in llrs],
            batch.bits, batch.iterations, batch.converged,
        )

        converged = int(np.count_nonzero(batch.converged))
        rows.append({
            "mode": code_id,
            "family": entry.family,
            "n": int(code.n),
            "k": int(code.k),
            "rate": round(float(code.rate), 6),
            "z": int(code.z),
            "frames": frames,
            "time_s": round(elapsed, 6),
            "frames_per_s": round(frames / elapsed, 3),
            "info_bits_per_s": round(frames * code.k / elapsed, 1),
            "converged": converged,
            "fer": round(1.0 - converged / frames, 6),
            "mean_iterations": round(
                float(np.mean(batch.iterations)), 3
            ),
            "mismatches": mismatches,
        })

    doc = dict(bench_meta("zoo"))
    doc.update({
        "config": {
            "code_ids": ids,
            "frames": frames,
            "ebno_db": ebno_db,
            "iterations": iterations,
            "fixed": fixed,
            "seed": seed,
            "schedule": schedule,
        },
        "arithmetic": "fixed" if fixed else "float",
        "rows": rows,
    })
    return doc
