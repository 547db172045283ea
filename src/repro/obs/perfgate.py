"""Performance regression gate over committed benchmark baselines.

The bench documents under version control (:data:`DEFAULT_BASELINES`)
freeze the throughput story of the repo — the batch-kernel speedup,
the engine and thread-pool overhead, the network-gateway overhead,
and the per-code cost of the registry zoo under both schedules.
:func:`run_perf_gate` re-runs each baseline's bench with the baseline's
own embedded configuration, compares per-mode throughput medians
against the committed numbers, and fails when any mode regressed by
more than a relative tolerance.  ``python -m repro perf-gate`` turns the
report into an exit code; CI runs it.

Noise policy
------------
Wall-clock benchmarks are noisy, and CI machines are not the machine
that produced the committed baseline, so the gate is deliberately
tolerant rather than falsely red:

* each bench is re-run ``k`` times (default 3) and the per-mode
  **median** frames/s is compared, discarding one-off scheduler blips;
* the comparison is **relative** with a generous default tolerance
  (30 %): only ``median < baseline * (1 - tolerance)`` fails — a real
  kernel regression (losing the ~9x batch-kernel win) blows far past that,
  while machine-to-machine variation rarely does;
* faster-than-baseline is always a pass, and a mode present in the
  baseline but missing from the re-run is an explicit failure, never a
  silent skip.

Every evaluation appends one JSON line to ``BENCH_history.jsonl``
(timestamp, commit, per-mode numbers, verdicts), growing the
measurement trajectory the committed baselines snapshot.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.codes.qc import QCLDPCCode
from repro.errors import ReproError
from repro.utils.provenance import git_commit
from repro.utils.tables import render_table

__all__ = [
    "DEFAULT_BASELINES",
    "DEFAULT_K",
    "DEFAULT_TOLERANCE",
    "TRACING_OVERHEAD_BUDGET",
    "GateReport",
    "GateVerdict",
    "PerfGateError",
    "append_history",
    "compare_to_baseline",
    "load_baseline",
    "rerun_baseline",
    "run_perf_gate",
]

#: The committed baselines ``repro perf-gate`` gates by default.
DEFAULT_BASELINES = (
    "BENCH_accel.json",
    "BENCH_net.json",
    "BENCH_net_trace.json",
    "BENCH_zoo.json",
    "BENCH_zoo_column.json",
)

#: Median-of-k re-runs per baseline.
DEFAULT_K = 3

#: Relative slowdown allowed before a mode fails (0.30 = 30 %).
DEFAULT_TOLERANCE = 0.30

#: Advisory budget for wire-tracing overhead: the traced gateway soak
#: should stay within this fraction of the untraced one's throughput.
TRACING_OVERHEAD_BUDGET = 0.10


class PerfGateError(ReproError):
    """Unusable baseline document or gate configuration."""


@dataclass(frozen=True)
class GateVerdict(object):
    """One mode's comparison against its committed baseline."""

    baseline: str
    bench: str
    mode: str
    baseline_fps: float
    observed_fps: Optional[float]
    tolerance: float

    @property
    def ratio(self) -> Optional[float]:
        """``observed / baseline`` throughput (None when not observed)."""
        if self.observed_fps is None or self.baseline_fps <= 0:
            return None
        return self.observed_fps / self.baseline_fps

    @property
    def ok(self) -> bool:
        """True when the mode ran and did not regress past tolerance."""
        ratio = self.ratio
        return ratio is not None and ratio >= 1.0 - self.tolerance

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary of the verdict."""
        return {
            "baseline": self.baseline,
            "bench": self.bench,
            "mode": self.mode,
            "baseline_fps": self.baseline_fps,
            "observed_fps": self.observed_fps,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class GateReport(object):
    """All verdicts of one gate evaluation."""

    verdicts: Tuple[GateVerdict, ...]
    k: int
    tolerance: float

    @property
    def ok(self) -> bool:
        """True when every mode of every baseline passed."""
        return all(v.ok for v in self.verdicts)

    def failed(self) -> List[GateVerdict]:
        """The failing verdicts only."""
        return [v for v in self.verdicts if not v.ok]

    def tracing_overhead(self) -> Optional[Dict[str, Any]]:
        """Advisory traced-vs-untraced gateway throughput comparison.

        Compares the ``net-gateway-traced`` mode's frames/s against the
        plain ``net-gateway`` mode's (re-run medians when available,
        committed numbers otherwise).  Returns None unless both modes
        were gated.  Advisory only — it never flips :attr:`ok` — but CI
        surfaces it so a tracing hot path that creeps past
        :data:`TRACING_OVERHEAD_BUDGET` is visible before it matters.
        """
        def _fps(mode: str) -> Optional[float]:
            for v in self.verdicts:
                if v.mode == mode:
                    return (
                        v.observed_fps
                        if v.observed_fps is not None
                        else v.baseline_fps
                    )
            return None

        plain = _fps("net-gateway")
        traced = _fps("net-gateway-traced")
        if not plain or not traced:
            return None
        overhead = max(0.0, 1.0 - traced / plain)
        return {
            "plain_fps": plain,
            "traced_fps": traced,
            "overhead": overhead,
            "budget": TRACING_OVERHEAD_BUDGET,
            "ok": overhead < TRACING_OVERHEAD_BUDGET,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready report."""
        return {
            "ok": self.ok,
            "k": self.k,
            "tolerance": self.tolerance,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "tracing_overhead": self.tracing_overhead(),
        }

    def report(self, title: str = "perf gate") -> str:
        """Aligned text table of every verdict."""
        if not self.verdicts:
            return f"{title}: (no baselines)"
        rows = []
        for v in self.verdicts:
            rows.append(
                [
                    v.bench,
                    v.mode,
                    f"{v.baseline_fps:.1f}",
                    "-" if v.observed_fps is None else f"{v.observed_fps:.1f}",
                    "-" if v.ratio is None else f"{v.ratio:.2f}x",
                    "PASS" if v.ok else "FAIL",
                ]
            )
        status = "PASS" if self.ok else "FAIL"
        text = render_table(
            ["bench", "mode", "baseline fps", "observed fps", "ratio",
             "status"],
            rows,
            title=(
                f"{title} [{status}] (median of {self.k}, "
                f"tolerance {self.tolerance:.0%})"
            ),
        )
        overhead = self.tracing_overhead()
        if overhead is not None:
            text += (
                f"\n\ntracing overhead (advisory): "
                f"{overhead['overhead']:.1%} "
                f"({overhead['traced_fps']:.1f} traced vs "
                f"{overhead['plain_fps']:.1f} plain fps; budget "
                f"{overhead['budget']:.0%}) — "
                f"{'within budget' if overhead['ok'] else 'OVER BUDGET'}"
            )
        return text


# ----------------------------------------------------------------------
# baseline loading / re-running
# ----------------------------------------------------------------------
#: Bench kinds the gate can re-run.
_BENCH_KINDS = ("accel", "net", "zoo")


def load_baseline(path: str) -> Dict[str, Any]:
    """Parse one committed bench document and validate its shape."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise PerfGateError(f"cannot read baseline {path!r}: {exc}") from None
    if not isinstance(doc, dict) or _bench_kind(doc) is None:
        kind = doc.get("bench") if isinstance(doc, dict) else None
        raise PerfGateError(
            f"baseline {path!r} is not a recognised bench document "
            f"(bench kind {kind!r}; need one of {list(_BENCH_KINDS)} "
            "with a 'rows' or 'modes' list)"
        )
    return doc


def _bench_kind(doc: Dict[str, Any]) -> Optional[str]:
    # provenance header first (bench_meta stamps it), shape as fallback
    if doc.get("bench") in _BENCH_KINDS:
        if isinstance(doc.get("rows"), list) or isinstance(
            doc.get("modes"), list
        ):
            return str(doc["bench"])
    if isinstance(doc.get("rows"), list):
        return "accel"
    return None


def baseline_fps(doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-mode frames/s recorded in a baseline document."""
    entries = doc.get("rows") or doc.get("modes") or []
    out: Dict[str, float] = {}
    for entry in entries:
        try:
            out[str(entry["mode"])] = float(entry["frames_per_s"])
        except (KeyError, TypeError, ValueError):
            raise PerfGateError(
                f"baseline entry {entry!r} lacks mode/frames_per_s"
            ) from None
    return out


def _code_from_baseline(doc: Dict[str, Any]) -> QCLDPCCode:
    """Rebuild the code a baseline was measured on from its metadata."""
    from repro.codes import wifi_code, wimax_code

    name = str(doc.get("code", ""))
    length = doc.get("n")
    rate = next(
        (tok[1:] for tok in name.split() if tok.startswith("r") and "/" in tok),
        None,
    )
    if length is None or rate is None:
        raise PerfGateError(
            f"baseline code {name!r} (n={length}) is not reconstructible; "
            "need an 'n' field and a 'r<rate>' token in the name"
        )
    if name.startswith("802.11n"):
        return wifi_code(rate, int(length))
    return wimax_code(rate, int(length))


def rerun_baseline(
    doc: Dict[str, Any],
    k: int = DEFAULT_K,
    modes: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Re-run a baseline's bench ``k`` times; per-mode median frames/s.

    The run configuration (code, traffic size, batch, seed, arithmetic)
    is taken from the baseline document itself, so the gate measures
    exactly what the baseline froze.  ``modes`` restricts the comparison
    (and, for the accel bench, the work) to a subset of mode names.
    """
    if k < 1:
        raise PerfGateError(f"k must be >= 1, got {k}")
    kind = _bench_kind(doc)
    if kind is None:
        raise PerfGateError(
            f"cannot re-run bench kind {doc.get('bench')!r}; "
            f"need one of {list(_BENCH_KINDS)}"
        )
    wanted = list(modes) if modes else list(baseline_fps(doc))
    # zoo baselines span many codes; their config embeds the registry
    # ids, so no single code is reconstructed from the header
    code = None if kind == "zoo" else _code_from_baseline(doc)
    samples: Dict[str, List[float]] = {m: [] for m in wanted}
    for _ in range(k):
        if kind == "zoo":
            from repro.serve.zoo_bench import run_zoo_bench

            cfg = dict(doc.get("config", {}))
            run = run_zoo_bench(
                code_ids=list(cfg.get("code_ids") or wanted),
                frames=int(cfg.get("frames", 32)),
                ebno_db=float(cfg.get("ebno_db", 4.0)),
                iterations=int(cfg.get("iterations", 10)),
                fixed=bool(cfg.get("fixed", False)),
                seed=int(cfg.get("seed", 11)),
                schedule=str(cfg.get("schedule", "row")),
            )
            observed = {
                r["mode"]: float(r["frames_per_s"]) for r in run["rows"]
            }
        elif kind == "accel":
            from repro.accel.bench import run_accel_bench

            run = run_accel_bench(
                code=code,
                frames=int(doc.get("frames", 128)),
                batch=int(doc.get("batch", 64)),
                ebno_db=float(doc.get("ebno_db", 2.5)),
                iterations=int(doc.get("max_iterations", 10)),
                fixed=doc.get("arithmetic", "fixed") == "fixed",
                seed=int(doc.get("seed", 5)),
                modes=tuple(wanted),
            )
            observed = {r["mode"]: float(r["frames_per_s"]) for r in run["rows"]}
        else:  # net
            from repro.net.soak import SoakConfig, run_net_soak

            run = run_net_soak(SoakConfig.from_dict(doc.get("config", {})))
            observed = {
                m["mode"]: float(m["frames_per_s"]) for m in run["modes"]
            }
        for mode in wanted:
            if mode in observed:
                samples[mode].append(observed[mode])
    return {
        mode: statistics.median(vals)
        for mode, vals in samples.items()
        if vals
    }


def compare_to_baseline(
    doc: Dict[str, Any],
    observed: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_name: str = "",
    modes: Optional[Sequence[str]] = None,
) -> List[GateVerdict]:
    """Verdicts for one baseline given observed per-mode medians."""
    kind = _bench_kind(doc) or "unknown"
    committed = baseline_fps(doc)
    wanted = list(modes) if modes else list(committed)
    verdicts = []
    for mode in wanted:
        if mode not in committed:
            raise PerfGateError(
                f"mode {mode!r} not in baseline {baseline_name!r} "
                f"(has {list(committed)})"
            )
        verdicts.append(
            GateVerdict(
                baseline=baseline_name,
                bench=kind,
                mode=mode,
                baseline_fps=committed[mode],
                observed_fps=observed.get(mode),
                tolerance=tolerance,
            )
        )
    return verdicts


def append_history(path: str, record: Dict[str, Any]) -> None:
    """Append one JSON line to the bench history file."""
    with open(path, "a") as handle:
        json.dump(record, handle, sort_keys=True)
        handle.write("\n")


def run_perf_gate(
    baselines: Sequence[str],
    k: int = DEFAULT_K,
    tolerance: float = DEFAULT_TOLERANCE,
    modes: Optional[Sequence[str]] = None,
    history_path: Optional[str] = None,
) -> GateReport:
    """Gate the current tree against committed bench baselines.

    Parameters
    ----------
    baselines:
        Paths of bench JSON documents (``BENCH_accel.json``,
        ``BENCH_net.json``, ...).
    k / tolerance:
        Median-of-k re-runs and the allowed relative slowdown.
    modes:
        Optional subset of mode names to gate (applies to every
        baseline that contains them; an unknown mode is an error).
    history_path:
        When given, one JSON line per baseline is appended there with
        the timestamp, commit, per-mode numbers, and verdicts.

    Returns
    -------
    GateReport
        ``report.ok`` is the gate outcome; callers map it to an exit
        code.
    """
    if not (0.0 <= tolerance < 1.0):
        raise PerfGateError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
    all_verdicts: List[GateVerdict] = []
    commit = git_commit()
    for path in baselines:
        doc = load_baseline(path)
        subset = None
        if modes:
            committed = baseline_fps(doc)
            subset = [m for m in modes if m in committed]
            if not subset:
                continue
        observed = rerun_baseline(doc, k=k, modes=subset)
        verdicts = compare_to_baseline(
            doc, observed, tolerance=tolerance,
            baseline_name=os.path.basename(path), modes=subset,
        )
        all_verdicts.extend(verdicts)
        if history_path:
            append_history(
                history_path,
                {
                    "ts": time.time(),
                    "commit": commit,
                    "bench": _bench_kind(doc),
                    "baseline": os.path.basename(path),
                    "baseline_commit": doc.get("commit", "unknown"),
                    "k": k,
                    "tolerance": tolerance,
                    "ok": all(v.ok for v in verdicts),
                    "modes": {
                        v.mode: {
                            "baseline_fps": v.baseline_fps,
                            "observed_fps": v.observed_fps,
                            "ratio": v.ratio,
                            "ok": v.ok,
                        }
                        for v in verdicts
                    },
                },
            )
    return GateReport(
        verdicts=tuple(all_verdicts), k=k, tolerance=tolerance
    )
