"""Fault injectors: bind a fault model to a site, a trigger, and a seed.

A :class:`FaultInjector` is the stateful middleman between a
:class:`~repro.faults.models.FaultModel` (how to corrupt) and an
injection site (where).  The architecture's storage models — P/R SRAMs,
the barrel shifter, the min-search register arrays — accept an injector
via ``attach_fault`` and route every access through it; the numpy
decoders take one as an ``iteration_hook``.  The injector

* owns a seeded :class:`numpy.random.Generator`, so a campaign cell
  replays deterministically;
* filters by access kind (``on={"read"}``, ``{"write"}`` or both), so a
  read-disturb SEU and a write-path defect are distinct experiments;
* counts ``accesses`` and corrupted ``injections``, which the campaign
  reports alongside the decode outcomes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.errors import FaultConfigError
from repro.faults.models import FaultModel
from repro.obs.log import EventLog, emit
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = ["FaultInjector", "ARCH_SITES", "LLR_SITE", "ALL_SITES"]

#: Injection sites wired into :class:`repro.arch.perlayer.PerLayerArch`.
ARCH_SITES = ("p_mem", "r_mem", "shifter", "minsearch")

#: The numpy-decoder site: working-LLR perturbation between iterations.
LLR_SITE = "llr"

ALL_SITES = ARCH_SITES + (LLR_SITE,)

_KINDS = frozenset(("read", "write"))


class FaultInjector(object):
    """Apply one fault model at one site, deterministically.

    Parameters
    ----------
    model:
        The fault model to apply.
    seed:
        Seed / generator for the injector's private random stream.
    on:
        Access kinds that trigger injection (default: reads only — the
        transient read-disturb case; pass ``("read", "write")`` for a
        cell defect visible on both paths).
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`; every actual
        corruption (not every access) emits a ``fault.inject`` event
        labelled with ``site``, the access kind, and the number of
        lanes flipped, so injection hits line up with decode spans on
        one timeline.
    log:
        Optional :class:`~repro.obs.log.EventLog`; the same corruptions
        are also written as ``warning``-level ``fault.inject`` records
        (site/kind/lanes fields), so injection campaigns leave a
        grep-able structured trail alongside the trace events.
    site:
        Label attached to the ``fault.inject`` events (the injection
        site name; informational only).
    """

    def __init__(
        self,
        model: FaultModel,
        seed: SeedLike = None,
        on: Iterable[str] = ("read",),
        recorder: "Optional[TraceRecorder]" = None,
        log: "Optional[EventLog]" = None,
        site: str = "",
    ) -> None:
        on = frozenset(on)
        if not on or not on <= _KINDS:
            raise FaultConfigError(
                f"on must be a non-empty subset of {sorted(_KINDS)}, got {sorted(on)}"
            )
        self.model = model
        self.rng = as_generator(seed)
        self.on = on
        self.recorder = recorder
        self.log = log
        self.site = site
        self.enabled = True
        self.accesses = 0
        self.injections = 0

    # ------------------------------------------------------------------
    # storage-model hooks (integer lane words)
    # ------------------------------------------------------------------
    def on_read(self, word: np.ndarray) -> np.ndarray:
        """Filter a word flowing out of a memory/shifter read."""
        return self._apply_word(word, "read")

    def on_write(self, word: np.ndarray) -> np.ndarray:
        """Filter a word flowing into a memory/register write."""
        return self._apply_word(word, "write")

    def _apply_word(self, word: np.ndarray, kind: str) -> np.ndarray:
        if not self.enabled or kind not in self.on:
            return word
        self.accesses += 1
        corrupted = self.model.corrupt_word(word, self.rng)
        if corrupted is not word:
            flips = int(np.count_nonzero(corrupted != word))
            self.injections += flips
            if flips:
                emit(self.recorder, self.log, "warning", "fault.inject",
                     site=self.site, kind=kind, lanes=flips)
        return corrupted

    # ------------------------------------------------------------------
    # numpy-decoder hook (float or integer working state, in place)
    # ------------------------------------------------------------------
    def iteration_hook(self, iteration: int, p: np.ndarray) -> None:
        """Perturb a decoder's working state in place (an ``iteration_hook``).

        Works for both arithmetic modes: integer P codes go through the
        model's word path, float LLRs through the LLR path.
        """
        if not self.enabled:
            return
        self.accesses += 1
        if np.issubdtype(p.dtype, np.integer):
            corrupted = self.model.corrupt_word(p, self.rng)
        else:
            corrupted = self.model.corrupt_llrs(p, self.rng)
        if corrupted is not p:
            flips = int(np.count_nonzero(corrupted != p))
            self.injections += flips
            if flips:
                emit(self.recorder, self.log, "warning", "fault.inject",
                     site=self.site, kind="iteration", iteration=iteration,
                     lanes=flips)
            p[...] = corrupted

    def reset(self) -> None:
        """Zero the access/injection counters (the RNG stream continues)."""
        self.accesses = 0
        self.injections = 0
