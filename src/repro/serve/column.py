"""Batched column-layered scaled min-sum kernel.

:class:`ColumnBatchLayeredMinSumDecoder` is the batch form of
:class:`~repro.decoder.column_layered.ColumnLayeredMinSumDecoder`: the
same vertical shuffled schedule (sweep block columns; per column,
re-evaluate each incident layer and write back only that column's
edges) on the row kernel's frame-minor state and R layout (one
``(degree, z, B)`` block per layer).  It subclasses the row-layered
batch kernel and replaces only the single iteration, so the state
primitives, the early-retirement batch driver, and the
continuous-batching engine integration (its step a Python loop over
these iterations) all carry over unchanged —
``DecodeService(schedule="column")`` is just a different iteration
under the same machinery.

Bit-exactness contract: every layer re-evaluation shares the row
kernel's gather and sign parity and narrows the message computation to
block column ``k`` — the only edge written back — in the per-frame
column decoder's visitation order, so the per-frame and batch column
forms produce byte-identical results; the differential tests pin it
across the registry zoo in both arithmetic modes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.accel.plan import column_adjacency
from repro.serve.batch import BatchLayeredMinSumDecoder

__all__ = ["ColumnBatchLayeredMinSumDecoder"]


class ColumnBatchLayeredMinSumDecoder(BatchLayeredMinSumDecoder):
    """Column-layered scaled min-sum over a batch of frames.

    Accepts the same parameters as
    :class:`~repro.serve.batch.BatchLayeredMinSumDecoder`.  Columns are
    swept in natural order, layers in each column's adjacency order.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.col_edges = column_adjacency(self.plan)
        self._step_fn = None   # kernel.c runs the row schedule only

    def _iterate(self, p: np.ndarray, r: List[np.ndarray]) -> None:
        """One column-layered iteration in place on ``(n, A)`` state."""
        self._clear_fresh(p, r)
        batch = p.shape[1]
        for edges in self.col_edges:
            for l, k in edges:
                idx = self.plan.layers[l].var_idx
                s = self._layer_scratch(idx.shape[0], batch)
                # column write-back: only this block column's edge k
                p[idx[k]] = self._edge_update(p, r[l], idx, s, k)

    def _edge_update(
        self, p: np.ndarray, rl: np.ndarray, idx: np.ndarray, s, k: int
    ) -> np.ndarray:
        """Check update of one layer, written back for edge ``k`` only.

        Shares the row kernel's gather and sign parity; the two-min
        search collapses to the min over the *other* edges, which is
        exactly the reference's min2-at-argmin / min1-elsewhere choice
        for edge ``k``.  Writes ``R'[k]`` into ``rl`` and returns
        ``P'[k]`` for the caller to scatter back.
        """
        self._gather_q(p, rl, idx, s)
        if idx.shape[0] > 1:
            s.mag[k] = self._big                 # exclude edge k itself
        np.min(s.mag, axis=0, out=s.min1)
        scaled = self._scale(s.min1)
        # outgoing sign: parity of the other edges' signs
        flip = np.not_equal(s.tot, s.neg[k])
        rl[k] = np.where(flip, -scaled, scaled)
        qk = s.q[k]
        np.add(qk, rl[k], out=qk)                # P' = Q + R'
        if self.fixed:
            np.clip(qk, self._lo, self._hi, out=qk)
        return qk
