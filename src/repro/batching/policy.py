"""Shared batch-formation logic.

:class:`BatchPolicy` answers exactly two questions against a pending
buffer (:class:`~repro.core.stage.FifoBuffer` or
:class:`~repro.core.stage.PriorityBuffer`):

- :meth:`ready_at` — at what instant may the next batch be released?
  *Now* if the buffer already holds a full batch, otherwise the moment
  the current head request will have waited ``max_batch_delay``.
- :meth:`form` — pop the batch (up to ``max_batch_size`` requests,
  never spanning priority classes).

The policy is stateless: all state lives in the buffer, so one policy
object can serve every replica of a topology. Its one caller is the
queue stage's release (:class:`repro.core.stage.QueueStage`), under
both clocks.
"""

from __future__ import annotations

from typing import List, Optional

from .config import BatchingConfig

__all__ = ["BatchPolicy"]


class BatchPolicy:
    """Size-or-deadline batch formation over a pending buffer."""

    __slots__ = ("max_batch_size", "max_batch_delay")

    def __init__(self, max_batch_size: int, max_batch_delay: float) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_batch_delay < 0.0:
            raise ValueError("max_batch_delay must be non-negative")
        self.max_batch_size = max_batch_size
        self.max_batch_delay = max_batch_delay

    @classmethod
    def from_config(cls, config: BatchingConfig) -> "BatchPolicy":
        return cls(config.max_batch_size, config.max_batch_delay)

    def ready_at(self, buffer, now: float) -> Optional[float]:
        """Earliest instant a batch may be released from ``buffer``.

        ``None`` when the buffer is empty; ``now`` (or earlier) when a
        batch is releasable immediately — the buffer holds a full
        batch, or its head has already waited out ``max_batch_delay``.
        A future instant means: wait until then (or until the buffer
        fills) before forming.
        """
        if not len(buffer):
            return None
        if len(buffer) >= self.max_batch_size:
            return now
        head = buffer.head_enqueued_at()
        if head is None:  # pragma: no cover - buffers always stamp heads
            return now
        return head + self.max_batch_delay

    def form(self, buffer) -> List:
        """Pop and return the next batch (at least one request).

        Delegates membership to the buffer's ``pop_batch``: FIFO order
        for the plain buffer; for the priority buffer one scheduling
        decision picks the class and the whole batch is drawn from it,
        so batches never span priority classes.
        """
        return buffer.pop_batch(self.max_batch_size)
