"""EMIT materialization specifications (Extensions 4–7).

:class:`EmitSpec` captures the paper's proposed ``EMIT`` clause:

- ``EMIT STREAM``                      -> ``EmitSpec(stream=True)``
- ``EMIT AFTER WATERMARK``             -> ``EmitSpec(after_watermark=True)``
- ``EMIT STREAM AFTER WATERMARK``      -> both flags
- ``EMIT [STREAM] AFTER DELAY d``      -> ``after_delay=d``
- ``... AFTER DELAY d AND AFTER WATERMARK`` -> combined (Extension 7)

``stream`` records *how* the query asks for the result TVR to be rendered
(changelog vs. table); ``after_watermark``/``after_delay`` control *when*
rows materialize. The textual parser for the clause lives in
``repro.sqlext.parser``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import timedelta
from typing import Optional


@dataclass(frozen=True)
class EmitSpec:
    """Materialization control for one query (Extensions 4–7).

    Attributes
    ----------
    stream:
        The requested rendering: the changelog of the result TVR (with
        ``undo``/``ptime``/``ver`` metadata columns) rather than a table
        snapshot. No engine code reads it, and only the parser's tests do:
        a ``StreamResult`` always carries both renderings.
    after_watermark:
        Materialize a group's rows only once its input is complete, i.e.
        when the watermark passes the group's event-time upper bound.
    after_delay:
        Materialize a changed group only ``after_delay`` after the first
        change since its previous materialization (periodic coalescing).
    allowed_lateness:
        Grace period after completeness during which late changes still
        produce (late) panes rather than being dropped. The paper notes
        lateness is needed in practice but out of its scope; 0 reproduces
        the paper's semantics exactly (late inputs to a complete group are
        dropped, Extension 2).
    """

    stream: bool = False
    after_watermark: bool = False
    after_delay: Optional[timedelta] = None
    allowed_lateness: timedelta = field(default_factory=timedelta)

    def __post_init__(self) -> None:
        if self.after_delay is not None and self.after_delay <= timedelta(0):
            raise ValueError("after_delay must be positive")
        if self.allowed_lateness < timedelta(0):
            raise ValueError("allowed_lateness must be non-negative")

    @property
    def continuous(self) -> bool:
        """True when neither delay nor watermark gating applies — the
        result materializes instantaneously (classic view semantics)."""
        return not self.after_watermark and self.after_delay is None
