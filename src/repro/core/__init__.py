"""Core of the reproduction: time-varying relations, event-time semantics,
windowing TVFs, and materialization control (paper §3 and §6)."""
from .diff import (  # noqa: F401
    META_COLS,
    PTIME,
    UNDO,
    VER,
    changelog_rows,
    changelog_to_pdf,
    integrate_changelog,
    multiset_diff,
    rows_by_key,
)
from .emit import (  # noqa: F401
    STREAM,
    STREAM_AFTER_WATERMARK,
    TABLE_AFTER_WATERMARK,
    TABLE_DEFAULT,
    EmitSpec,
)
from .engine import (  # noqa: F401
    StreamResult,
    TvrEngine,
    ensure_utc,
    run_query,
    snapshot_query,
)
from .schema import EventTimeSchema  # noqa: F401
from .timeline import EventLog  # noqa: F401
from .watermark import Watermark  # noqa: F401
from .windows import (  # noqa: F401
    WEND,
    WSTART,
    hop,
    hop_starts_sql,
    tumble,
    tumble_end_sql,
    tumble_start_sql,
)
