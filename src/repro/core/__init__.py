"""Core of the reproduction: time-varying relations, event-time semantics,
windowing TVFs, and materialization control (paper §3 and §6)."""
from .emit import EmitSpec  # noqa: F401
from .engine import run_query  # noqa: F401
