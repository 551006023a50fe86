"""Log records that name the cell they come from.

engine.run sets the current cell, its instance and configuration, in a
context variable for the length of the run; the filter of every gradcut logger
copies it onto each record as `record.cell`. A context variable is private to
its thread, so cells solved side by side keep their own labels.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from contextvars import ContextVar

NO_CELL = "-"

_cell: ContextVar[str] = ContextVar("gradcut_cell", default=NO_CELL)


class CellFilter(logging.Filter):
    """Adds the current cell label to every record; drops none."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.cell = _cell.get()
        return True


_FILTER = CellFilter()


def get_logger(name: str) -> logging.Logger:
    """logging.getLogger(name), with the cell label added to its records."""
    logger = logging.getLogger(name)
    if _FILTER not in logger.filters:
        logger.addFilter(_FILTER)
    return logger


@contextmanager
def cell(instance: str, config: str):
    """Label the records logged inside the block as `instance/config`."""
    token = _cell.set(f"{instance or '?'}/{config}")
    try:
        yield
    finally:
        _cell.reset(token)
