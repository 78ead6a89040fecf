"""Live in situ streaming: the series journal and its readers.

A series is readable while the producing simulation is still running,
because every step is committed through the series journal as it lands:

* :mod:`repro.stream.journal` — the versioned *journal*
  (``series.journal``): append-only framed records, one fsync'd commit per
  step, crash-recoverable by replaying complete records and truncating a
  torn tail.  :class:`~repro.series.writer.SeriesWriter` commits every step
  through it and finalizes by appending a ``final`` record.  The journal is
  the series directory's only index, from step 0, live or finalized.
* the read side lives where the readers live:
  :meth:`repro.series.reader.SeriesHandle.refresh` re-reads only the journal
  tail (committed steps are immutable, so nothing warm is ever invalidated),
  and the query service (:mod:`repro.service`) exposes a ``subscribe`` verb
  pushing step-committed events to ``repro query follow DIR`` clients.
"""

from repro.stream.journal import (
    JOURNAL_FILENAME,
    JOURNAL_FORMAT_VERSION,
    JournalTail,
    JournalView,
    SeriesJournal,
    load_journal,
    read_journal,
    replay_journal,
    tail_journal,
)

__all__ = [
    "JOURNAL_FILENAME",
    "JOURNAL_FORMAT_VERSION",
    "JournalTail",
    "JournalView",
    "SeriesJournal",
    "load_journal",
    "read_journal",
    "replay_journal",
    "tail_journal",
]
