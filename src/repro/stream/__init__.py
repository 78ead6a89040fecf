"""Live in situ streaming: the series journal and its readers.

A series is readable while the producing simulation is still running,
because every step is committed through a journal before a manifest exists:

* :mod:`repro.stream.journal` — the versioned *journal*
  (``series.journal``): append-only framed records, one fsync'd commit per
  step, crash-recoverable by replaying complete records and truncating a
  torn tail.  :class:`~repro.series.writer.SeriesWriter` commits every step
  through it; finalizing writes the ordinary ``series.h5z`` manifest once
  and removes the journal.  A journal holds the whole series from step 0,
  so a directory is read from its journal alone when one is present.
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
    load_live_index,
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
    "load_live_index",
    "read_journal",
    "replay_journal",
    "tail_journal",
]
