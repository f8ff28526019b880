"""Incremental parsing: tokenize XML from a file without loading it whole.

:func:`parse_events` needs the document as one string; for genuinely
out-of-core inputs that defeats the purpose of an external-memory sorter.
:func:`parse_events_incremental` runs the same tokenizer core
(:func:`repro.xml.parser.tokenize`) over a text stream read in fixed
chunks.  The core keeps only the unconsumed tail of its buffer, so an
arbitrarily large file flows straight onto the block device via
:meth:`Document.from_file` with memory bounded by the chunk size plus the
largest single construct (one tag, comment, or text run).
"""

from __future__ import annotations

from functools import partial
from typing import IO, Iterator

from .parser import tokenize
from .tokens import Token

DEFAULT_CHUNK_CHARS = 64 * 1024


def parse_events_incremental(
    stream: IO[str],
    strip_whitespace: bool = True,
    chunk_chars: int = DEFAULT_CHUNK_CHARS,
) -> Iterator[Token]:
    """Yield Start/Text/End events from a text stream, incrementally.

    Equivalent to ``parse_events(stream.read(), strip_whitespace)``.
    """
    return tokenize(partial(stream.read, chunk_chars), strip_whitespace)
