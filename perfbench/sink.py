"""The stdout sink used while timing: it keeps no copy of the output.

It keeps a running CRC-32 and a byte count, so the check pass can prove it
saw the very bytes that were timed, and the last 128 characters, so a
command's closing status line can be read without storing its output.
Text is encoded in slices of at most CHUNK characters; a single write of a
whole report never costs a second full-size copy.
"""

from __future__ import annotations

import io
import zlib

CHUNK = 1 << 16
TAIL = 128


class HashSink(io.TextIOBase):
    def __init__(self):
        self.crc = 0
        self.nbytes = 0
        self.tail = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        for start in range(0, len(text), CHUNK):
            data = text[start:start + CHUNK].encode()
            self.crc = zlib.crc32(data, self.crc)
            self.nbytes += len(data)
        self.tail = (self.tail + text[-TAIL:])[-TAIL:]
        return len(text)

    def digest(self) -> tuple[int, int]:
        return self.crc, self.nbytes
