"""The sinks hold bounded memory however large the output grows."""

import tracemalloc
import zlib

from check import CheckSink
from sink import CHUNK, HashSink

ROW = "{k},{l},not-determined,1,1,false\n"


def grid_pieces(rows, per_piece=1000):
    for start in range(0, rows, per_piece):
        yield "".join(ROW.format(k=i, l=i) for i in range(start, min(rows, start + per_piece)))


def peak_while_writing(sink, rows):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for piece in grid_pieces(rows):
            sink.write(piece)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_sink_memory_is_flat_as_output_grows():
    lines = [0]

    def count(line):
        lines[0] += 1

    small = peak_while_writing(CheckSink(count), 20_000)
    large = peak_while_writing(CheckSink(count), 400_000)
    assert lines[0] == 420_000
    assert large < 1.25 * small + 64 * 1024


def extra_for_one_write(sink, text):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sink.write(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_large_write_costs_a_bounded_extra():
    small = "".join(grid_pieces(40_000))
    large = "".join(grid_pieces(400_000))  # ~14 MB in a single write
    for make in (lambda: CheckSink(lambda line: None), HashSink):
        extra_small = extra_for_one_write(make(), small)
        extra_large = extra_for_one_write(make(), large)
        assert extra_large < 1.25 * extra_small + 64 * 1024
        assert extra_large < 16 * CHUNK < len(large) / 10


def test_digests_agree_whatever_the_write_pattern():
    text = "".join(grid_pieces(5_000))
    whole, pieces = CheckSink(lambda line: None), HashSink()
    whole.write(text)
    for piece in grid_pieces(5_000, per_piece=7):
        pieces.write(piece)
    assert whole.digest() == pieces.digest() == (zlib.crc32(text.encode()), len(text))
    assert pieces.tail == text[-len(pieces.tail):] and len(pieces.tail) == 128


def test_check_sink_frames_lines_across_chunks():
    seen = []
    sink = CheckSink(seen.append)
    text = "".join(f"line {i}\n" for i in range(20_000)) + "last"
    for i in range(0, len(text), 4093):
        sink.write(text[i:i + 4093])
    sink.finish()
    assert seen == text.split("\n")
    assert sink.peak_buffer <= CHUNK + 16
