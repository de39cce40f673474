"""MPEG-filter benchmark (paper Section 5, Figures 3/4).

Two filtering tasks on a 2 202 640-byte I/P video stream: *frame
filtering* (drop all non-I frames — header checking plus a start-code
scan over the bitstream) and *color reduction* (decode each I frame,
reduce to mono, re-encode — compute-intensive).  The active system runs
the frame filter on the switch and color reduction on the host, "a
balanced computing pipeline"; about 63.5 % of the bytes (P frames) never
reach the host.

Cost model:

* frame filter: ~55 cycles/byte on the host — a start-code scan over
  every byte plus header checks plus copying surviving frames.  The
  switch handler runs the scan at 0.45x the host's cycle count: the ATB
  gives it aligned, flat addressing of the stream and the send unit
  forwards surviving frames directly from the data buffers, eliminating
  the host's software copy (the paper's key hardware assists);
* color reduction: ~440 cycles per I-frame byte (software decode +
  requantize + re-encode, 2003-era codec).
"""

from __future__ import annotations

from ..workloads import mpeg
from .base import BlockWork, StreamApp

#: Host cycles per scanned byte for the frame filter.
FILTER_HOST_CYCLES_PER_BYTE = 55.0
#: Switch handler cycle ratio vs host for the same filter (ATB framing +
#: send-unit forwarding remove the copy and alignment work).
SWITCH_FILTER_EFFICIENCY = 0.45
#: Host cycles per I-frame byte for color reduction.
REDUCE_CYCLES_PER_BYTE = 440.0
#: Per-frame header bookkeeping cycles.
FRAME_HEADER_CYCLES = 80

_INPUT_BASE = 0x2000_0000
_OUTPUT_BASE = 0x6000_0000


class MpegFilterApp(StreamApp):
    """MPEG-filter under the four configurations."""

    name = "mpeg-filter"
    request_bytes = 64 * 1024  # "All I/O requests are made in blocks of 64 KB"

    def prepare(self) -> None:
        total = max(32 * 1024, int(mpeg.PAPER_INPUT_BYTES * self.scale))
        stream = mpeg.generate_stream(total_bytes=total)
        self.stream = stream
        data = stream.data

        # Per-block byte composition, walking frames with carry (a frame
        # can straddle an I/O request boundary).
        frame_iter = iter(stream.frames)
        current = next(frame_iter, None)
        cursor_in = _INPUT_BASE
        cursor_out = _OUTPUT_BASE
        offset = 0
        self.total_i_bytes = 0
        while offset < len(data):
            nbytes = min(self.request_bytes, len(data) - offset)
            end = offset + nbytes
            i_bytes = 0
            frames_started = 0
            while current is not None and current.offset < end:
                overlap_start = max(current.offset, offset)
                overlap_end = min(current.offset + current.total_bytes, end)
                if current.is_intra:
                    i_bytes += max(0, overlap_end - overlap_start)
                if current.offset >= offset:
                    frames_started += 1
                if current.offset + current.total_bytes <= end:
                    current = next(frame_iter, None)
                else:
                    break
            self.total_i_bytes += i_bytes

            in_base = cursor_in
            out_base = cursor_out
            cursor_in += nbytes
            cursor_out += i_bytes

            def reduce_stall(hierarchy, addr=out_base, size=i_bytes):
                # Output stores of the re-encoded mono frame.
                return hierarchy.store_range(addr, size) if size else 0

            def normal_stall(hierarchy, addr=in_base, size=nbytes,
                             out=out_base, out_size=i_bytes):
                stall = hierarchy.load_range(addr, size)
                if out_size:
                    stall += hierarchy.store_range(out, out_size)
                return stall

            filter_cycles = (nbytes * FILTER_HOST_CYCLES_PER_BYTE
                             + frames_started * FRAME_HEADER_CYCLES)
            reduce_cycles = i_bytes * REDUCE_CYCLES_PER_BYTE
            self.blocks.append(BlockWork(
                nbytes=nbytes,
                host_cycles=filter_cycles + reduce_cycles,
                host_stall_fn=normal_stall,
                handler_cycles=filter_cycles * SWITCH_FILTER_EFFICIENCY,
                handler_stall_fn=None,
                out_bytes=i_bytes,
                active_host_cycles=reduce_cycles,
                active_host_stall_fn=reduce_stall,
            ))
            offset = end

    @property
    def p_byte_fraction(self) -> float:
        """Filtered-out share (the paper's 36.5 % traffic reduction is
        1 - this for I frames... i.e. P bytes never reach the host)."""
        return 1.0 - self.total_i_bytes / len(self.stream.data)
