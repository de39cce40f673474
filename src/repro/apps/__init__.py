"""The paper's nine benchmark applications."""

from .base import BlockWork, StreamApp, finalize_case
from .grep import GrepApp, LiteralMatcher
from .hashjoin import HashJoinApp
from .md5 import Md5App, md5_digest, md5_interleaved
from .mpeg_filter import MpegFilterApp
from .reduction import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCE_TO_ONE,
    reduction_sweep,
    run_reduction_point,
)
from .select import SelectApp
from .sort import SortApp
from .tar import TarApp, build_archive, parse_archive, ustar_header

__all__ = [
    "BlockWork",
    "StreamApp",
    "finalize_case",
    "GrepApp",
    "LiteralMatcher",
    "HashJoinApp",
    "Md5App",
    "md5_digest",
    "md5_interleaved",
    "MpegFilterApp",
    "DISTRIBUTED",
    "REDUCE_TO_ALL",
    "REDUCE_TO_ONE",
    "reduction_sweep",
    "run_reduction_point",
    "SelectApp",
    "SortApp",
    "TarApp",
    "build_archive",
    "parse_archive",
    "ustar_header",
]
