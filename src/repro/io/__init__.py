"""External-memory substrate: simulated device, budget, stacks, runs."""

from .budget import (
    CarvedBudget,
    MemoryBudget,
    MINIMUM_NEXSORT_BLOCKS,
    Reservation,
)
from .bufferpool import BufferPool, DEFAULT_READAHEAD
from .device import BlockDevice, DEFAULT_BLOCK_SIZE, DeviceLayer
from .file_device import FileBackedBlockDevice
from .lease import ResourceLease, ResourcePool, TeeIOStats
from .parallel import (
    DiskTimeline,
    MergePrefetcher,
    StripedDevice,
)
from .compress import (
    CODEC_NAMES,
    CompressionConfig,
    RunSegment,
    decode_document_wire,
    decode_records,
    encode_document_wire,
    encode_records,
)
from .runs import (
    CompressedRunReader,
    CompressedRunWriter,
    RunHandle,
    RunReader,
    RunStore,
    RunWriter,
)
from .stacks import ExternalStack
from .stats import CategoryCounters, CostModel, IOStats, StatsSnapshot

__all__ = [
    "BlockDevice",
    "BufferPool",
    "CarvedBudget",
    "DEFAULT_READAHEAD",
    "CategoryCounters",
    "CostModel",
    "DEFAULT_BLOCK_SIZE",
    "DeviceLayer",
    "DiskTimeline",
    "ExternalStack",
    "FileBackedBlockDevice",
    "IOStats",
    "MemoryBudget",
    "MINIMUM_NEXSORT_BLOCKS",
    "MergePrefetcher",
    "Reservation",
    "ResourceLease",
    "ResourcePool",
    "TeeIOStats",
    "CODEC_NAMES",
    "CompressedRunReader",
    "CompressedRunWriter",
    "CompressionConfig",
    "RunHandle",
    "RunReader",
    "RunSegment",
    "RunStore",
    "RunWriter",
    "decode_document_wire",
    "decode_records",
    "encode_document_wire",
    "encode_records",
    "StatsSnapshot",
    "StripedDevice",
]
