"""Simulated block device with exact I/O accounting.

This module stands in for the paper's experimental substrate (TPIE over a
real disk).  Every external-memory structure in the package - stacks, sorted
runs, documents - performs block reads and writes exclusively through a
:class:`BlockDevice`, which counts each access and classifies it as
sequential (block id follows the previously accessed id) or random.  The
classification feeds the seek + transfer disk-time model in
:mod:`repro.io.stats`.

The device is an allocator as well: callers grab fresh block ids with
:meth:`BlockDevice.allocate`.  Allocation is *pooled*: each named pool
(one per stream - a stack, a run writer) draws from its own contiguous
extent, refilled in chunks, the way files on a filesystem grow - so two
streams growing concurrently do not shred each other's on-disk locality,
just as TPIE streams living in separate files do not.  Block contents live
in an in-memory dict; "external memory" here means memory *the algorithms
are not allowed to use for free*, not literally a spinning platter.

Whatever sits between the algorithms and a device - the buffer pool, the
fault injector, the retrier - is a :class:`DeviceLayer`: it forwards the
whole device surface to the layer below and overrides only what it
changes.
"""

from __future__ import annotations

from ..errors import DeviceError
from .stats import (
    CostModel,
    IOStats,
    classify_extent,
    is_sequential_access,
)

DEFAULT_BLOCK_SIZE = 4096

#: Blocks grabbed per pool refill (a filesystem-extent analogue).
ALLOCATION_CHUNK = 64


class BlockDevice:
    """A block-addressable storage device with I/O accounting.

    Args:
        block_size: bytes per block.  The paper used 64 KB blocks on a real
            disk; the default here is 4 KB so that scaled-down experiments
            keep the same ``N/B`` and ``M/B`` ratios.
        cost_model: disk/CPU time parameters for simulated-seconds reporting.
    """

    #: Parallel-disk surface (see :mod:`repro.io.parallel`): a plain
    #: device is one disk with no prefetch pipeline.  Striped devices
    #: shadow these; every :class:`DeviceLayer` forwards them.
    disks = 1
    prefetch_depth = 0

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel | None = None,
    ):
        if block_size < 64:
            raise DeviceError(f"block_size too small: {block_size}")
        self.block_size = block_size
        self.stats = IOStats(cost_model)
        self._blocks: dict[int, bytes] = {}
        self._next_block = 0
        # Per-pool (cursor, extent end) allocation state.
        self._pools: dict[str, tuple[int, int]] = {}
        # Sequentiality is judged per accounting category: each category
        # models one I/O stream (a TPIE stream / an OS file with
        # readahead), so interleaved streams do not turn each other's
        # strictly sequential accesses into charged seeks.
        self._last_by_category: dict[str, int] = {}
        # Recovery holds (a stack): while a hold is open, freed block
        # contents are retained so a restarted unit of work can re-read
        # them.  See push_hold / pop_hold.
        self._holds: list[dict[int, bytes | None]] = []

    # -- allocation --------------------------------------------------------

    def allocate(self, count: int = 1, pool: str = "default") -> int:
        """Reserve ``count`` consecutive block ids; return the first id.

        Ids come from the named pool's current extent, so a stream that
        always allocates from its own pool gets consecutive ids even when
        other streams allocate in between.
        """
        if count < 1:
            raise DeviceError(f"cannot allocate {count} blocks")
        if count >= ALLOCATION_CHUNK:
            # Large requests get a dedicated extent.
            start = self._next_block
            self._next_block += count
            return start
        cursor, end = self._pools.get(pool, (0, 0))
        if cursor + count > end:
            chunk = max(count, ALLOCATION_CHUNK)
            cursor = self._next_block
            end = cursor + chunk
            self._next_block = end
        self._pools[pool] = (cursor + count, end)
        return cursor

    @property
    def allocated_blocks(self) -> int:
        """Total number of block ids handed out so far."""
        return self._next_block

    @property
    def occupied_blocks(self) -> int:
        """Number of blocks that currently hold data."""
        return len(self._blocks)

    # -- access --------------------------------------------------------

    def read_block(
        self,
        block_id: int,
        category: str = "other",
        stream: str | None = None,
    ) -> bytes:
        """Read one block, counting the access under ``category``.

        ``stream`` optionally names a finer-grained access stream for the
        sequentiality judgment (e.g. one run among many being merged);
        counters still accrue to ``category``.
        """
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"read of unallocated block {block_id}")
        data = self._blocks.get(block_id)
        if data is None:
            raise DeviceError(f"read of never-written block {block_id}")
        key = stream or category
        self.stats.record_read(category, self._is_sequential(key, block_id))
        self._last_by_category[key] = block_id
        return data

    def write_block(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Write one block, counting the access under ``category``."""
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"write of unallocated block {block_id}")
        if len(data) > self.block_size:
            raise DeviceError(
                f"write of {len(data)} bytes exceeds block size "
                f"{self.block_size}"
            )
        key = stream or category
        self.stats.record_write(category, self._is_sequential(key, block_id))
        self._last_by_category[key] = block_id
        self._blocks[block_id] = bytes(data)

    def read_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> list[bytes]:
        """Vectored read: fetch several blocks in one call.

        Accounting is identical to an equivalent :meth:`read_block` loop -
        each block is judged against the one before it (the first against
        the category's last access), so a contiguous extent costs one
        sequentiality judgment and the rest count sequential.  Subclasses
        override this to move whole extents per OS call.
        """
        block_ids = list(block_ids)
        if not block_ids:
            return []
        key = stream or category
        out: list[bytes] = []
        for block_id in block_ids:
            if not 0 <= block_id < self._next_block:
                raise DeviceError(f"read of unallocated block {block_id}")
            data = self._blocks.get(block_id)
            if data is None:
                raise DeviceError(
                    f"read of never-written block {block_id}"
                )
            out.append(data)
        sequential, last = classify_extent(
            block_ids, self._last_by_category.get(key)
        )
        self.stats.record_reads(category, len(block_ids), sequential)
        self._last_by_category[key] = last
        return out

    def write_blocks(
        self,
        block_ids,
        datas,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Vectored write: store several blocks in one call.

        Accounting mirrors :meth:`read_blocks`: one sequentiality judgment
        per extent, identical counters to a :meth:`write_block` loop.
        """
        block_ids = list(block_ids)
        datas = list(datas)
        if len(block_ids) != len(datas):
            raise DeviceError(
                f"write_blocks got {len(block_ids)} ids but "
                f"{len(datas)} payloads"
            )
        if not block_ids:
            return
        key = stream or category
        for block_id, data in zip(block_ids, datas):
            if not 0 <= block_id < self._next_block:
                raise DeviceError(f"write of unallocated block {block_id}")
            if len(data) > self.block_size:
                raise DeviceError(
                    f"write of {len(data)} bytes exceeds block size "
                    f"{self.block_size}"
                )
            self._blocks[block_id] = bytes(data)
        sequential, last = classify_extent(
            block_ids, self._last_by_category.get(key)
        )
        self.stats.record_writes(category, len(block_ids), sequential)
        self._last_by_category[key] = last

    def free_blocks(self, block_ids) -> None:
        """Drop the contents of blocks that are no longer needed.

        Freeing is bookkeeping only (it lets long experiments release Python
        memory); it performs no accounted I/O and the ids are not reused.
        Categories whose last access was a freed block forget it, so a
        later access in that category starts a fresh stream instead of
        being judged against a dead block.

        While a recovery hold is open (:meth:`push_hold`), the freed
        contents are retained in the hold - accounting is unchanged, but
        :meth:`pop_hold` can restore them if the unit of work restarts.
        """
        block_ids = list(block_ids)
        if self._holds:
            hold = self._holds[-1]
            for block_id in block_ids:
                data = self._blocks.get(block_id)
                if data is not None and block_id not in hold:
                    hold[block_id] = data
        for block_id in block_ids:
            self._blocks.pop(block_id, None)
        self._forget_last_access(block_ids)

    def _forget_last_access(self, block_ids) -> None:
        freed = set(block_ids)
        if not freed:
            return
        stale = [
            category
            for category, last in self._last_by_category.items()
            if last in freed
        ]
        for category in stale:
            del self._last_by_category[category]

    # -- recovery holds ----------------------------------------------------

    @property
    def holding(self) -> bool:
        """True while at least one recovery hold is open."""
        return bool(self._holds)

    def push_hold(self) -> None:
        """Open a recovery hold: retain contents of subsequently freed blocks.

        Holds nest (a stack); frees land in the innermost open hold.
        Accounting is completely unaffected - frees still forget
        last-access state and pop the live block exactly as without a
        hold.  The fault-recovery layer (:mod:`repro.faults`) brackets
        each restartable unit of work with a hold so a restart can
        re-read input runs the failed attempt already drained and freed.
        """
        self._holds.append({})

    def pop_hold(self, restore: bool) -> None:
        """Close the innermost hold.

        With ``restore=True`` the held contents become readable again (the
        restarting unit re-reads them, with those re-reads charged
        normally); with ``restore=False`` they are dropped for good.
        """
        if not self._holds:
            raise DeviceError("pop_hold with no hold open")
        held = self._holds.pop()
        if restore:
            self._restore_held(held)

    def _restore_held(self, held: dict[int, bytes | None]) -> None:
        for block_id, data in held.items():
            if data is not None:
                self._blocks[block_id] = data

    def stash_block(self, block_id: int, data: bytes) -> None:
        """Retain ``data`` as ``block_id``'s held contents (uncounted).

        Used by the buffer pool when a *dirty cached* block is freed under
        an open hold: the device never saw the dirty data (that is the
        write the pool elides), so the pool hands it over for safekeeping.
        No-op when no hold is open.
        """
        if self._holds:
            self._holds[-1][block_id] = bytes(data)

    def store_block_raw(self, block_id: int, data: bytes) -> None:
        """Store block contents without any accounting.

        This is the fault injector's torn-write primitive: a torn vectored
        write persists a prefix of its payload before failing, and that
        side effect must not charge the model's counters (the retried
        write is charged once, in full, exactly like a fault-free one).
        """
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"raw store to unallocated block {block_id}")
        if len(data) > self.block_size:
            raise DeviceError(
                f"raw store of {len(data)} bytes exceeds block size "
                f"{self.block_size}"
            )
        self._blocks[block_id] = bytes(data)

    def _is_sequential(self, category: str, block_id: int) -> bool:
        return is_sequential_access(
            self._last_by_category.get(category), block_id
        )

    # -- parallel-disk surface ---------------------------------------------

    def disk_of(self, block_id: int) -> int:
        """Member disk holding ``block_id``; always 0 on a serial device."""
        return 0

    def prefetch_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> int:
        """Issue asynchronous reads ahead of demand; returns blocks issued.

        A serial device has no prefetch pipeline, so this is a no-op that
        issues nothing - callers fall back to demand reads, keeping
        counters identical to pre-prefetch behaviour.
        """
        return 0

    def write_block_behind(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Write-behind: queue a write without waiting for completion.

        On a serial device there is no pipeline to hide the write in, so
        this degenerates to a plain (identically accounted) write.
        """
        self.write_block(block_id, data, category, stream=stream)

    # -- convenience -------------------------------------------------------

    def bytes_to_blocks(self, nbytes: int) -> int:
        """Number of blocks needed to hold ``nbytes`` bytes."""
        return -(-nbytes // self.block_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockDevice(block_size={self.block_size}, "
            f"allocated={self._next_block}, "
            f"ios={self.stats.total_ios})"
        )


class DeviceLayer:
    """One layer over an inner device, forwarding the whole surface.

    The buffer pool and the fault wrappers each sit on top of a device
    (or of another layer) and change only a few calls.  This base
    forwards every part of the :class:`BlockDevice` surface by name -
    allocation, reads and writes, frees, recovery holds, and the
    parallel-disk calls - so a subclass overrides exactly the calls it
    changes and inherits the rest.  The inner object is always a
    :class:`BlockDevice` or another layer, so nothing is probed.
    """

    def __init__(self, device):
        self._device = device

    @property
    def device(self):
        """The wrapped device (possibly itself a layer)."""
        return self._device

    @property
    def block_size(self) -> int:
        return self._device.block_size

    @property
    def stats(self) -> IOStats:
        return self._device.stats

    # -- allocation --------------------------------------------------------

    def allocate(self, count: int = 1, pool: str = "default") -> int:
        return self._device.allocate(count, pool)

    @property
    def allocated_blocks(self) -> int:
        return self._device.allocated_blocks

    @property
    def occupied_blocks(self) -> int:
        return self._device.occupied_blocks

    def bytes_to_blocks(self, nbytes: int) -> int:
        return self._device.bytes_to_blocks(nbytes)

    # -- access ------------------------------------------------------------

    def read_block(self, block_id, category="other", stream=None):
        return self._device.read_block(block_id, category, stream=stream)

    def write_block(self, block_id, data, category="other", stream=None):
        self._device.write_block(block_id, data, category, stream=stream)

    def read_blocks(self, block_ids, category="other", stream=None):
        return self._device.read_blocks(block_ids, category, stream=stream)

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        self._device.write_blocks(block_ids, datas, category, stream=stream)

    def free_blocks(self, block_ids) -> None:
        self._device.free_blocks(block_ids)

    # -- recovery holds ----------------------------------------------------

    @property
    def holding(self) -> bool:
        return self._device.holding

    def push_hold(self) -> None:
        self._device.push_hold()

    def pop_hold(self, restore: bool) -> None:
        self._device.pop_hold(restore)

    def stash_block(self, block_id: int, data: bytes) -> None:
        self._device.stash_block(block_id, data)

    def store_block_raw(self, block_id: int, data: bytes) -> None:
        self._device.store_block_raw(block_id, data)

    # -- parallel-disk surface ---------------------------------------------

    @property
    def disks(self) -> int:
        return self._device.disks

    @property
    def prefetch_depth(self) -> int:
        return self._device.prefetch_depth

    def disk_of(self, block_id: int) -> int:
        return self._device.disk_of(block_id)

    def prefetch_blocks(self, block_ids, category="other", stream=None):
        return self._device.prefetch_blocks(block_ids, category, stream=stream)

    def write_block_behind(self, block_id, data, category="other", stream=None):
        self._device.write_block_behind(block_id, data, category, stream=stream)
