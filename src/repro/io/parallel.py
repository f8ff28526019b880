"""Parallel-disk striping with an overlapped I/O pipeline in simulated time.

NEXSORT's analysis (and :class:`~repro.io.device.BlockDevice`) models a
single serial disk: every access costs seek + transfer on one clock, and a
phase's simulated time is the *sum* of its I/O and CPU charges.  This module
grows the simulated hardware a parallelism dimension, after the classic
parallel-disk model (PDM): a :class:`StripedDevice` round-robin-stripes the
global block space over ``D`` inner :class:`~repro.io.device.BlockDevice`
shards (block ``g`` lives on disk ``g % D`` at local offset ``g // D``),
each with its own seek/transfer clock and :class:`~repro.io.stats.IOStats`.

On top of the striping sits an asynchronous scheduler in simulated time:

* every disk has a *free-at* clock; requests queue behind whatever the disk
  is already servicing,
* demand reads stall the consumer until the block's completion time,
* :meth:`StripedDevice.write_block_behind` queues writes and only stalls
  when more than :attr:`StripedDevice.write_buffers` writes are still in
  flight for the same stream (double-buffered write-behind - the run
  writers use this so run output overlaps with compute and reads),
* :meth:`StripedDevice.prefetch_blocks` issues reads ahead of demand into a
  bounded window of ``prefetch_depth`` slots; a later demand read of a
  prefetched block costs *no new counters* (it was charged at issue time)
  and stalls only for whatever service time has not yet elapsed.

Crucially, the pipeline changes *when* work happens, never *how much*:
per-category counters, ``model_seconds``, and traces with ``D=1`` and
prefetch off are bit-identical to the serial device.  Parallelism shows up
in the new additive metrics - per-disk busy seconds (``disk_seconds`` is
the busiest disk, i.e. the phase's disk time under PDM), ``overlap_seconds``
(serial I/O time hidden by striping), and ``stall_seconds`` (time the
consumer actually waited).

:class:`MergePrefetcher` implements the forecast rule for the merge path:
during a k-way merge the loser tree's embedded keys reveal each run's
current head, and the run with the *smallest* head key is the one that will
drain its buffer soonest - so its next block is fetched first (Knuth's
forecasting, vol. 3 §5.4.9).  Forecasting is the only prefetch policy.
"""

from __future__ import annotations

from collections import deque

from ..errors import DeviceError
from .device import BlockDevice, DEFAULT_BLOCK_SIZE
from .stats import CostModel, classify_extent

#: Write-behind depth per stream: one block being filled by the writer plus
#: this many in flight before the writer must wait (double buffering).
DEFAULT_WRITE_BUFFERS = 2


class StripedDevice(BlockDevice):
    """``D`` disks behind one block address space, with overlapped I/O.

    The device *is a* :class:`~repro.io.device.BlockDevice` - allocation,
    recovery holds, and the whole accounting surface behave identically -
    but storage and service time are distributed over ``disks`` inner
    shard devices.  With ``disks=1`` and ``prefetch_depth=0`` every
    counter, simulated second, and trace byte matches the serial device.

    Args:
        disks: number of member disks ``D``.
        block_size: bytes per block (same meaning as the serial device).
        cost_model: per-disk seek/transfer parameters.
        prefetch_depth: maximum blocks held in the prefetch window; 0
            disables prefetching entirely.
        write_buffers: write-behind depth per stream (see module docs).
    """

    def __init__(
        self,
        disks: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel | None = None,
        prefetch_depth: int = 0,
        write_buffers: int = DEFAULT_WRITE_BUFFERS,
    ):
        if disks < 1:
            raise DeviceError(f"need at least one disk, got {disks}")
        if prefetch_depth < 0:
            raise DeviceError(
                f"prefetch_depth cannot be negative: {prefetch_depth}"
            )
        if write_buffers < 1:
            raise DeviceError(
                f"need at least one write buffer, got {write_buffers}"
            )
        super().__init__(block_size=block_size, cost_model=cost_model)
        self.disks = disks
        self.prefetch_depth = prefetch_depth
        self.write_buffers = write_buffers
        self._shards = [
            BlockDevice(block_size=block_size, cost_model=cost_model)
            for _ in range(disks)
        ]
        # The striped address space never touches the base dict storage.
        self._blocks.clear()
        # -- simulated-time pipeline state --------------------------------
        # The consumer's clock.  CPU charges recorded on self.stats advance
        # it lazily (_advance_cpu), so compute performed between I/Os
        # genuinely overlaps with in-flight requests.
        self._now = 0.0
        self._cpu_seen = 0.0
        # Per-disk completion time of the last queued request.
        self._free_at = [0.0] * disks
        # Prefetch window: global block id -> (data, completion time).
        self._prefetched: dict[int, tuple[bytes, float]] = {}
        # Write-behind: stream key -> completion times of in-flight writes.
        self._write_queues: dict[str, deque[float]] = {}

    # -- address mapping ---------------------------------------------------

    def disk_of(self, block_id: int) -> int:
        """Member disk holding global block ``block_id``."""
        return block_id % self.disks

    def _locate(self, block_id: int) -> tuple[int, int]:
        """Map a global block id to ``(disk, local block id)``."""
        return block_id % self.disks, block_id // self.disks

    @property
    def shards(self) -> list[BlockDevice]:
        """The member disks (read-only use: per-disk stats inspection)."""
        return list(self._shards)

    def allocate(self, count: int = 1, pool: str = "default") -> int:
        start = super().allocate(count, pool)
        self._sync_shard_bounds()
        return start

    def _sync_shard_bounds(self) -> None:
        # Disk d holds locals for globals d, d+D, d+2D, ... below the
        # global allocation frontier.
        total = self._next_block
        for disk, shard in enumerate(self._shards):
            shard._next_block = max(
                0, (total - disk + self.disks - 1) // self.disks
            )

    @property
    def occupied_blocks(self) -> int:
        return sum(shard.occupied_blocks for shard in self._shards)

    # -- simulated-time pipeline -------------------------------------------

    def _advance_cpu(self) -> None:
        """Fold CPU/penalty charges since the last event into the clock."""
        seen = self.stats.cpu_seconds() + self.stats.penalty_seconds
        if seen > self._cpu_seen:
            self._now += seen - self._cpu_seen
            self._cpu_seen = seen

    def _service(self, disk: int, cost: float) -> float:
        """Queue a request on ``disk``; returns its completion time."""
        start = max(self._free_at[disk], self._now)
        done = start + cost
        self._free_at[disk] = done
        return done

    def _stall_until(self, done: float) -> None:
        """Block the consumer until ``done``; the wait is recorded stall."""
        if done > self._now:
            self.stats.record_stall(done - self._now)
            self._now = done

    def _busy(self, disk: int, sequential: bool) -> float:
        cost = self.stats.cost_model.access_seconds(sequential)
        self.stats.record_disk_busy(disk, cost)
        return cost

    def _busy_extent(
        self, disk: int, count: int, sequential: int
    ) -> float:
        cost = self.stats.cost_model.io_seconds(
            sequential, count - sequential
        )
        self.stats.record_disk_busy(disk, cost)
        return cost

    @property
    def pipeline_seconds(self) -> float:
        """Simulated time until every queued request has completed."""
        drained = max(self._free_at) if self._free_at else self._now
        for queue in self._write_queues.values():
            if queue:
                drained = max(drained, queue[-1])
        return max(self._now, drained)

    def disk_utilization(self) -> list[float]:
        """Busy fraction of each member disk relative to the busiest."""
        busy = [
            self.stats.disk_busy.get(disk, 0.0)
            for disk in range(self.disks)
        ]
        peak = max(busy)
        if peak <= 0:
            return [0.0] * self.disks
        return [b / peak for b in busy]

    # -- access ------------------------------------------------------------

    def _check_readable(self, block_id: int) -> tuple[int, int]:
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"read of unallocated block {block_id}")
        disk, local = self._locate(block_id)
        if (
            block_id not in self._prefetched
            and local not in self._shards[disk]._blocks
        ):
            raise DeviceError(f"read of never-written block {block_id}")
        return disk, local

    def read_block(
        self,
        block_id: int,
        category: str = "other",
        stream: str | None = None,
    ) -> bytes:
        disk, local = self._check_readable(block_id)
        self._advance_cpu()
        entry = self._prefetched.pop(block_id, None)
        if entry is not None:
            data, done = entry
            self._stall_until(done)
            return data
        shard = self._shards[disk]
        key = stream or category
        sequential = shard._is_sequential(key, local)
        data = shard.read_block(local, category, stream=key)
        self.stats.record_read(category, sequential)
        done = self._service(disk, self._busy(disk, sequential))
        self._stall_until(done)
        return data

    def write_block(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Synchronous write: the consumer waits for completion."""
        done = self._submit_write(block_id, data, category, stream)
        self._stall_until(done)

    def write_block_behind(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Queue a write; wait only when the stream's buffers are full.

        Models double-buffered run output: the writer owns
        :attr:`write_buffers` in-flight slots per stream and stalls only
        when submitting a write while all slots are still busy.
        """
        key = stream or category
        queue = self._write_queues.setdefault(key, deque())
        self._advance_cpu()
        while queue and queue[0] <= self._now:
            queue.popleft()
        if len(queue) >= self.write_buffers:
            self._stall_until(queue.popleft())
            while queue and queue[0] <= self._now:
                queue.popleft()
        queue.append(self._submit_write(block_id, data, category, stream))

    def _submit_write(
        self,
        block_id: int,
        data: bytes,
        category: str,
        stream: str | None,
    ) -> float:
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"write of unallocated block {block_id}")
        if len(data) > self.block_size:
            raise DeviceError(
                f"write of {len(data)} bytes exceeds block size "
                f"{self.block_size}"
            )
        disk, local = self._locate(block_id)
        shard = self._shards[disk]
        key = stream or category
        sequential = shard._is_sequential(key, local)
        shard.write_block(local, data, category, stream=key)
        self.stats.record_write(category, sequential)
        self._prefetched.pop(block_id, None)
        self._advance_cpu()
        return self._service(disk, self._busy(disk, sequential))

    def read_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> list[bytes]:
        """Vectored read: per-disk extents are serviced concurrently.

        Counters match a :meth:`read_block` loop on the same device: each
        disk judges its sub-sequence of the extent against its own last
        access, so ``D=1`` is bit-identical to the serial device.  The
        consumer stalls until the last involved disk completes.
        """
        block_ids = list(block_ids)
        if not block_ids:
            return []
        key = stream or category
        locations = [self._check_readable(g) for g in block_ids]
        self._advance_cpu()
        out: list[bytes | None] = [None] * len(block_ids)
        per_disk: dict[int, list[tuple[int, int]]] = {}
        done_times: list[float] = []
        consumed: set[int] = set()
        for position, block_id in enumerate(block_ids):
            if block_id in self._prefetched and block_id not in consumed:
                data, done = self._prefetched.pop(block_id)
                consumed.add(block_id)
                out[position] = data
                done_times.append(done)
                continue
            disk, local = locations[position]
            per_disk.setdefault(disk, []).append((position, local))
        for disk, entries in per_disk.items():
            shard = self._shards[disk]
            locals_ = [local for _, local in entries]
            sequential, _ = classify_extent(
                locals_, shard._last_by_category.get(key)
            )
            datas = shard.read_blocks(locals_, category, stream=key)
            for (position, _), data in zip(entries, datas):
                out[position] = data
            self.stats.record_reads(category, len(locals_), sequential)
            done_times.append(
                self._service(
                    disk, self._busy_extent(disk, len(locals_), sequential)
                )
            )
        self._stall_until(max(done_times))
        return out

    def write_blocks(
        self,
        block_ids,
        datas,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Vectored synchronous write; per-disk extents run concurrently."""
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
        self._advance_cpu()
        per_disk: dict[int, tuple[list[int], list[bytes]]] = {}
        for block_id, data in zip(block_ids, datas):
            self._prefetched.pop(block_id, None)
            disk, local = self._locate(block_id)
            locals_, payloads = per_disk.setdefault(disk, ([], []))
            locals_.append(local)
            payloads.append(data)
        done_times = []
        for disk, (locals_, payloads) in per_disk.items():
            shard = self._shards[disk]
            sequential, _ = classify_extent(
                locals_, shard._last_by_category.get(key)
            )
            shard.write_blocks(locals_, payloads, category, stream=key)
            self.stats.record_writes(category, len(locals_), sequential)
            done_times.append(
                self._service(
                    disk, self._busy_extent(disk, len(locals_), sequential)
                )
            )
        self._stall_until(max(done_times))

    # -- prefetch ----------------------------------------------------------

    def prefetch_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> int:
        """Issue asynchronous reads into the prefetch window.

        Blocks are charged (counters and disk busy time) at issue time,
        exactly as a demand read with the same stream key would be - so a
        run consumed through prefetch produces identical counters to one
        consumed by demand reads alone.  Returns how many blocks were
        issued; the window declining (already full, or already prefetched)
        is not an error.
        """
        if not self.prefetch_depth:
            return 0
        issued = 0
        for block_id in block_ids:
            if block_id in self._prefetched:
                continue
            if len(self._prefetched) >= self.prefetch_depth:
                break
            disk, local = self._check_readable(block_id)
            shard = self._shards[disk]
            key = stream or category
            sequential = shard._is_sequential(key, local)
            data = shard.read_block(local, category, stream=key)
            self.stats.record_read(category, sequential)
            self._advance_cpu()
            done = self._service(disk, self._busy(disk, sequential))
            self._prefetched[block_id] = (data, done)
            issued += 1
        return issued

    @property
    def prefetched_blocks(self) -> int:
        """Blocks currently sitting in the prefetch window."""
        return len(self._prefetched)

    # -- free / recovery ---------------------------------------------------

    def free_blocks(self, block_ids) -> None:
        block_ids = list(block_ids)
        if self._holds:
            hold = self._holds[-1]
            for block_id in block_ids:
                if block_id in hold:
                    continue
                disk, local = self._locate(block_id)
                data = self._shards[disk]._blocks.get(local)
                if data is not None:
                    hold[block_id] = data
        per_disk: dict[int, list[int]] = {}
        for block_id in block_ids:
            self._prefetched.pop(block_id, None)
            disk, local = self._locate(block_id)
            per_disk.setdefault(disk, []).append(local)
        for disk, locals_ in per_disk.items():
            self._shards[disk].free_blocks(locals_)

    def _restore_held(self, held: dict[int, bytes | None]) -> None:
        for block_id, data in held.items():
            if data is not None:
                disk, local = self._locate(block_id)
                self._shards[disk].store_block_raw(local, data)

    def store_block_raw(self, block_id: int, data: bytes) -> None:
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"raw store to unallocated block {block_id}")
        if len(data) > self.block_size:
            raise DeviceError(
                f"raw store of {len(data)} bytes exceeds block size "
                f"{self.block_size}"
            )
        disk, local = self._locate(block_id)
        self._shards[disk].store_block_raw(local, data)
        self._prefetched.pop(block_id, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StripedDevice(disks={self.disks}, "
            f"block_size={self.block_size}, "
            f"allocated={self._next_block}, "
            f"ios={self.stats.total_ios})"
        )


class MergePrefetcher:
    """Forecast-driven block prefetch for one k-way merge.

    One prefetcher accompanies one merge pass.  The merge kernel reports
    each run's freshly pulled head key (:meth:`note_head`) - with embedded
    normalized keys these are exactly the loser tree's comparison keys -
    and the prefetcher keeps each live run at most one block ahead of its
    reader.  The device's limited prefetch slots go to the run with the
    smallest head key first, because it drains first (Knuth's forecasting
    rule).

    The prefetcher only ever *reorders* reads the merge was about to issue
    with the same stream keys, so counters and simulated model time are
    unchanged; the benefit is measured in reduced consumer stall.
    """

    def __init__(
        self,
        device,
        runs,
        readers,
        category: str,
        streams: list[str],
    ):
        self._device = device
        self._runs = list(runs)
        self._readers = list(readers)
        self._category = category
        self._streams = list(streams)
        count = len(self._runs)
        self._head_keys: list = [None] * count
        self._alive = [True] * count
        # Highest block index already issued (demand or prefetch), per run.
        self._issued = [0] * count

    def note_head(self, index: int, key) -> None:
        """Record run ``index``'s new head key after a pull."""
        self._head_keys[index] = key

    def exhausted(self, index: int) -> None:
        """Run ``index`` has no records left; stop prefetching for it."""
        self._alive[index] = False

    def _forecast_priority(self, index: int):
        """Sort key for forecast order; smallest head key drains first.

        A run the tree has not pulled from yet (head key still unknown)
        is about to be demanded, so it outranks every forecasted run.
        """
        key = self._head_keys[index]
        if key is None:
            return (0, index)
        return (1, key, index)

    def _needy(self) -> list[int]:
        """Runs whose next block is not yet issued (≤ one block lookahead)."""
        needy = []
        for index, run in enumerate(self._runs):
            if not self._alive[index]:
                continue
            reader = self._readers[index]
            nxt = max(self._issued[index], reader.block_index + 1)
            self._issued[index] = nxt
            if nxt < len(run.block_ids) and nxt <= reader.block_index + 1:
                needy.append(index)
        return needy

    def pump(self) -> int:
        """Issue prefetches while slots are free; returns blocks issued.

        One pass suffices: a needy run's next block is exactly one past
        its reader, so once issued the run is not needy again until its
        reader advances.
        """
        issued_total = 0
        for index in sorted(self._needy(), key=self._forecast_priority):
            nxt = self._issued[index]
            issued = self._device.prefetch_blocks(
                [self._runs[index].block_ids[nxt]],
                self._category,
                stream=self._streams[index],
            )
            if not issued:
                break
            self._issued[index] = nxt + 1
            issued_total += issued
        return issued_total


class DiskTimeline:
    """Simulated-time ledger of ``D`` shared disks for the service layer.

    The scheduler (:mod:`repro.service.scheduler`) replays each tenant's
    recorded cost events over one of these: every I/O event is placed on
    the *least-loaded* disk (lowest free-at clock, lowest index on ties -
    deterministic), starting no earlier than the job's own clock and no
    earlier than the disk frees up.  CPU events never touch the timeline;
    they advance only the job's clock.

    This is the same PDM arithmetic :class:`StripedDevice` uses for one
    job's own stripes, lifted to *cross-job* contention: with D disks and
    enough concurrent jobs, aggregate I/O time approaches ``serial / D``,
    while a lone job still pays full service time for every access.
    """

    def __init__(self, disks: int = 1):
        if disks < 1:
            raise DeviceError(f"need at least one disk, got {disks}")
        self.disks = disks
        self.free_at = [0.0] * disks
        self.busy_seconds = [0.0] * disks

    def issue(self, now: float, service_seconds: float) -> float:
        """Schedule one access at or after ``now``; return completion time."""
        disk = min(range(self.disks), key=lambda d: (self.free_at[d], d))
        start = max(now, self.free_at[disk])
        end = start + service_seconds
        self.free_at[disk] = end
        self.busy_seconds[disk] += service_seconds
        return end

    @property
    def makespan(self) -> float:
        """Latest completion time scheduled so far."""
        return max(self.free_at)

    def utilization(self) -> dict[int, float]:
        """Per-disk busy time as a fraction of the makespan."""
        horizon = self.makespan
        if horizon <= 0:
            return {}
        return {
            disk: self.busy_seconds[disk] / horizon
            for disk in range(self.disks)
        }
