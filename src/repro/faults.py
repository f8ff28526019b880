"""Deterministic fault injection and checkpointed recovery for sorts.

The paper's cost model assumes every I/O succeeds; a production-scale
external sort cannot.  This module adds the robustness layer without
bending the model:

* :class:`FaultPlan` - a declarative, seeded description of which device
  accesses fail: "the Nth read", "every write from the Mth on", "the Kth
  vectored write tears", "0.1% of accesses, seeded".  Plans parse from a
  compact string (``repro sort --faults "read@5;write@12:persistent"``).
* :class:`FaultInjector` - a :class:`~repro.io.device.DeviceLayer` that
  counts access *attempts* and raises :class:`~repro.errors.DeviceFault`
  where the plan says so.  Failed attempts charge **nothing** to
  :class:`IOStats` - the model counts successful block transfers, so a
  sort that recovers ends with counters bit-identical to a fault-free
  run.
* :class:`RetryPolicy` / :class:`RetryingDevice` - bounded retries with
  exponential backoff charged to the *simulated* clock
  (:meth:`IOStats.record_penalty`), never wall time.
* :class:`Checkpoint` / :class:`RecoveryContext` - run-granular recovery:
  the merge engine and the NEXSORT subtree sorter record a checkpoint
  after every completed run, and restartable units (one merge group, one
  subtree sort) re-run from their inputs when a transient fault escapes
  the retry layer.  Device-level *recovery holds*
  (:meth:`BlockDevice.push_hold`) keep the inputs a failed attempt
  already freed restorable.  Persistent faults (and exhausted budgets)
  surface as :class:`~repro.errors.SortRecoveryError` naming the last
  completed checkpoint.

Determinism: a plan is a pure function of its rules, its seed, and the
device-call sequence, so the same configuration faults - and recovers -
identically on every run.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .errors import DeviceFault, FaultPlanError, SortRecoveryError
from .io.device import DeviceLayer

#: Operations a fault rule can target.  ``torn`` counts vectored writes
#: (``write_blocks`` calls moving 2+ blocks), not individual blocks.
FAULT_OPS = ("read", "write", "torn")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: attempts ``nth .. nth+count-1`` fail.

    Attributes:
        op: "read", "write", or "torn".
        nth: 1-based attempt index at which the fault starts firing.
        count: how many consecutive attempts fail (transient rules only;
            persistent rules fail every attempt from ``nth`` on).
        transient: whether retrying can succeed.
        category: restrict the rule to one accounting category (and count
            attempts within that category); None counts device-wide.
        disk: restrict the rule to one member disk of a striped device
            (``read@3:disk=2`` fails the 3rd read attempt that touches
            disk 2); attempts are counted among accesses touching that
            disk.  None counts across all disks.
    """

    op: str
    nth: int
    count: int = 1
    transient: bool = True
    category: str | None = None
    disk: int | None = None

    def __post_init__(self):
        if self.op not in FAULT_OPS:
            raise FaultPlanError(f"unknown fault op {self.op!r}")
        if self.nth < 1:
            raise FaultPlanError(f"fault attempt index must be >= 1: {self.nth}")
        if self.count < 1:
            raise FaultPlanError(f"fault count must be >= 1: {self.count}")
        if self.disk is not None and self.disk < 0:
            raise FaultPlanError(f"fault disk cannot be negative: {self.disk}")

    def covers(self, attempt: int) -> bool:
        """Does this rule fail the given 1-based attempt index?"""
        if attempt < self.nth:
            return False
        return not self.transient or attempt < self.nth + self.count


_CLAUSE = re.compile(
    r"(?P<op>read|write|torn)@(?P<nth>\d+)(?:\*(?P<count>\d+))?"
    r"(?P<suffixes>(?::[A-Za-z_][\w.=-]*)*)"
)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault rules plus a random fault rate.

    ``rate`` injects *transient* faults on read/write attempts with the
    given probability, drawn from ``random.Random(seed)`` - one draw per
    device call, so the fault sequence is a deterministic function of the
    plan and the access sequence.
    """

    rules: tuple[FaultRule, ...] = ()
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise FaultPlanError(f"fault rate must be in [0, 1): {self.rate}")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``--faults`` mini-language.

        Clauses are separated by ``;`` or ``,``:

        * ``read@5`` - the 5th read attempt fails (transient, once).
        * ``write@3*4`` - write attempts 3-6 fail (transient).
        * ``read@7:persistent`` - every read attempt from the 7th on fails.
        * ``write@2:run_write`` - the 2nd ``run_write`` write fails; the
          attempt counter is scoped to that category.
        * ``read@4:disk=2`` - the 4th read attempt touching member disk 2
          of a striped device fails; the counter is scoped to that disk
          (combinable with a category: ``read@4:run_read:disk=2``).
        * ``torn@1`` - the 1st vectored write tears: a prefix of its
          blocks is persisted, then the call fails (transient).
        * ``rate=0.001`` / ``seed=42`` - seeded random transient faults.
        """
        rules: list[FaultRule] = []
        rate = 0.0
        seed = 0
        for raw in re.split(r"[;,]", text):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("rate="):
                try:
                    rate = float(clause[5:])
                except ValueError:
                    raise FaultPlanError(f"bad fault rate {clause!r}") from None
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[5:])
                except ValueError:
                    raise FaultPlanError(f"bad fault seed {clause!r}") from None
                continue
            match = _CLAUSE.fullmatch(clause)
            if match is None:
                raise FaultPlanError(
                    f"bad fault clause {clause!r} (expected e.g. 'read@5', "
                    f"'write@3*2:persistent', 'torn@1', 'rate=0.01', "
                    f"'seed=42')"
                )
            transient = True
            category: str | None = None
            disk: int | None = None
            for suffix in match["suffixes"].split(":"):
                if not suffix:
                    continue
                if suffix == "persistent":
                    transient = False
                elif suffix == "transient":
                    transient = True
                elif suffix.startswith("disk="):
                    if disk is not None:
                        raise FaultPlanError(
                            f"fault clause {clause!r} names two disks"
                        )
                    try:
                        disk = int(suffix[5:])
                    except ValueError:
                        raise FaultPlanError(
                            f"bad fault disk in clause {clause!r}"
                        ) from None
                else:
                    if category is not None:
                        raise FaultPlanError(
                            f"fault clause {clause!r} names two categories"
                        )
                    category = suffix
            rules.append(
                FaultRule(
                    op=match["op"],
                    nth=int(match["nth"]),
                    count=int(match["count"] or 1),
                    transient=transient,
                    category=category,
                    disk=disk,
                )
            )
        return cls(rules=tuple(rules), rate=rate, seed=seed)

    def describe(self) -> str:
        parts = []
        for rule in self.rules:
            clause = f"{rule.op}@{rule.nth}"
            if rule.count > 1:
                clause += f"*{rule.count}"
            if not rule.transient:
                clause += ":persistent"
            if rule.category:
                clause += f":{rule.category}"
            if rule.disk is not None:
                clause += f":disk={rule.disk}"
            parts.append(clause)
        if self.rate:
            parts.append(f"rate={self.rate}")
            parts.append(f"seed={self.seed}")
        return ";".join(parts) if parts else "<empty>"


@dataclass
class FaultStats:
    """What a :class:`FaultInjector` did - wrapper-level, not IOStats."""

    injected: int = 0
    transient: int = 0
    persistent: int = 0
    torn: int = 0
    by_op: dict[str, int] = field(default_factory=dict)

    def note(self, op: str, transient: bool, torn: bool) -> None:
        self.injected += 1
        if transient:
            self.transient += 1
        else:
            self.persistent += 1
        if torn:
            self.torn += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1


class FaultInjector(DeviceLayer):
    """Raises :class:`DeviceFault` where a :class:`FaultPlan` says so.

    Attempts are counted per op, both device-wide and per category, and a
    failed attempt still advances the counters - so "the 5th read" means
    the 5th *attempt*, whether or not earlier attempts succeeded, and a
    retried access occupies a fresh attempt index.  Failed attempts never
    touch :class:`IOStats`: only the eventually successful access is
    charged, keeping recovered runs bit-identical to fault-free ones.

    A vectored access of ``k`` blocks advances the op counter by ``k``
    (it *is* ``k`` block transfers) and fails whole if any of its attempt
    indices is covered by a rule.  Vectored writes of 2+ blocks
    additionally advance the ``torn`` counter by one call; a torn fault
    persists the first half of the blocks (uncounted) before failing.
    """

    def __init__(self, device, plan: FaultPlan, tracer=None):
        super().__init__(device)
        self.plan = plan
        self.fault_stats = FaultStats()
        self._tracer = tracer
        self._rng = random.Random(plan.seed)
        # Attempt counters keyed (op, category scope, disk scope); the
        # per-disk counters only exist when the plan has disk-scoped
        # rules, so plain plans pay nothing for the striping support.
        self._attempts: dict[tuple[str, str | None, int | None], int] = {}
        self._disk_scoped = any(r.disk is not None for r in plan.rules)

    # -- attempt counting --------------------------------------------------

    def _disk_counts(self, block_ids) -> dict[int, int]:
        """Blocks per member disk, for disk-scoped attempt counting."""
        if not self._disk_scoped or not block_ids:
            return {}
        disk_of = self._device.disk_of
        counts: dict[int, int] = {}
        for block_id in block_ids:
            disk = disk_of(block_id)
            counts[disk] = counts.get(disk, 0) + 1
        return counts

    def _advance(
        self,
        op: str,
        category: str,
        count: int,
        disk_counts: dict[int, int],
    ):
        """Advance counters; return per-rule-scope attempt ranges.

        The returned map is keyed ``(category scope, disk scope)``; a
        disk-scoped rule whose disk this access never touched simply has
        no entry, so it cannot fire.
        """
        ranges = {}
        for cat_scope in (None, category):
            key = (op, cat_scope, None)
            start = self._attempts.get(key, 0)
            self._attempts[key] = start + count
            ranges[(cat_scope, None)] = (start + 1, start + count)
            for disk, disk_count in disk_counts.items():
                disk_key = (op, cat_scope, disk)
                disk_start = self._attempts.get(disk_key, 0)
                self._attempts[disk_key] = disk_start + disk_count
                ranges[(cat_scope, disk)] = (
                    disk_start + 1,
                    disk_start + disk_count,
                )
        return ranges

    def _check(
        self, op: str, category: str, count: int = 1, block_ids=None
    ) -> None:
        ranges = self._advance(
            op, category, count, self._disk_counts(block_ids)
        )
        for rule in self.plan.rules:
            if rule.op != op:
                continue
            if rule.category is not None and rule.category != category:
                continue
            scope = (rule.category, rule.disk)
            if scope not in ranges:
                continue
            first, last = ranges[scope]
            for attempt in range(first, last + 1):
                if rule.covers(attempt):
                    self._fault(
                        op, category, attempt, rule.transient,
                        disk=rule.disk,
                    )
        if self.plan.rate and op in ("read", "write"):
            if self._rng.random() < self.plan.rate:
                self._fault(op, category, ranges[(None, None)][1], True)

    def _fault(
        self,
        op: str,
        category: str,
        attempt: int,
        transient: bool,
        torn: bool = False,
        disk: int | None = None,
    ) -> None:
        kind = "transient" if transient else "persistent"
        label = "torn " if torn else ""
        self.fault_stats.note(op, transient, torn)
        if self._tracer is not None and not self._tracer.finished:
            self._tracer.event(
                "fault-injected",
                op=op,
                category=category,
                attempt=attempt,
                transient=transient,
                torn=torn,
                disk=disk,
            )
        where = f"category={category}"
        if disk is not None:
            where += f", disk={disk}"
        raise DeviceFault(
            f"injected {kind} {label}{op} fault at attempt {attempt} "
            f"({where})",
            op=op,
            category=category,
            transient=transient,
            torn=torn,
            attempt=attempt,
            disk=disk,
        )

    # -- faulting access paths ---------------------------------------------

    def read_block(self, block_id, category="other", stream=None):
        self._check("read", category, 1, [block_id])
        return self._device.read_block(block_id, category, stream=stream)

    def read_blocks(self, block_ids, category="other", stream=None):
        block_ids = list(block_ids)
        if block_ids:
            self._check("read", category, len(block_ids), block_ids)
        return self._device.read_blocks(block_ids, category, stream=stream)

    def prefetch_blocks(self, block_ids, category="other", stream=None):
        # Prefetch reads are read attempts: injected read faults hit the
        # pipeline exactly as they would hit the demand read it replaces.
        block_ids = list(block_ids)
        if block_ids:
            self._check("read", category, len(block_ids), block_ids)
        return self._device.prefetch_blocks(block_ids, category, stream=stream)

    def write_block(self, block_id, data, category="other", stream=None):
        self._check("write", category, 1, [block_id])
        self._device.write_block(block_id, data, category, stream=stream)

    def write_block_behind(self, block_id, data, category="other", stream=None):
        self._check("write", category, 1, [block_id])
        self._device.write_block_behind(block_id, data, category, stream=stream)

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        block_ids = list(block_ids)
        datas = list(datas)
        if len(block_ids) >= 2:
            self._check_torn(block_ids, datas, category)
        if block_ids:
            self._check("write", category, len(block_ids), block_ids)
        self._device.write_blocks(block_ids, datas, category, stream=stream)

    def _check_torn(self, block_ids, datas, category) -> None:
        # One torn attempt per call; disk scopes count a call once per
        # member disk it touches.
        torn_counts = {
            disk: 1 for disk in self._disk_counts(block_ids)
        }
        ranges = self._advance("torn", category, 1, torn_counts)
        for rule in self.plan.rules:
            if rule.op != "torn":
                continue
            if rule.category is not None and rule.category != category:
                continue
            scope = (rule.category, rule.disk)
            if scope not in ranges:
                continue
            attempt = ranges[scope][0]
            if rule.covers(attempt):
                # Tear: persist a prefix (uncounted), then fail the call.
                prefix = len(block_ids) // 2
                for block_id, data in zip(block_ids[:prefix], datas[:prefix]):
                    self._device.store_block_raw(block_id, data)
                self._fault(
                    "torn", category, attempt, rule.transient, torn=True,
                    disk=rule.disk,
                )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff on the simulated clock.

    The nth retry of one access waits ``backoff_seconds * multiplier**n``
    simulated seconds (n = 0 for the first retry), charged via
    :meth:`IOStats.record_penalty` - it advances the simulated clock but
    not the model counters, so recovery never distorts the paper's I/O
    accounting.
    """

    max_retries: int = 3
    backoff_seconds: float = 8e-3
    multiplier: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise FaultPlanError(
                f"max_retries cannot be negative: {self.max_retries}"
            )
        if self.backoff_seconds < 0:
            raise FaultPlanError(
                f"backoff cannot be negative: {self.backoff_seconds}"
            )

    def delay(self, retry_index: int) -> float:
        return self.backoff_seconds * self.multiplier**retry_index


@dataclass
class RetryStats:
    """What a :class:`RetryingDevice` did."""

    retries: int = 0
    penalty_seconds: float = 0.0
    exhausted: int = 0


class RetryingDevice(DeviceLayer):
    """Absorbs transient :class:`DeviceFault`\\ s by retrying the access.

    Persistent faults, and transient faults still failing after
    ``policy.max_retries`` retries, are re-raised to the caller (where a
    :class:`RecoveryContext`, if active, takes over).  Each retry emits a
    deterministic ``io-retry`` trace event and charges its backoff to the
    simulated clock.
    """

    def __init__(self, device, policy: RetryPolicy | None = None, tracer=None):
        super().__init__(device)
        self.policy = policy or RetryPolicy()
        self.retry_stats = RetryStats()
        self._tracer = tracer

    def _with_retries(self, op: str, category: str, fn):
        retry = 0
        while True:
            try:
                return fn()
            except DeviceFault as fault:
                if not fault.transient:
                    raise
                if retry >= self.policy.max_retries:
                    self.retry_stats.exhausted += 1
                    raise
                delay = self.policy.delay(retry)
                self.stats.record_penalty(delay)
                self.retry_stats.retries += 1
                self.retry_stats.penalty_seconds += delay
                retry += 1
                if self._tracer is not None and not self._tracer.finished:
                    self._tracer.event(
                        "io-retry",
                        op=op,
                        category=category,
                        retry=retry,
                        backoff=delay,
                    )

    def read_block(self, block_id, category="other", stream=None):
        return self._with_retries(
            "read",
            category,
            lambda: self._device.read_block(block_id, category, stream=stream),
        )

    def read_blocks(self, block_ids, category="other", stream=None):
        block_ids = list(block_ids)
        return self._with_retries(
            "read",
            category,
            lambda: self._device.read_blocks(
                block_ids, category, stream=stream
            ),
        )

    def prefetch_blocks(self, block_ids, category="other", stream=None):
        block_ids = list(block_ids)
        return self._with_retries(
            "read",
            category,
            lambda: self._device.prefetch_blocks(
                block_ids, category, stream=stream
            ),
        )

    def write_block(self, block_id, data, category="other", stream=None):
        self._with_retries(
            "write",
            category,
            lambda: self._device.write_block(
                block_id, data, category, stream=stream
            ),
        )

    def write_block_behind(self, block_id, data, category="other", stream=None):
        self._with_retries(
            "write",
            category,
            lambda: self._device.write_block_behind(
                block_id, data, category, stream=stream
            ),
        )

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        block_ids = list(block_ids)
        datas = list(datas)
        self._with_retries(
            "write",
            category,
            lambda: self._device.write_blocks(
                block_ids, datas, category, stream=stream
            ),
        )


# -- checkpointed recovery ----------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """One completed, durable unit of sort work.

    Attributes:
        phase: which engine recorded it ("run-formation", "merge-pass-2",
            "subtree-sort"...).
        unit: 0-based index of the unit within its phase.
        run_id: the completed run, when the unit produced one.
    """

    phase: str
    unit: int
    run_id: int | None = None

    def describe(self) -> str:
        base = f"{self.phase}#{self.unit}"
        if self.run_id is not None:
            base += f" (run {self.run_id})"
        return base


class RecoveryContext:
    """Run-granular checkpointing and restart for one sort.

    Thread one instance through a sort (like a tracer).  Engines call
    :meth:`checkpoint` after each completed run and wrap restartable
    units in :meth:`attempt`; when a transient fault escapes the
    I/O-level retries, the failed unit re-runs from its inputs - a device
    *recovery hold* keeps inputs the failed attempt freed restorable -
    instead of the sort redoing its ``O(n log_m n)`` work from scratch.
    Persistent faults and exhausted budgets raise
    :class:`SortRecoveryError` naming the last completed checkpoint.
    """

    def __init__(self, max_restarts: int = 4, tracer=None):
        if max_restarts < 0:
            raise FaultPlanError(
                f"max_restarts cannot be negative: {max_restarts}"
            )
        self.max_restarts = max_restarts
        self.restarts = 0
        self.checkpoints: list[Checkpoint] = []
        self._tracer = tracer

    @property
    def last(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    def describe_last(self) -> str:
        return self.last.describe() if self.last else "no completed checkpoint"

    def checkpoint(
        self, phase: str, unit: int, run_id: int | None = None
    ) -> Checkpoint:
        mark = Checkpoint(phase=phase, unit=unit, run_id=run_id)
        self.checkpoints.append(mark)
        if self._tracer is not None and not self._tracer.finished:
            self._tracer.event(
                "checkpoint", phase=phase, unit=unit, run=run_id
            )
        return mark

    def to_error(self, fault: DeviceFault) -> SortRecoveryError:
        kind = "persistent device fault" if not fault.transient else (
            "unrecovered transient device fault"
        )
        return SortRecoveryError(
            f"sort failed: {kind} ({fault}); last completed checkpoint: "
            f"{self.describe_last()}",
            checkpoint=self.last,
        )

    def attempt(self, phase: str, unit: int, fn, device=None):
        """Run ``fn`` with restart-on-transient-fault semantics.

        With ``device`` given, each try runs under a recovery hold so
        inputs freed by a failed try are restored for the next one.
        ``fn`` must be re-runnable from its (held) inputs and must clean
        up its own partial output on failure (e.g.
        :meth:`RunWriter.abandon`).
        """
        while True:
            if device is not None:
                device.push_hold()
            try:
                result = fn()
            except DeviceFault as fault:
                if device is not None:
                    device.pop_hold(restore=True)
                if not fault.transient or self.restarts >= self.max_restarts:
                    raise self.to_error(fault) from fault
                self.restarts += 1
                if self._tracer is not None and not self._tracer.finished:
                    self._tracer.event(
                        "unit-restart",
                        phase=phase,
                        unit=unit,
                        restart=self.restarts,
                    )
                continue
            except BaseException:
                if device is not None:
                    device.pop_hold(restore=False)
                raise
            else:
                if device is not None:
                    device.pop_hold(restore=False)
                return result


def build_faulty_device(
    device,
    plan: FaultPlan | str | None,
    retries: int = 0,
    policy: RetryPolicy | None = None,
    tracer=None,
):
    """Wrap ``device`` per the plan; returns (top device, injector, retrier).

    ``plan=None`` returns ``(device, None, None)`` unchanged.  With a
    plan, a :class:`FaultInjector` is stacked on the device; with
    ``retries > 0`` (or an explicit ``policy``) a :class:`RetryingDevice`
    goes on top of that.
    """
    if plan is None:
        return device, None, None
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    injector = FaultInjector(device, plan, tracer=tracer)
    top = injector
    retrier = None
    if policy is None and retries > 0:
        policy = RetryPolicy(max_retries=retries)
    if policy is not None:
        retrier = RetryingDevice(injector, policy, tracer=tracer)
        top = retrier
    return top, injector, retrier
