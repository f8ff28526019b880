"""Surface parity of the production device stacks.

A sort with faults, retries and a cache runs on
``BufferPool(RetryingDevice(FaultInjector(device)))``.  Each layer is a
:class:`~repro.io.device.DeviceLayer` that overrides only the calls it
changes, so the top of the stack must answer every part of the device
surface exactly as the bottom does.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, RetryingDevice, RetryPolicy
from repro.io import BlockDevice, BufferPool, DeviceLayer, StripedDevice

BLOCK = 256


def _serial():
    return BlockDevice(block_size=BLOCK)


def _striped():
    return StripedDevice(disks=2, block_size=BLOCK, prefetch_depth=4)


def _stack(device):
    injector = FaultInjector(device, FaultPlan())
    retrier = RetryingDevice(injector, RetryPolicy(max_retries=2))
    return BufferPool(retrier, 4)


@pytest.fixture(params=[_serial, _striped], ids=["serial", "striped"])
def stacked(request):
    device = request.param()
    start = device.allocate(8)
    for i in range(8):
        device.write_block(start + i, bytes([i]) * 8, "setup")
    return device, _stack(device), start


class TestSurfaceParity:
    def test_every_layer_is_a_device_layer(self, stacked):
        device, top, _start = stacked
        layers = []
        layer = top
        while isinstance(layer, DeviceLayer):
            layers.append(type(layer).__name__)
            layer = layer.device
        assert layers == ["BufferPool", "RetryingDevice", "FaultInjector"]
        assert layer is device

    def test_geometry_matches_the_device(self, stacked):
        device, top, start = stacked
        assert top.block_size == device.block_size == BLOCK
        assert top.disks == device.disks
        assert top.prefetch_depth == device.prefetch_depth
        assert top.stats is device.stats
        assert top.allocated_blocks == device.allocated_blocks
        assert [top.disk_of(start + i) for i in range(8)] == [
            device.disk_of(start + i) for i in range(8)
        ]

    def test_prefetch_counts(self, stacked):
        device, top, start = stacked
        ids = [start + i for i in range(6)]
        # A serial device has no window; the striped one takes 4 blocks.
        expected = min(len(ids), device.prefetch_depth)
        assert top.prefetch_blocks(ids, "r") == expected
        # A pool-resident block counts as already satisfied.
        top.read_block(start + 7, "r")
        assert top.prefetch_blocks([start + 7], "r") == 1

    def test_hold_round_trip(self, stacked):
        device, top, start = stacked
        top.read_block(start, "r")  # clean, cached in the pool
        top.write_block(start + 1, b"dirty", "w")  # dirty, never flushed
        top.push_hold()
        assert top.holding and device.holding
        top.free_blocks([start, start + 1])
        top.pop_hold(restore=True)
        assert not top.holding
        assert top.read_block(start, "r") == bytes([0]) * 8
        assert top.read_block(start + 1, "r") == b"dirty"

    def test_write_behind_reaches_the_device(self, stacked):
        device, top, start = stacked
        top.write_block_behind(start + 2, b"behind", "w")
        top.close()
        assert device.read_block(start + 2, "r") == b"behind"
