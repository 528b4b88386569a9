"""Tests for the bus, memories, crossbar and DMA models."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim import Bram, Crossbar, PlbBus, Sdram
from repro.sim.dma import DmaEngine
from repro.sim.engine import Engine
from repro.sim.host import HostProcessor


class TestBus:
    def test_transfer_cycles_formula(self):
        eng = Engine()
        bus = PlbBus(eng, width_bytes=8, arbitration_cycles=3, address_cycles=2)
        assert bus.transfer_cycles(0) == 0
        assert bus.transfer_cycles(1) == 3 + 2 + 1
        assert bus.transfer_cycles(64) == 3 + 2 + 8
        assert bus.transfer_cycles(65) == 3 + 2 + 9

    def test_transfer_advances_time(self):
        eng = Engine()
        bus = PlbBus(eng)

        def proc():
            yield from bus.transfer(1024, requester="t")

        eng.process(proc())
        t = eng.run()
        assert t == pytest.approx(bus.cycles(bus.transfer_cycles(1024)))
        assert bus.bytes_moved == 1024

    def test_contention_serializes(self):
        eng = Engine()
        bus = PlbBus(eng)
        ends = []

        def proc(tag):
            yield from bus.transfer(1024, requester=tag)
            ends.append(eng.now)

        eng.process(proc("a"))
        eng.process(proc("b"))
        eng.run()
        single = bus.cycles(bus.transfer_cycles(1024))
        assert ends[0] == pytest.approx(single)
        assert ends[1] == pytest.approx(2 * single)

    def test_burst_splitting_interleaves(self):
        """A long transfer cannot starve a short one for its full length."""
        eng = Engine()
        bus = PlbBus(eng, typical_burst_bytes=256)
        ends = {}

        def big():
            yield from bus.transfer(4096, requester="big")
            ends["big"] = eng.now

        def small():
            yield 1e-9  # arrive just after the big one grabs the bus
            yield from bus.transfer(64, requester="small")
            ends["small"] = eng.now

        eng.process(big())
        eng.process(small())
        eng.run()
        assert ends["small"] < ends["big"]

    def test_transfer_torn_down_mid_hold_releases_the_bus(self):
        """Closing a holder's process mid-burst frees the bus for the
        waiter; the torn-down burst moves no bytes."""
        eng = Engine()
        bus = PlbBus(eng)
        hold = bus.cycles(bus.transfer_cycles(1024))
        ends = {}

        def holder():
            yield from bus.transfer(4096, requester="a")

        def waiter():
            yield 1e-9  # queue behind a's first burst
            yield from bus.transfer(1024, requester="b")
            ends["b"] = eng.now

        torn = eng.process(holder())
        eng.process(waiter())
        eng.run(until=hold / 2)
        torn._gen.close()
        eng.run()
        assert ends["b"] == pytest.approx(hold / 2 + hold)
        assert (bus.transactions, bus.bytes_moved) == (1, 1024)
        assert bus._resource._in_use == 0

    def test_theta_amortizes_overhead(self):
        eng = Engine()
        bus = PlbBus(eng, width_bytes=8, typical_burst_bytes=1024)
        pure = bus.cycles(1) / 8  # one cycle moves 8 bytes
        assert bus.theta_s_per_byte > pure
        assert bus.theta_s_per_byte < 2 * pure

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PlbBus(Engine(), width_bytes=0)
        with pytest.raises(ConfigurationError):
            PlbBus(Engine(), typical_burst_bytes=0)

    def test_negative_transfer_rejected(self):
        bus = PlbBus(Engine())
        with pytest.raises(ConfigurationError):
            bus.transfer_cycles(-1)

    def test_negative_transfer_size_raises(self):
        eng = Engine()
        bus = PlbBus(eng)

        def proc():
            yield from bus.transfer(-4096, requester="t")

        eng.process(proc())
        with pytest.raises(ConfigurationError, match="negative transfer size"):
            eng.run()
        assert bus.transactions == 0


class TestBram:
    def test_access_cycles(self):
        mem = Bram(Engine(), "m", size_bytes=4096, width_bytes=4)
        assert mem.access_cycles(16) == 4
        assert mem.access_cycles(17) == 5

    def test_two_ports_parallel_third_waits(self):
        eng = Engine()
        mem = Bram(eng, "m", size_bytes=4096)
        ends = []

        def user(tag):
            yield from mem.access(400, accessor=tag)
            ends.append(eng.now)

        for t in "abc":
            eng.process(user(t))
        eng.run()
        one = mem.cycles(mem.access_cycles(400))
        assert ends[0] == pytest.approx(one)
        assert ends[1] == pytest.approx(one)
        assert ends[2] == pytest.approx(2 * one)

    def test_oversized_access_rejected(self):
        eng = Engine()
        mem = Bram(eng, "m", size_bytes=64)

        def proc():
            yield from mem.access(100)

        eng.process(proc())
        with pytest.raises(ConfigurationError):
            eng.run()

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            Bram(Engine(), "m", size_bytes=0)


class TestSdram:
    def test_latency_plus_stream(self):
        eng = Engine()
        ram = Sdram(eng, latency_cycles=20, width_bytes=8)

        def proc():
            yield from ram.access(64, accessor="t")

        eng.process(proc())
        t = eng.run()
        assert t == pytest.approx(ram.cycles(20 + 8))
        assert ram.bytes_accessed == 64


class TestCrossbar:
    def _setup(self):
        eng = Engine()
        a = Bram(eng, "mem_a", 4096)
        b = Bram(eng, "mem_b", 4096)
        xb = Crossbar(eng, "xb", a, b)
        return eng, a, b, xb

    def test_routes_by_name(self):
        _, a, b, xb = self._setup()
        assert xb.route("mem_a") is a
        assert xb.route("mem_b") is b
        with pytest.raises(ConfigurationError):
            xb.route("zzz")

    def test_zero_overhead_switching(self):
        """Crossbar access time equals direct BRAM access time."""
        eng, a, _, xb = self._setup()

        def proc():
            yield from xb.access("mem_a", 256, accessor="host")

        eng.process(proc())
        t = eng.run()
        assert t == pytest.approx(a.cycles(a.access_cycles(256)))
        assert xb.switched_accesses == 1

    def test_same_memory_rejected(self):
        eng = Engine()
        m = Bram(eng, "m", 64)
        with pytest.raises(ConfigurationError):
            Crossbar(eng, "xb", m, m)


class TestDmaAndHost:
    def test_dma_adds_setup_latency(self):
        eng = Engine()
        bus = PlbBus(eng)
        dma = DmaEngine(eng, bus, setup_cycles=40)

        def proc():
            yield from dma.transfer(512, requester="t")

        eng.process(proc())
        t = eng.run()
        expected = dma.cycles(40) + bus.cycles(bus.transfer_cycles(512))
        assert t == pytest.approx(expected)
        assert dma.transfers == 1

    def test_dma_zero_bytes_noop(self):
        eng = Engine()
        dma = DmaEngine(eng, PlbBus(eng))

        def proc():
            yield from dma.transfer(0)
            yield 0.0

        eng.process(proc())
        assert eng.run() == 0.0
        assert dma.transfers == 0

    def test_host_software_delay(self):
        eng = Engine()
        host = HostProcessor(eng)

        def proc():
            yield from host.run_software(0.25)

        eng.process(proc())
        assert eng.run() == pytest.approx(0.25)
        assert host.software_seconds == pytest.approx(0.25)

    def test_host_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            list(HostProcessor(Engine()).run_software(-1.0))
