"""Tests for the MSR register file."""

import pytest

from repro.errors import MSRAddressError, MSRPermissionError, PlatformError
from repro.hw.msr import (
    ENERGY_COUNTER_MASK,
    MSRDef,
    MSRFile,
    U64_MASK,
    read_energy_delta,
)


@pytest.fixture
def msr():
    f = MSRFile(4)
    f.register(MSRDef(0x10, "COUNTER"))
    f.register(MSRDef(0x199, "CTL", writable=True))
    f.register(MSRDef(0x611, "PKG", package_scope=True))
    return f


class TestRegistration:
    def test_register_and_read_reset_value(self):
        f = MSRFile(1)
        f.register(MSRDef(0x10, "X", reset_value=42))
        assert f.read(0, 0x10) == 42

    def test_double_register_rejected(self, msr):
        with pytest.raises(MSRAddressError):
            msr.register(MSRDef(0x10, "DUP"))

    def test_is_registered(self, msr):
        assert msr.is_registered(0x10)
        assert not msr.is_registered(0xDEAD)

    def test_definition_lookup(self, msr):
        assert msr.definition(0x199).name == "CTL"

    def test_definition_unknown_raises(self, msr):
        with pytest.raises(MSRAddressError):
            msr.definition(0xDEAD)

    def test_zero_cpus_rejected(self):
        with pytest.raises(PlatformError):
            MSRFile(0)


class TestAccess:
    def test_unimplemented_read_raises(self, msr):
        with pytest.raises(MSRAddressError):
            msr.read(0, 0xDEAD)

    def test_cpu_out_of_range(self, msr):
        with pytest.raises(MSRAddressError):
            msr.read(4, 0x10)

    def test_write_readback(self, msr):
        msr.write(1, 0x199, 0x1600)
        assert msr.read(1, 0x199) == 0x1600

    def test_write_is_per_cpu(self, msr):
        msr.write(0, 0x199, 1)
        msr.write(1, 0x199, 2)
        assert msr.read(0, 0x199) == 1
        assert msr.read(1, 0x199) == 2

    def test_read_only_write_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.write(0, 0x10, 1)

    def test_oversized_write_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.write(0, 0x199, 1 << 64)

    def test_negative_write_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.write(0, 0x199, -1)

    def test_write_hook_invoked(self):
        calls = []
        f = MSRFile(2)
        f.register(MSRDef(0x20, "H", writable=True,
                          on_write=lambda cpu, v: calls.append((cpu, v))))
        f.write(1, 0x20, 99)
        assert calls == [(1, 99)]


class TestPackageScope:
    def test_shared_across_cpus(self, msr):
        msr.poke(0, 0x611, 1234)
        assert msr.read(3, 0x611) == 1234

    def test_poke_any_cpu_aliases(self, msr):
        msr.poke(2, 0x611, 77)
        assert msr.read(0, 0x611) == 77


class TestCounters:
    def test_poke_bypasses_read_only(self, msr):
        msr.poke(0, 0x10, 5)
        assert msr.read(0, 0x10) == 5

    def test_poke_masks_to_64_bits(self, msr):
        msr.poke(0, 0x10, (1 << 70) | 5)
        assert msr.read(0, 0x10) == 5


class TestEnergyDelta:
    def test_simple_delta(self):
        assert read_energy_delta(100, 150) == 50

    def test_wraparound_delta(self):
        before = ENERGY_COUNTER_MASK - 10
        after = 5
        assert read_energy_delta(before, after) == 16

    def test_zero_delta(self):
        assert read_energy_delta(7, 7) == 0

    def test_u64_mask_constant(self):
        assert U64_MASK == (1 << 64) - 1
