import pytest

from cstack.core import AccountingError, ClassicStack, Data
from cstack.metrics import (
    DATA_BYTES,
    SIG_BYTES,
    SLOT_BYTES,
    MemoryMeter,
    resolve_p,
)


class TestResolveP:
    def test_sqrt_meets_fixed_500_at_250000(self):
        assert resolve_p("sqrt", 250_000) == 500

    def test_log_of_two_to_twenty(self):
        assert resolve_p("log", 2 ** 20) == 20

    def test_eighth_root_clamps_to_two(self):
        assert resolve_p("root8", 256) == 2

    def test_fixed_schedules_return_their_constant(self):
        for s in ("10", "50", "100", "500"):
            assert resolve_p(s, 10 ** 6) == int(s)

    def test_clamped_to_input_size(self):
        assert resolve_p("500", 16) == 16
        assert resolve_p(3, 16) == 3

    def test_fourth_root(self):
        assert resolve_p("root4", 2 ** 20) == 32

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            resolve_p("cbrt", 100)

    def test_explicit_p_below_two_rejected(self):
        for p in (-5, 0, 1, "1"):
            with pytest.raises(ValueError, match="at least 2"):
                resolve_p(p, 16)
        assert resolve_p("root8", 16) == 2  # a derived schedule still clamps

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            resolve_p("sqrt", 1)


class TestMeter:
    def test_classic_stack_cost_is_count_times_record(self):
        meter = MemoryMeter()
        s = ClassicStack(meter=meter)
        n = 37
        for i in range(1, n + 1):
            s.push(Data(i, i, None, 0))
        assert meter.live_bytes == n * DATA_BYTES

    def test_push_pop_returns_to_baseline_with_peak_of_one(self):
        meter = MemoryMeter()
        s = ClassicStack(meter=meter)
        s.push(Data(1, 1, None, 0))
        s.pop()
        assert meter.live_bytes == 0
        assert meter.peak_bytes == DATA_BYTES

    def test_peak_never_below_live(self):
        meter = MemoryMeter()
        meter.alloc_data(5)
        meter.free_data(2)
        meter.alloc_sig(1)
        assert meter.peak_bytes >= meter.live_bytes

    def test_negative_balance_fails_fast(self):
        meter = MemoryMeter()
        meter.alloc_data(1)
        with pytest.raises(AccountingError):
            meter.free_data(2)
        meter2 = MemoryMeter()
        with pytest.raises(AccountingError):
            meter2.free_sig()

    def test_cost_table_kinds(self):
        meter = MemoryMeter()
        meter.alloc_data()
        meter.alloc_sig()
        meter.alloc_slot()
        assert meter.live_bytes == DATA_BYTES + SIG_BYTES + SLOT_BYTES

    @pytest.mark.parametrize("before", [0, 1, 7])
    @pytest.mark.parametrize("count", [1, 3])
    def test_alloc_entry_matches_data_then_slot(self, before, count):
        fused, paired = MemoryMeter(), MemoryMeter()
        for meter in (fused, paired):
            meter.alloc_data(before)
            meter.alloc_sig()
            meter.free_data(before)
        fused.alloc_entry(count)
        paired.alloc_data(count)
        paired.alloc_slot(count)
        for meter in (fused, paired):
            meter.free_sig()
        fields = ("live_bytes", "peak_bytes", "live_data", "peak_data")
        assert [getattr(fused, f) for f in fields] == [getattr(paired, f) for f in fields]
        assert fused.live_bytes == count * (DATA_BYTES + SLOT_BYTES)
        fused.free_entry(count)
        paired.free_data(count)
        paired.free_slot(count)
        assert [getattr(fused, f) for f in fields] == [getattr(paired, f) for f in fields]
        assert fused.live_bytes == fused.live_data == 0

    def test_free_entry_underflow_fails_fast(self):
        meter = MemoryMeter()
        meter.alloc_entry()
        with pytest.raises(AccountingError):
            meter.free_entry(2)
        # bytes would stay positive, but no data record is live
        meter2 = MemoryMeter()
        meter2.alloc_sig()
        with pytest.raises(AccountingError):
            meter2.free_entry()
