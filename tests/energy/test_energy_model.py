"""Tests for the energy model and activity accounting (Fig. 11 substrate)."""

import pytest

from repro.energy.activity import ActivityCounters
from repro.energy.energy_model import EnergyModel, EnergyParams


def counters(**kwargs):
    c = ActivityCounters()
    for k, v in kwargs.items():
        setattr(c, k, v)
    return c


class TestActivityCounters:
    def test_reset(self):
        c = counters(buffer_writes=5, cycles=10)
        c.reset()
        assert c.buffer_writes == 0
        assert c.cycles == 0

    def test_snapshot_roundtrip(self):
        c = counters(buffer_reads=3, link_traversals=7)
        snap = c.snapshot()
        assert snap["buffer_reads"] == 3
        assert ActivityCounters(**snap).link_traversals == 7

    def test_from_counters_takes_declared_fields_only(self):
        """A result's counters dict also carries engine bookkeeping
        (kernel cycles, profile spans, partition keys)."""
        snap = counters(buffer_reads=3, cycles=9).snapshot()
        snap.update(vec_kernel_cycles=9, span_kernel_us=12, partition_domains=4)
        built = ActivityCounters.from_counters(snap)
        assert built == counters(buffer_reads=3, cycles=9)
        assert ActivityCounters.from_counters({}) == ActivityCounters()


class TestEnergyModel:
    def make(self, k=1):
        return EnergyModel(
            radix=5, num_vcs=6, buffer_depth=5, virtual_inputs=k,
            num_routers=64, flit_width_bits=128,
        )

    def test_crossbar_geometry(self):
        assert self.make(1).crossbar_rows == 5
        assert self.make(2).crossbar_rows == 10
        assert self.make(2).crossbar_cols == 5

    def test_vix_crossbar_traversal_costs_1_5x(self):
        """(10+5)/(5+5) = 1.5x span -> 1.5x per-traversal energy."""
        assert self.make(2).xbar_traversal_pj == pytest.approx(
            1.5 * self.make(1).xbar_traversal_pj
        )

    def test_component_accounting_is_linear(self):
        model = self.make()
        c1 = counters(buffer_writes=10, buffer_reads=10, xbar_traversals=10,
                      link_traversals=10, flits_ejected=10, cycles=10)
        c2 = counters(buffer_writes=20, buffer_reads=20, xbar_traversals=20,
                      link_traversals=20, flits_ejected=20, cycles=20)
        b1, b2 = model.evaluate(c1), model.evaluate(c2)
        assert b2.total == pytest.approx(2 * b1.total)
        assert b2.per_bit == pytest.approx(b1.per_bit)

    def test_per_bit_components_sum_to_total(self):
        model = self.make()
        c = counters(buffer_writes=100, buffer_reads=100, xbar_traversals=100,
                     link_traversals=80, flits_ejected=100, cycles=50)
        bd = model.evaluate(c)
        comp = bd.per_bit_components()
        assert sum(comp.values()) == pytest.approx(bd.per_bit)

    def test_zero_bits_rejected(self):
        bd = self.make().evaluate(counters(cycles=10))
        with pytest.raises(ValueError):
            _ = bd.per_bit

    def test_idle_network_burns_clock_and_leakage_only(self):
        bd = self.make().evaluate(counters(cycles=100, flits_ejected=1))
        assert bd.buffer == 0
        assert bd.crossbar == 0
        assert bd.link == 0
        assert bd.clock > 0
        assert bd.leakage > 0

    def test_custom_params(self):
        params = EnergyParams(link_pj=10.0)
        model = EnergyModel(radix=5, num_vcs=6, buffer_depth=5, params=params)
        bd = model.evaluate(counters(link_traversals=3, flits_ejected=1))
        assert bd.link == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(radix=0, num_vcs=6, buffer_depth=5)


class TestVixOverheadShape:
    def test_same_activity_vix_costs_a_few_percent_more(self):
        """With identical traffic, VIX pays only for the bigger crossbar —
        the Fig. 11 result (~+4%)."""
        act = counters(
            buffer_writes=1600, buffer_reads=1600, xbar_traversals=1600,
            link_traversals=1350, flits_ejected=1600, cycles=1000,
        )
        base = EnergyModel(radix=5, num_vcs=6, buffer_depth=5,
                           virtual_inputs=1).evaluate(act)
        vix = EnergyModel(radix=5, num_vcs=6, buffer_depth=5,
                          virtual_inputs=2).evaluate(act)
        overhead = vix.total / base.total - 1
        assert 0.01 < overhead < 0.08
        comp_b = base.per_bit_components()
        comp_v = vix.per_bit_components()
        assert comp_v["crossbar"] > comp_b["crossbar"]
        assert comp_v["buffer"] == pytest.approx(comp_b["buffer"])
        assert comp_v["link"] == pytest.approx(comp_b["link"])
