import numpy as np
import pytest
from scipy import stats

from qsdsim import (InvalidParameterError, NoiseStream, sample_dxi,
                    sample_dxi_block)
from qsdsim import noise
from qsdsim.noise import moment_audit


class TestComplexIncrement:
    def test_rejects_degenerate_dt(self):
        s = NoiseStream(1)
        for dt in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                sample_dxi(dt, s)
            with pytest.raises(InvalidParameterError):
                sample_dxi_block(dt, 4, s)

    def test_rejects_a_count_that_is_not_a_whole_number(self):
        for n, message in ((0, ">= 1"), (-3, ">= 1"), (2.5, "whole number"),
                           (True, "whole number")):
            with pytest.raises(InvalidParameterError, match=message):
                sample_dxi_block(1e-3, n, NoiseStream(1))
            with pytest.raises(InvalidParameterError, match=message):
                moment_audit(1e-3, n, NoiseStream(1))
        assert len(sample_dxi_block(1e-3, 3.0, NoiseStream(1))) == 3

    def test_moments(self):
        s = NoiseStream(7)
        n = 1_000_000
        dt = 1e-3
        dxi = sample_dxi_block(dt, n, s)
        assert abs(dxi.mean()) < 4.0 * np.sqrt(dt / n)
        assert abs((dxi ** 2).mean()) < 4.0 * dt / np.sqrt(n)
        assert abs(np.mean(np.abs(dxi) ** 2) - dt) < 0.01 * dt

    def test_real_imag_independent_half_dt(self):
        s = NoiseStream(8)
        dxi = sample_dxi_block(0.2, 200_000, s)
        assert abs(np.mean(dxi.real ** 2) - 0.1) < 4.0 * 0.1 * np.sqrt(2.0 / 200_000)
        assert abs(np.mean(dxi.imag ** 2) - 0.1) < 4.0 * 0.1 * np.sqrt(2.0 / 200_000)
        assert abs(np.mean(dxi.real * dxi.imag)) < 4.0 * 0.1 / np.sqrt(200_000)

    def test_phase_rotation_invariance(self):
        # marginals of u * dxi match those of an independent dxi sample
        u = np.exp(0.73j)
        a = sample_dxi_block(1.0, 50_000, NoiseStream(11, 0))
        b = u * sample_dxi_block(1.0, 50_000, NoiseStream(11, 1))
        for part in ("real", "imag"):
            ks = stats.ks_2samp(getattr(a, part), getattr(b, part))
            assert ks.pvalue > 1e-4

    def test_variance_scales_with_dt(self):
        dt0 = 0.05
        a = np.mean(np.abs(sample_dxi_block(dt0, 400_000, NoiseStream(3, 0))) ** 2)
        b = np.mean(np.abs(sample_dxi_block(2 * dt0, 400_000, NoiseStream(3, 1))) ** 2)
        assert abs(b / a - 2.0) < 0.05

    def test_block_is_the_scaled_normal_pairs(self):
        # sqrt(dt/2) (g_re + i g_im), with g drawn as (n, 2) normals
        g = NoiseStream(12, 3).standard_normal((100_000, 2))
        block = sample_dxi_block(0.07, 100_000, NoiseStream(12, 3))
        assert np.array_equal(block, np.sqrt(0.5 * 0.07) * (g[:, 0] + 1j * g[:, 1]))

    def test_block_matches_sequential_draws(self):
        block = sample_dxi_block(0.3, 50, NoiseStream(99, 4))
        s = NoiseStream(99, 4)
        seq = np.array([sample_dxi(0.3, s) for _ in range(50)])
        assert np.array_equal(block, seq)


class TestStreams:
    def test_distinct_streams_are_uncorrelated(self):
        a = sample_dxi_block(1.0, 100_000, NoiseStream(5, 0))
        b = sample_dxi_block(1.0, 100_000, NoiseStream(5, 1))
        corr = np.corrcoef(a.real, b.real)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(100_000)

    def test_spawn_and_repr(self):
        t = NoiseStream(5, 3)
        assert t.stream_index == 3 and t.master_seed == 5
        assert "stream_index=3" in repr(t)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseStream(1, -1)


def test_moment_audit_fields():
    audit = moment_audit(0.5, 10_000, NoiseStream(1))
    assert set(audit) == {"dt", "n", "mean_re", "mean_im", "mean_sq_re",
                          "mean_sq_im", "mean_abs_sq"}
    assert abs(audit["mean_abs_sq"] - 0.5) < 0.05


def test_moment_audit_refuses_a_sample_over_physical_memory(monkeypatch):
    def draw(*args):
        raise AssertionError("increments were drawn")
    monkeypatch.setattr(noise, "sample_dxi_block", draw)
    with pytest.raises(InvalidParameterError, match="physical memory"):
        moment_audit(1.0, 10 ** 12, NoiseStream(1))


def test_master_seed_uses_64_bits():
    a = NoiseStream(5).standard_normal(8)
    b = NoiseStream(5 + 2 ** 64).standard_normal(8)
    assert np.array_equal(a, b)
