"""Tests for layer specs and GEMM lowering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.layers import (
    Conv2D,
    DepthwiseConv2D,
    Gemm,
    GemmShape,
    conv_out_dim,
    pointwise_conv,
)


class TestGemmShape:
    def test_macs(self):
        assert GemmShape(2, 3, 4).macs == 24

    def test_rejects_zero_dim(self):
        with pytest.raises(WorkloadError):
            GemmShape(0, 1, 1)

    def test_rejects_bad_penalty(self):
        with pytest.raises(WorkloadError):
            GemmShape(1, 1, 1, reuse_penalty=0.0)
        with pytest.raises(WorkloadError):
            GemmShape(1, 1, 1, reuse_penalty=1.5)

    def test_scaled_keeps_m_k(self):
        shape = GemmShape(4, 100, 8).scaled(0.5)
        assert (shape.m, shape.k) == (4, 8)
        assert shape.n == 50


class TestConvOutDim:
    @pytest.mark.parametrize(
        "in_dim,kernel,stride,padding,expected",
        [
            (224, 3, 1, "same", 224),
            (224, 3, 2, "same", 112),
            (224, 7, 2, "same", 112),
            (224, 16, 16, "valid", 14),
            (5, 3, 1, "valid", 3),
        ],
    )
    def test_values(self, in_dim, kernel, stride, padding, expected):
        assert conv_out_dim(in_dim, kernel, stride, padding) == expected

    def test_unknown_padding(self):
        with pytest.raises(WorkloadError):
            conv_out_dim(10, 3, 1, "reflect")

    def test_valid_too_small(self):
        with pytest.raises(WorkloadError):
            conv_out_dim(2, 3, 1, "valid")


class TestConv2D:
    def test_gemm_lowering_im2col(self):
        conv = Conv2D(
            name="c",
            in_channels=3,
            out_channels=64,
            in_h=32,
            in_w=32,
            kernel=3,
        )
        gemm = conv.to_gemm()
        assert gemm.m == 64
        assert gemm.n == 32 * 32
        assert gemm.k == 3 * 3 * 3

    def test_strided_output(self):
        conv = Conv2D(
            name="c", in_channels=3, out_channels=8, in_h=32, in_w=32, kernel=3, stride=2
        )
        assert conv.out_h == 16 and conv.out_w == 16

    def test_macs_formula(self):
        conv = Conv2D(
            name="c", in_channels=4, out_channels=8, in_h=10, in_w=10, kernel=3
        )
        assert conv.macs == 8 * 10 * 10 * 4 * 9

    def test_count_multiplies_total(self):
        conv = Conv2D(
            name="c", count=3, in_channels=4, out_channels=8, in_h=10, in_w=10, kernel=3
        )
        assert conv.total_macs == 3 * conv.macs

    def test_bad_count(self):
        with pytest.raises(WorkloadError):
            Conv2D(name="c", count=0, in_channels=1, out_channels=1, in_h=4, in_w=4)


class TestDepthwiseConv2D:
    def test_gemm_has_reuse_penalty(self):
        dw = DepthwiseConv2D(name="d", channels=32, in_h=16, in_w=16)
        gemm = dw.to_gemm()
        assert gemm.reuse_penalty < 1.0
        assert gemm.m == 32
        assert gemm.k == 9

    def test_macs_much_smaller_than_dense(self):
        dw = DepthwiseConv2D(name="d", channels=32, in_h=16, in_w=16)
        dense = Conv2D(
            name="c", in_channels=32, out_channels=32, in_h=16, in_w=16, kernel=3
        )
        assert dw.macs * 32 == dense.macs


class TestGemm:
    def test_identity_lowering(self):
        gemm = Gemm(name="g", m=5, n=6, k=7)
        shape = gemm.to_gemm()
        assert (shape.m, shape.n, shape.k) == (5, 6, 7)


class TestPointwiseConv:
    def test_is_1x1(self):
        pw = pointwise_conv("p", 16, 32, 8, 8)
        assert pw.kernel == 1
        gemm = pw.to_gemm()
        assert gemm.k == 16


@given(
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(4, 64),
    st.integers(1, 5),
    st.integers(1, 2),
)
@settings(max_examples=50)
def test_conv_gemm_macs_match_loop_nest(cin, cout, hw_dim, kernel, stride):
    """im2col lowering preserves the 7D loop's MAC count."""
    conv = Conv2D(
        name="c",
        in_channels=cin,
        out_channels=cout,
        in_h=hw_dim,
        in_w=hw_dim,
        kernel=kernel,
        stride=stride,
    )
    loop_macs = conv.out_h * conv.out_w * cout * cin * kernel * kernel
    assert conv.to_gemm().macs == loop_macs
