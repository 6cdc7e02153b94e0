"""Tests for the paper's workload-suite constants."""

from repro.workloads.registry import (
    FIG8_TRAIN,
    FIG8_VALIDATION,
    FIG9_TRAIN,
    FIG9_VALIDATION,
    FIG10_NETWORKS,
    FIG11_NETWORKS,
    TABLE12_NETWORKS,
    available_networks,
    get_network,
)


class TestSuiteRegistration:
    def test_every_suite_member_is_registered(self):
        registered = set(available_networks())
        for suite in (
            TABLE12_NETWORKS,
            FIG8_TRAIN,
            FIG8_VALIDATION,
            FIG9_TRAIN,
            FIG9_VALIDATION,
            FIG10_NETWORKS,
            FIG11_NETWORKS,
        ):
            assert set(suite) <= registered

    def test_table12_has_seven_networks(self):
        assert len(TABLE12_NETWORKS) == 7

    def test_fig9_validation_has_eight(self):
        """Section 4.4: a validation set consisting of eight new networks."""
        assert len(FIG9_VALIDATION) == 8

    def test_generalization_splits_are_disjoint(self):
        assert not set(FIG8_TRAIN) & set(FIG8_VALIDATION)
        assert not set(FIG9_TRAIN) & set(FIG9_VALIDATION)

    def test_fig11_covers_fsrcnn_resolutions(self):
        fsrcnn = [n for n in FIG11_NETWORKS if n.startswith("fsrcnn")]
        assert len(fsrcnn) == 3

    def test_fig10_subset_of_paper_workloads(self):
        assert set(FIG10_NETWORKS) == {"unet", "srgan", "bert", "vit"}

    def test_fig11_workloads_are_dense_prediction(self):
        for name in FIG11_NETWORKS:
            network = get_network(name)
            assert network.family in ("sr", "segmentation")
