import math

import numpy as np
import pytest

from gmmle.core_matrix import CountMatrix
from gmmle.mixture import ClusterLabels
from gmmle.validate import (
    MarkerPanel,
    assign_cluster_types,
    gate_cells,
    marker_ratio_table,
    mean_log_expression,
    panels_from_tsv,
)


class TestMeanLogExpression:
    def test_all_zero_grid(self):
        cm = CountMatrix.from_dense([[0, 1], [0, 2]])
        assert mean_log_expression(cm, [0], [0, 1]) == 0.0

    def test_single_cell_single_feature(self):
        count = round(math.e) - 1  # ln(1 + 2) != 1, use fractional oracle instead
        cm = CountMatrix.from_dense([[2]])
        assert mean_log_expression(cm, [0], [0]) == pytest.approx(math.log(3.0))

    def test_two_by_two_block(self):
        # grid [[0, 1], [3, 0]] -> (0 + ln2 + ln4 + 0)/4 = 3 ln 2 / 4
        cm = CountMatrix.from_dense([[0, 1], [3, 0]])
        got = mean_log_expression(cm, [0, 1], [0, 1])
        assert got == pytest.approx(3.0 * math.log(2.0) / 4.0, abs=1e-12)

    def test_empty_subset_rejected(self):
        cm = CountMatrix.from_dense([[1]])
        with pytest.raises(ValueError):
            mean_log_expression(cm, [], [0])

    def test_log_base_cancels_in_ratios(self):
        # ratio of means of logs is base-independent
        cm = CountMatrix.from_dense([[3, 3], [1, 1]])
        num_ln = mean_log_expression(cm, [0, 1], [0])
        den_ln = mean_log_expression(cm, [0, 1], [1])
        num_l2 = np.log2(1 + 3.0)
        den_l2 = np.log2(1 + 1.0)
        assert num_ln / den_ln == pytest.approx(num_l2 / den_l2, abs=1e-12)


def typed_matrix():
    """4 features x 6 cells: features 0-1 mark type A, 2-3 mark type B;
    cells 0-2 express A markers, cells 3-5 express B markers."""
    dense = np.array(
        [
            [5, 6, 5, 0, 0, 0],
            [4, 5, 6, 0, 0, 0],
            [0, 0, 0, 5, 6, 5],
            [0, 0, 0, 6, 5, 4],
        ]
    )
    cm = CountMatrix.from_dense(dense, feature_ids=["a1", "a2", "b1", "b2"])
    labels = ClusterLabels(np.array([0, 0, 0, 1, 1, 1]), 2)
    panels = [MarkerPanel("A", ("a1", "a2")), MarkerPanel("B", ("b1", "b2"))]
    return cm, labels, panels


class TestAssignClusterTypes:
    def test_clear_assignment(self):
        cm, labels, panels = typed_matrix()
        assert assign_cluster_types(cm, labels, panels) == {0: "A", 1: "B"}

    def test_swapped_blocks_swap_assignment(self):
        cm, labels, panels = typed_matrix()
        swapped = ClusterLabels(1 - labels.labels, 2)
        assert assign_cluster_types(cm, swapped, panels) == {0: "B", 1: "A"}

    def test_all_zero_cluster_ties_to_first_panel(self):
        dense = np.array([[0, 5], [0, 4]])
        cm = CountMatrix.from_dense(dense, feature_ids=["a1", "b1"])
        labels = ClusterLabels(np.array([0, 1]), 2)
        panels = [MarkerPanel("A", ("a1",)), MarkerPanel("B", ("b1",))]
        with pytest.warns(UserWarning, match="tie"):
            assignment = assign_cluster_types(cm, labels, panels)
        assert assignment[0] == "A"

    def test_relabeling_invariance(self):
        cm, labels, panels = typed_matrix()
        base = assign_cluster_types(cm, labels, panels)
        perm = {0: 1, 1: 0}
        relabeled = ClusterLabels(
            np.array([perm[v] for v in labels.labels]), 2
        )
        moved = assign_cluster_types(cm, relabeled, panels)
        assert {perm[c]: t for c, t in base.items()} == moved

    def test_unresolvable_panel_feature_warns_and_drops(self):
        cm, labels, panels = typed_matrix()
        panels = [MarkerPanel("A", ("a1", "a2", "GHOST")), panels[1]]
        with pytest.warns(UserWarning, match="GHOST"):
            assignment = assign_cluster_types(cm, labels, panels)
        assert assignment == {0: "A", 1: "B"}

    def test_fully_unresolvable_panel_errors(self):
        cm, labels, _ = typed_matrix()
        with pytest.raises(ValueError, match="resolve"):
            assign_cluster_types(cm, labels, [MarkerPanel("X", ("nope",))])


class TestMarkerRatioTable:
    def test_uniform_counts_closed_form(self):
        # own markers uniformly 3, other markers uniformly 1 in assigned
        # cells: ratio = ln4/ln2 = 2
        dense = np.array(
            [
                [3, 3, 1, 1],
                [1, 1, 3, 3],
            ]
        )
        cm = CountMatrix.from_dense(dense, feature_ids=["a1", "b1"])
        labels = ClusterLabels(np.array([0, 0, 1, 1]), 2)
        panels = [MarkerPanel("A", ("a1",)), MarkerPanel("B", ("b1",))]
        table = marker_ratio_table(cm, labels, panels, assign_cluster_types(cm, labels, panels))
        assert table["A"] == pytest.approx(math.log(4.0) / math.log(2.0), abs=1e-12)
        assert table["B"] == pytest.approx(2.0, abs=1e-12)

    def test_identical_expression_gives_ratio_one(self):
        dense = np.ones((4, 6), dtype=int) * 2
        cm = CountMatrix.from_dense(dense, feature_ids=["a1", "a2", "b1", "b2"])
        labels = ClusterLabels(np.array([0, 0, 0, 1, 1, 1]), 2)
        panels = [MarkerPanel("A", ("a1", "a2")), MarkerPanel("B", ("b1", "b2"))]
        with pytest.warns(UserWarning, match="tie"):
            table = marker_ratio_table(cm, labels, panels, assign_cluster_types(cm, labels, panels))
        for value in table.values():
            if value is not None:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_absent_type_reported_none(self):
        cm, labels, panels = typed_matrix()
        # C's lone marker b2 scores below B's fuller panel in cluster 1 and
        # zero in cluster 0, so no cluster is ever typed C
        panels = panels + [MarkerPanel("C", ("b2",))]
        with pytest.warns(UserWarning, match="zero denominator"):
            # A's cells express no other-panel markers at all, so A is also
            # reported absent (zero denominator), with a warning
            table = marker_ratio_table(cm, labels, panels, assign_cluster_types(cm, labels, panels))
        assert table["C"] is None
        assert table["A"] is None
        # B's pooled denominator includes b2 (via C), nonzero over B's cells
        assert table["B"] is not None

    def test_denominator_modes_differ_when_panels_unbalanced(self):
        dense = np.array(
            [
                [9, 9],
                [1, 1],
                [1, 1],
                [4, 4],
            ]
        )
        cm = CountMatrix.from_dense(dense, feature_ids=["a1", "b1", "b2", "c1"])
        labels = ClusterLabels(np.array([0, 0]), 1)
        panels = [
            MarkerPanel("A", ("a1",)),
            MarkerPanel("B", ("b1", "b2")),
            MarkerPanel("C", ("c1",)),
        ]
        pooled = marker_ratio_table(
            cm, labels, panels, assign_cluster_types(cm, labels, panels), denominator="pooled"
        )
        averaged = marker_ratio_table(
            cm, labels, panels, assign_cluster_types(cm, labels, panels),
            denominator="per_type_mean",
        )
        # pooled: mean over {b1, b2, c1}; averaged: mean(mean(b), mean(c))
        num = math.log(10.0)
        pooled_denom = (2 * math.log(2.0) + math.log(5.0)) / 3.0
        averaged_denom = (math.log(2.0) + math.log(5.0)) / 2.0
        assert pooled["A"] == pytest.approx(num / pooled_denom, abs=1e-12)
        assert averaged["A"] == pytest.approx(num / averaged_denom, abs=1e-12)


class TestGateCells:
    def gate_fixture(self):
        # features: NANOG, KLF17, GATA3, SOX17; 4 cells
        dense = np.array(
            [
                [5, 0, 2, 1],
                [2, 3, 1, 1],
                [0, 0, 1, 0],
                [0, 2, 0, 0],
            ]
        )
        return CountMatrix.from_dense(
            dense, feature_ids=["NANOG", "KLF17", "GATA3", "SOX17"]
        )

    def test_presence_absence_rules(self):
        cm = self.gate_fixture()
        got = gate_cells(
            cm, np.arange(4), ["NANOG", "KLF17"], ["GATA3", "SOX17"]
        )
        # cell 0: NANOG=5, KLF17=2, GATA3=0, SOX17=0 -> retained
        # cell 1: NANOG=0 -> fails positive rule
        # cell 2: GATA3=1 -> fails negative rule
        # cell 3: SOX17 present? row SOX17 = [0,2,0,0] -> cell3=0; NANOG=1,
        #         KLF17=1, GATA3=0 -> retained
        assert got.tolist() == [0, 3]

    def test_negative_marker_rejects(self):
        cm = self.gate_fixture()
        got = gate_cells(cm, np.arange(4), ["KLF17"], ["GATA3"])
        # KLF17 >= 1: cells 0,1,2,3 have KLF17 = 2,3,1,1 -> all pass positive
        # GATA3 == 0: GATA3 row = [0,0,1,0] -> cell 2 rejected
        assert got.tolist() == [0, 1, 3]

    def test_monotone_in_min_pos(self):
        cm = self.gate_fixture()
        sets = [
            set(gate_cells(cm, np.arange(4), ["NANOG"], [], min_pos=m).tolist())
            for m in (1, 2, 5, 6)
        ]
        for smaller, larger in zip(sets[1:], sets):
            assert smaller <= larger

    def test_missing_marker_errors(self):
        cm = self.gate_fixture()
        with pytest.raises(ValueError, match="GHOST"):
            gate_cells(cm, np.arange(4), ["GHOST"], [])

    def test_subset_restriction(self):
        cm = self.gate_fixture()
        got = gate_cells(cm, np.array([1, 2, 3]), ["KLF17"], [])
        assert got.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("thresholds, message", [
        ({"min_pos": 0}, "min_pos must be >= 1, got 0"),
        ({"min_pos": -2}, "min_pos must be >= 1, got -2"),
        ({"max_neg": -1}, "max_neg must be >= 0, got -1"),
    ], ids=["min-pos-zero", "min-pos-negative", "max-neg-negative"])
    def test_thresholds_that_cannot_act_rejected(self, thresholds, message):
        """min_pos 0 would pass every cell and max_neg -1 none."""
        cm = self.gate_fixture()
        with pytest.raises(ValueError, match=message):
            gate_cells(cm, np.arange(4), ["NANOG"], ["GATA3"], **thresholds)


def test_panels_from_tsv_order_and_grouping():
    text = "A\ta1\nB\tb1\nA\ta2\n\n# comment\nB\tb2\n"
    panels = panels_from_tsv(text)
    assert [p.name for p in panels] == ["A", "B"]
    assert panels[0].features == ("a1", "a2")
    assert panels[1].features == ("b1", "b2")
    with pytest.raises(ValueError, match="line"):
        panels_from_tsv("A\ta1\textra\n")
