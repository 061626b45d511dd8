import itertools
import math

import numpy as np
import pytest

from ehrpath import alignment as alignment_module
from ehrpath.alignment import align_path, fix_correct_predictions, hungarian_assign, step_targets
from ehrpath.generator import PROB_FLOOR
from oracles import pla_loss


def dist_from_probs(probs):
    return np.asarray(probs, dtype=np.float64)


def brute_force_assignment(cost, pinned):
    """Minimum total cost over all completions that respect the pins, by
    exhaustive enumeration over injective label placements."""
    n_steps, n_labels = cost.shape
    fixed_cols = set(pinned.values())
    free_cols = [j for j in range(n_labels) if j not in fixed_cols]
    free_rows = [t for t in range(n_steps) if t not in pinned]
    base = [cost[t, j] for t, j in pinned.items()]
    best = None
    for rows in itertools.permutations(free_rows, len(free_cols)):
        total = math.fsum(base + [cost[t, j] for t, j in zip(rows, free_cols)])
        if best is None or total < best:
            best = total
    return math.fsum(base) if best is None else best


def as_matrix(assigned, shape):
    """The 0/1 (steps, labels) matrix of a step -> column assignment."""
    matrix = np.zeros(shape, dtype=np.int8)
    for t, j in assigned.items():
        matrix[t, j] = 1
    return matrix


def assignment_cost(matrix, cost):
    rows, cols = np.nonzero(matrix)
    return math.fsum(cost[t, j] for t, j in sorted(zip(rows.tolist(), cols.tolist())))


class TestFixCorrectPredictions:
    def test_both_predictions_pinned(self):
        assert fix_correct_predictions([0, 1], {0, 1}) == {0: 0, 1: 1}

    def test_duplicate_prediction_first_step_wins(self):
        assert fix_correct_predictions([3, 3], {3}) == {0: 3}

    def test_prefix_miss_then_hits(self):
        # path (C, B, A) with gold {A, B}: steps 2 and 3 pin B and A
        assert fix_correct_predictions([5, 2, 1], {1, 2}) == {1: 2, 2: 1}

    def test_non_gold_predictions_ignored(self):
        assert fix_correct_predictions([7, 8, 9], {0, 1}) == {}


class TestHungarian:
    def test_single_cell(self):
        out = hungarian_assign(np.array([[2.5]]), {})
        np.testing.assert_array_equal(as_matrix(out, (1, 1)), [[1]])

    def test_two_by_two_diagonal(self):
        out = hungarian_assign(np.array([[1.0, 2.0], [3.0, 1.0]]), {})
        np.testing.assert_array_equal(as_matrix(out, (2, 2)), np.eye(2, dtype=np.int8))
        assert assignment_cost(as_matrix(out, (2, 2)), np.array([[1.0, 2.0], [3.0, 1.0]])) == 2.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n_steps = int(rng.integers(1, 8))
            n_labels = int(rng.integers(1, n_steps + 1))
            cost = rng.uniform(0.0, 10.0, size=(n_steps, n_labels))
            out = hungarian_assign(cost, {})
            assert (assignment_cost(as_matrix(out, cost.shape), cost)
                    == brute_force_assignment(cost, {}))

    def test_pins_always_kept_and_completion_optimal(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            n_steps = int(rng.integers(2, 7))
            n_labels = int(rng.integers(2, n_steps + 1))
            cost = rng.uniform(0.0, 10.0, size=(n_steps, n_labels))
            pin_step = int(rng.integers(0, n_steps))
            pin_col = int(rng.integers(0, n_labels))
            pinned = {pin_step: pin_col}
            out = hungarian_assign(cost, pinned)
            assert out[pin_step] == pin_col
            assert assignment_cost(as_matrix(out, cost.shape), cost) == pytest.approx(
                brute_force_assignment(cost, pinned), abs=1e-12)

    def test_integer_costs_tie_exactness(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 4, size=(n, n)).astype(float)
            out = hungarian_assign(cost, {})
            assert (assignment_cost(as_matrix(out, cost.shape), cost)
                    == brute_force_assignment(cost, {}))

    def test_more_labels_than_steps_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            hungarian_assign(np.zeros((1, 2)), {})

    def test_all_label_columns_claimed_once(self):
        rng = np.random.default_rng(20)
        cost = rng.uniform(size=(6, 4))
        matrix = as_matrix(hungarian_assign(cost, {2: 1}), cost.shape)
        assert np.all(matrix.sum(axis=0) == 1)
        assert np.all(matrix.sum(axis=1) <= 1)

    def test_duplicate_pin_column_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assign(np.zeros((3, 2)), {0: 1, 1: 1})


def supervised(alignment, n_steps, stop_id):
    """step_targets as one list: each step's target, None at weight 0."""
    targets, weights = step_targets(alignment, n_steps, stop_id)
    assert set(weights.tolist()) <= {0.0, 1.0}
    return [int(t) if w else None for t, w in zip(targets, weights)]


class TestStepTargets:
    def test_stop_at_first_unassigned(self):
        assert supervised({0: 4, 1: 9}, 3, stop_id=11) == [4, 9, 11]

    def test_no_stop_when_every_step_assigned(self):
        assert supervised({0: 9, 1: 4}, 2, stop_id=11) == [9, 4]

    def test_only_first_gap_supervised(self):
        assert supervised({0: 4}, 3, stop_id=11) == [4, 11, None]


class TestPlaLoss:
    def test_perfect_probabilities_zero_loss(self):
        stop = 3  # 3 real codes, stop=3, unk=4
        d1 = dist_from_probs([1.0, 1e-30, 1e-30, 1e-30, 1e-30])
        d2 = dist_from_probs([1e-30, 1e-30, 1e-30, 1.0, 1e-30])
        assert pla_loss([d1, d2], {0: 0}) == pytest.approx(0.0, abs=1e-9)

    def test_single_label_e_minus_one_each(self):
        e1 = math.exp(-1.0)
        rest = (1.0 - e1) / 4.0
        d1 = dist_from_probs([e1, rest, rest, rest, rest])
        d2 = dist_from_probs([rest, rest, rest, e1, rest])
        assert pla_loss([d1, d2], {0: 0}) == pytest.approx(2.0, abs=1e-12)

    def test_three_label_case_matches_oracle_assignment_and_direct_sum(self):
        rng = np.random.default_rng(23)
        labels = (0, 2, 4)
        dists = []
        for _ in range(4):
            p = rng.dirichlet(np.ones(7))  # 5 real codes + stop + unk
            dists.append(dist_from_probs(p))
        cost = np.array([[-np.log(d[c]) for c in labels] for d in dists[:3]])
        assigned = hungarian_assign(cost, {})
        matrix = as_matrix(assigned, cost.shape)
        assert assignment_cost(matrix, cost) == brute_force_assignment(cost, {})
        expected = assignment_cost(matrix, cost) - np.log(dists[3][5])
        alignment = {t: labels[j] for t, j in assigned.items()}
        assert pla_loss(dists, alignment) == pytest.approx(expected, abs=1e-12)

    def test_loss_non_increasing_when_assigned_probability_rises(self):
        labels = (1,)
        lo = dist_from_probs([0.2, 0.2, 0.2, 0.2, 0.2])
        hi = dist_from_probs([0.2, 0.4, 0.2, 0.1, 0.1])
        alignment = {0: labels[0]}
        assert pla_loss([hi], alignment) <= pla_loss([lo], alignment)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            assert pla_loss([dist_from_probs(p)], {0: 2}) >= 0.0


class TestAlignPath:
    # exact zeros and probabilities below the floor on both gold labels, 1 and 3
    FLOORED = np.array([[0.0, 0.6, 1e-13, 0.0, 0.4, 0.0],
                        [0.3, 0.0, 0.7, 5e-13, 0.0, 0.0],
                        [0.0, 1e-20, 0.0, 0.0, 0.0, 1.0]])

    def test_pins_survive_into_alignment(self, monkeypatch):
        rng = np.random.default_rng(25)
        drawn = np.array([dist_from_probs(rng.dirichlet(np.ones(6))) for _ in range(3)])
        costs = []

        def recording(cost, pinned):
            costs.append(cost)
            return hungarian_assign(cost, pinned)

        monkeypatch.setattr(alignment_module, "hungarian_assign", recording)
        for dists in (drawn, self.FLOORED):
            greedy = [int(np.argmax(d)) for d in dists]
            gold = {greedy[0], 3} if greedy[0] != 3 else {3, 1}
            costs.clear()
            alignment = align_path(dists, greedy, gold)
            pins = fix_correct_predictions(greedy, gold)
            for t, code in pins.items():
                assert alignment[t] == code
            # the cost is one gather, bit for bit the per-entry floored -log,
            # and the per-entry cost gives the same assignment
            labels = sorted(gold)
            per_entry = np.array([[-np.log(max(float(d[c]), PROB_FLOOR)) for c in labels]
                                  for d in dists])
            (cost,) = costs
            assert cost.shape == per_entry.shape and cost.tobytes() == per_entry.tobytes()
            pinned = {t: labels.index(code) for t, code in pins.items()}
            assert {t: labels[j] for t, j in hungarian_assign(per_entry, pinned).items()} \
                == alignment

    def test_labels_sorted_ascending(self):
        # equal costs everywhere: the assignment's tie-break sends the
        # ascending labels to the steps in order
        dists = np.array([dist_from_probs(np.full(6, 1 / 6)) for _ in range(2)])
        assert align_path(dists, [0, 0], {3, 1}) == {0: 1, 1: 3}
