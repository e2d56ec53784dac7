"""Statistical experiment harness tests (deterministic seeds throughout)."""

from fractions import Fraction

import pytest

from ugwldp.config_model import (
    DegreeSequence,
    cm_probability,
    colorblind,
    graph_of,
    has_cycle_leq,
)
from ugwldp.experiments import (
    concentration_envelope_delta,
    converge_experiment,
    cycles_experiment,
    degree_sequence_for_law,
    regular_intensity,
)
from ugwldp.oracle import enumerate_configurations


class TestCycleMeans:
    def test_regular_intensities(self):
        assert regular_intensity(3, 3) == 4 / 3
        assert regular_intensity(3, 4) == 2.0

    def test_means_at_two_sizes(self):
        # limiting intensities already bind at moderate sizes
        for n, samples in ((500, 2000), (2000, 2000)):
            rows = cycles_experiment(d=3, n=n, samples=samples, seed=900 + n)
            by_len = {r["length"]: r for r in rows}
            for ell in (1, 2, 3, 4):
                row = by_len[ell]
                assert abs(row["mean"] - row["target"]) <= 3 * row["stderr"], (n, row)


class TestConditionalUniformity:
    def test_constant_probability_on_short_cycle_free_set(self):
        pools = [
            DegreeSequence.single_color([2, 2, 1, 1]),
            DegreeSequence.single_color([1, 1, 2, 2, 2]),
            DegreeSequence.from_rows(
                2, [[0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]]
            ),
        ]
        for D in pools:
            probs = set()
            for sigma in enumerate_configurations(D):
                G = graph_of(sigma)
                if not has_cycle_leq(colorblind(G), 2):
                    probs.add(cm_probability(D, G))
            assert len(probs) == 1, D


class TestDegreeSequenceConstruction:
    def test_matches_law_counts(self):
        D = degree_sequence_for_law({1: Fraction(1, 2), 2: Fraction(1, 2)}, 100)
        degs = [D.D(u, (1, 1)) for u in range(100)]
        assert degs.count(1) == 50 and degs.count(2) == 50

    def test_parity_fix(self):
        D = degree_sequence_for_law({1: Fraction(1, 2), 2: Fraction(1, 2)}, 102)
        total = sum(D.D(u, (1, 1)) for u in range(102))
        assert total % 2 == 0

    def test_regular(self):
        D = degree_sequence_for_law({3: 1}, 10)
        assert all(D.D(u, (1, 1)) == 3 for u in range(10))

    @pytest.mark.parametrize(
        "law, message",
        [
            ({}, "total mass 0"),
            ({3: 0}, "total mass 0"),
            ({3: Fraction(1, 2)}, "total mass 1/2"),
            ({1: Fraction(3, 2), 2: Fraction(-1, 2)}, "negative weight"),
            ({1: Fraction(1, 2), 3: Fraction(2, 3)}, "total mass 7/6"),
        ],
    )
    def test_law_outside_the_domain_raises(self, law, message):
        with pytest.raises(ValueError, match=message):
            degree_sequence_for_law(law, 10)


class TestEnvelope:
    def test_delta_value(self):
        # depth 1, theta = 3, single color: one switch moves the count by at
        # most 8, and the mean half-edge count per vertex is 3
        delta = concentration_envelope_delta(3, 1, 1, 3.0)
        assert abs(delta - 1 / 192) < 1e-15

    def test_converge_monotone_small(self):
        rows = converge_experiment(
            {3: 1}, [100, 400], samples=60, depth=2, seed=42
        )
        assert rows[0]["tv"] > rows[1]["tv"]
