import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gopo.core import (
    BusinessContext,
    CsaState,
    ExpertState,
    MilestoneRecord,
    Response,
    Trajectory,
    TurnRecord,
)
from gopo.metrics import (
    _BLEU_CHUNK,
    METRIC_CSV_HEADER,
    MetricReport,
    TseConfig,
    aggregate,
    bleu,
    gre,
    tse,
)
from conftest import make_reward
from oracles import oracle_bleu

CFG = TseConfig(task_weights=(0.5, 0.3, 0.2), decay=0.9)


def _traj_with_scores(per_turn_scores, milestones=None, episode_id=0):
    turns = []
    for i, scores in enumerate(per_turn_scores):
        state = ExpertState((), "inquire", "calm", None, phase=1, turn=i + 1)
        csa = CsaState((1,), None, BusinessContext(0, 0))
        resp = Response(tokens=(1, 2), markers=frozenset())
        reward = make_reward(0.5, 0.5, scores, (0.4, 0.6))
        turns.append(TurnRecord(state, csa, resp, reward))
    return Trajectory(
        episode_id=episode_id,
        turns=tuple(turns),
        milestones=milestones or MilestoneRecord(),
        seed=0,
        terminal_reason="horizon",
    )


class TestTse:
    def test_nothing_completed(self):
        assert tse(MilestoneRecord(), CFG) == 0.0

    def test_all_completed_first_opportunity(self):
        m = MilestoneRecord(completed=(True, True, True), turns=(1, 2, 3))
        assert tse(m, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        m = MilestoneRecord(completed=(True, True, True), turns=(2, 4, 6))
        assert tse(m, CFG) == pytest.approx(0.90, abs=1e-9)

    def test_skip_convention_uses_last_completed(self):
        # milestone 2 skipped: milestone 3's delay is measured from milestone 1
        m = MilestoneRecord(completed=(True, False, True), turns=(2, None, 5))
        expected = 0.5 * 0.9**1 + 0.2 * 0.9 ** (5 - 2 - 1)
        assert tse(m, CFG) == pytest.approx(expected, abs=1e-12)

    def test_skip_convention_no_prior_completion(self):
        m = MilestoneRecord(completed=(False, True, False), turns=(None, 4, None))
        assert tse(m, CFG) == pytest.approx(0.3 * 0.9**3, abs=1e-12)

    def test_bounds(self):
        m = MilestoneRecord(completed=(True, True, True), turns=(5, 9, 12))
        assert 0.0 <= tse(m, CFG) <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10))
    def test_later_completion_never_scores_higher(self, n1, d2, d3):
        m = MilestoneRecord(completed=(True, True, True), turns=(n1, n1 + d2, n1 + d2 + d3))
        later = MilestoneRecord(
            completed=(True, True, True), turns=(n1 + 1, n1 + d2 + 1, n1 + d2 + d3 + 1)
        )
        assert tse(later, CFG) <= tse(m, CFG) + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(CFG, task_weights=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            dataclasses.replace(CFG, decay=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(CFG, decay=1.5)


class TestGre:
    def test_maximum(self):
        t = _traj_with_scores([(1, 1, 1, 0.2)] * 3)
        assert gre(t) == pytest.approx(10.0)

    def test_minimum(self):
        t = _traj_with_scores([(0, 0, 0, 1.0)] * 2)
        assert gre(t) == 0.0

    def test_hand_case(self):
        t = _traj_with_scores([(1, 1, 1, 0), (0.5, 0.5, 0.5, 0)])
        assert gre(t) == pytest.approx(7.5)

    def test_diversity_dimension_excluded(self):
        low_div = _traj_with_scores([(1, 1, 1, 0.0)])
        high_div = _traj_with_scores([(1, 1, 1, 1.0)])
        assert gre(low_div) == gre(high_div)

    def test_turn_order_invariant(self):
        a = _traj_with_scores([(1, 0, 1, 0), (0, 1, 0, 0)])
        b = _traj_with_scores([(0, 1, 0, 0), (1, 0, 1, 0)])
        assert gre(a) == pytest.approx(gre(b))

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            gre(_traj_with_scores([]))


class TestBleu:
    def test_identity(self):
        corpus = [(1, 2, 3), (4, 5)]
        assert bleu(corpus, corpus) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert bleu([(1, 2)], [(3, 4)]) == 0.0

    def test_hand_case_two_grams(self):
        # p1 = 3/4 and p2 = 2/3; both nonzero so no smoothing fires
        expected = math.exp(0.5 * math.log(3 / 4) + 0.5 * math.log(2 / 3))
        assert bleu([(0, 1, 2, 3)], [(0, 1, 2, 4)], max_n=2) == pytest.approx(
            expected, abs=1e-9
        )

    def test_smoothing_on_zero_higher_order(self):
        # unigrams overlap but no bigram does: p2 falls back to 1/(count+1)
        cand, ref = (1, 2, 3), (2, 1, 4)
        p1 = 2 / 3
        p2 = 1 / (2 + 1)
        expected = math.exp(0.5 * math.log(p1) + 0.5 * math.log(p2))
        assert bleu([cand], [ref], max_n=2) == pytest.approx(expected, abs=1e-12)

    def test_brevity_penalty(self):
        # candidate shorter than reference with perfect precisions: the
        # score reduces to the brevity penalty alone
        val = bleu([(1, 2)], [(1, 2, 3, 4)], max_n=2)
        assert val == pytest.approx(math.exp(1 - 4 / 2), abs=1e-12)

    def test_short_candidates_drop_missing_orders(self):
        # single-token corpus has no bigrams at all: only p1 counts
        assert bleu([(5,)], [(5,)], max_n=4) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([(1,)], [(1,), (2,)])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=8), min_size=1, max_size=4))
    def test_identity_property(self, corpus):
        corpus = [tuple(c) for c in corpus]
        assert bleu(corpus, corpus) == pytest.approx(1.0, abs=1e-9)


def _corpus(rng, n, vocab, max_len, min_len=1):
    return [
        tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(min_len, max_len + 1))))
        for _ in range(n)
    ]


class TestBleuMatchesOracle:
    """``bleu`` counts with arrays over chunks of pairs; its counts are exact
    integers, so it must return the oracle's float exactly."""

    def _check(self, cands, refs, max_n=4):
        assert bleu(cands, refs, max_n) == oracle_bleu(cands, refs, max_n)

    def test_random_corpora(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            vocab = int(rng.choice([2, 5, 64]))
            max_n = int(rng.integers(1, 7))
            self._check(_corpus(rng, n, vocab, 12), _corpus(rng, n, vocab, 12), max_n)

    def test_single_token_responses(self):
        rng = np.random.default_rng(1)
        self._check(_corpus(rng, 30, 4, 1), _corpus(rng, 30, 4, 1))
        self._check(_corpus(rng, 30, 4, 1), _corpus(rng, 30, 4, 5))
        self._check(_corpus(rng, 30, 4, 5), _corpus(rng, 30, 4, 1))

    def test_max_n_above_every_length(self):
        rng = np.random.default_rng(2)
        cands, refs = _corpus(rng, 20, 3, 4), _corpus(rng, 20, 3, 4)
        for max_n in (5, 9):
            self._check(cands, refs, max_n)

    def test_disjoint_corpora(self):
        rng = np.random.default_rng(3)
        cands = _corpus(rng, 25, 10, 8)
        refs = [tuple(t + 10 for t in r) for r in _corpus(rng, 25, 10, 8)]
        assert bleu(cands, refs) == oracle_bleu(cands, refs) == 0.0

    def test_large_token_ids(self):
        # ids past 2**16 and near 2**62: a number built from raw ids per
        # order would overflow int64
        rng = np.random.default_rng(4)
        for base in (2**16, 2**40, 2**62):
            cands = [tuple(base + t for t in c) for c in _corpus(rng, 30, 6, 10)]
            refs = [tuple(base + t for t in r) for r in _corpus(rng, 30, 6, 10)]
            self._check(cands, refs)
            self._check(cands, cands)

    @pytest.mark.parametrize("n", [_BLEU_CHUNK - 1, _BLEU_CHUNK, _BLEU_CHUNK + 1])
    def test_corpus_sizes_around_the_chunk(self, n):
        rng = np.random.default_rng(n)
        cands, refs = _corpus(rng, n, 8, 10), _corpus(rng, n, 8, 10)
        self._check(cands, refs)
        # each candidate against another pair's reference: n-grams shared
        # across pairs must not count
        shifted = refs[1:] + refs[:1]
        self._check(cands, shifted)


class TestAggregate:
    def _refs_for(self, trajs):
        return [[t.response.tokens for t in traj.turns] for traj in trajs]

    def test_singleton_has_zero_std(self):
        m = MilestoneRecord(completed=(True, False, False), turns=(1, None, None))
        t = _traj_with_scores([(1, 1, 1, 0)] * 2, milestones=m)
        rep = aggregate([t], CFG, self._refs_for([t]), variant="full")
        assert rep.episodes == 1
        assert rep.tse_std == 0.0 and rep.gre_std == 0.0
        assert rep.tse_mean == pytest.approx(tse(m, CFG))
        assert rep.bleu == pytest.approx(1.0)

    def test_duplicates_have_zero_std(self):
        t = _traj_with_scores([(1, 0, 1, 0)] * 3)
        rep = aggregate([t, t, t], CFG, self._refs_for([t, t, t]))
        assert rep.tse_std == 0.0 and rep.gre_std == 0.0

    def test_two_trajectory_mean(self):
        m1 = MilestoneRecord(completed=(True, True, True), turns=(2, 4, 6))  # 0.9
        m2 = MilestoneRecord(completed=(True, True, True), turns=(1, 2, 3))  # 1.0
        a = _traj_with_scores([(1, 1, 1, 0)], milestones=m1, episode_id=1)
        b = _traj_with_scores([(1, 1, 1, 0)], milestones=m2, episode_id=2)
        rep = aggregate([a, b], CFG, self._refs_for([a, b]))
        assert rep.tse_mean == pytest.approx(0.95)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], CFG, [])

    def test_reference_shape_checked(self):
        t = _traj_with_scores([(1, 1, 1, 0)] * 2)
        with pytest.raises(ValueError):
            aggregate([t], CFG, [[(1, 2)]])  # one ref for two turns

    def test_csv_row_matches_header(self):
        rep = MetricReport("full", 3, 0.5, 0.1, 7.0, 0.2, 0.3, 0.6)
        assert len(rep.csv_row().split(",")) == len(METRIC_CSV_HEADER.split(","))
