"""Evaluation-time metrics over completed trajectories.

Three complementary views of an episode: a sequence-level task-efficiency
score that rewards completing the three ordered milestones early (turn-based
decay), a response-level quality mean over the judge's politeness /
appropriateness / guidance dimensions on a 0-10 scale, and corpus-level
n-gram overlap against reference responses.  ``aggregate`` rolls a batch of
episodes into one report row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MilestoneRecord, NUM_MILESTONES, Trajectory

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TseConfig:
    """Task weights and per-turn decay of the ``tse`` score; no field has a default."""

    task_weights: tuple[float, float, float]
    decay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "task_weights", tuple(self.task_weights))
        if len(self.task_weights) != NUM_MILESTONES:
            raise ValueError(f"expected {NUM_MILESTONES} task weights")
        if any(w < 0 for w in self.task_weights):
            raise ValueError("task weights must be non-negative")
        if abs(sum(self.task_weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(
                f"task weights must sum to 1, got {sum(self.task_weights)!r}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")


def tse(record: MilestoneRecord, cfg: TseConfig) -> float:
    """Task-efficiency score of one episode, in [0, 1].

    Each completed milestone i contributes its weight decayed by the number
    of turns it took beyond the turn of the most recent previously completed
    milestone (0 if none was completed before it).  Uncompleted milestones
    contribute nothing and their turns are never read.  Exponents are clamped
    at 0, which can only matter for records violating the strictly-increasing
    turn invariant.
    """
    total = 0.0
    prev_turn = 0
    for i in range(NUM_MILESTONES):
        if not record.completed[i]:
            continue
        n_i = record.turns[i]
        exponent = max(n_i - prev_turn - 1, 0)
        total += cfg.task_weights[i] * cfg.decay**exponent
        prev_turn = n_i
    return total


def gre(trajectory: Trajectory) -> float:
    """Response-effectiveness score of one episode, in [0, 10].

    Mean over turns of ten times the mean of the judge's politeness,
    appropriateness, and guidance sub-scores (the fourth judged dimension,
    diversity, feeds the reward but not this metric).
    """
    if len(trajectory.turns) == 0:
        raise ValueError("cannot score an empty trajectory")
    per_turn = [
        10.0 * (t.reward.dim_scores[0] + t.reward.dim_scores[1] + t.reward.dim_scores[2]) / 3.0
        for t in trajectory.turns
    ]
    return sum(per_turn) / len(per_turn)


# Candidate/reference pairs counted at a time: it bounds the counting
# arrays, so memory stays flat whatever the corpus size.
_BLEU_CHUNK = 256


def _ngram_counts(cands: list, refs: list, max_n: int) -> np.ndarray:
    """The clipped (row 0) and total (row 1) candidate n-gram counts of
    candidate/reference pairs, per order ``n`` = 1..``max_n`` (columns),
    summed over the pairs: in a pair, each distinct candidate n-gram counts
    ``min(its count in the candidate, its count in the reference)``.

    The sequences are laid end to end.  A token is numbered by its rank
    among the tokens, an n-gram by the rank of its ((n-1)-gram number, last
    token) pair among all such pairs, so numbers stay below the token count
    whatever the token ids.  Within a pair, an n-gram is counted by the key
    ``pair index * number of n-grams + n-gram number``."""
    seqs = cands + refs
    lengths = np.array([len(t) for t in seqs])
    size = int(lengths.sum())
    # per position: the tokens left in its sequence, its pair, its side
    left = np.repeat(lengths.cumsum(), lengths) - np.arange(size)
    pair = np.repeat(np.tile(np.arange(len(cands)), 2), lengths)
    in_cand = np.arange(size) < lengths[: len(cands)].sum()
    kinds, tokens = np.unique(
        np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64, count=size),
        return_inverse=True,
    )
    n_tokens = len(kinds)
    grams = tokens
    counts = np.zeros((2, max_n), dtype=np.int64)
    for n in range(1, max_n + 1):
        if n > 1:
            kinds, grams = np.unique(grams[:-1] * n_tokens + tokens[n - 1 :], return_inverse=True)
        whole = left[: grams.size] >= n
        in_c = whole & in_cand[: grams.size]
        if not in_c.any():
            break  # no candidate is this long, so none is longer
        keys = pair[: grams.size] * len(kinds) + grams
        cand_keys, cand_counts = np.unique(keys[in_c], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[whole & ~in_cand[: grams.size]], return_counts=True)
        _, i, j = np.intersect1d(cand_keys, ref_keys, assume_unique=True, return_indices=True)
        counts[:, n - 1] = np.minimum(cand_counts[i], ref_counts[j]).sum(), cand_counts.sum()
    return counts


def bleu(candidates: Sequence, references: Sequence, max_n: int = 4) -> float:
    """Corpus-level n-gram overlap score in [0, 1].

    Uniform weights over n-gram orders up to ``max_n``, the standard brevity
    penalty, and add-one smoothing applied to higher-order precisions whose
    clipped count is zero (unigram precision is never smoothed, so disjoint
    corpora score exactly 0).  Orders for which the candidate corpus has no
    n-grams at all are dropped from the geometric mean.  Candidates and
    references are token sequences.

    The clipped and total counts are exact integers, counted with arrays
    over chunks of ``_BLEU_CHUNK`` pairs (``_ngram_counts``) and summed, so
    the score is the float the per-pair n-gram counts give.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference length mismatch: {len(candidates)} vs {len(references)}"
        )
    if len(candidates) == 0:
        raise ValueError("empty corpus")
    cands, refs = list(candidates), list(references)
    if any(len(c) == 0 for c in cands) or any(len(r) == 0 for r in refs):
        raise ValueError("responses must be non-empty")

    clipped, total = sum(
        _ngram_counts(cands[at : at + _BLEU_CHUNK], refs[at : at + _BLEU_CHUNK], max_n)
        for at in range(0, len(cands), _BLEU_CHUNK)
    ).tolist()

    log_precisions: list[float] = []
    for n in range(1, max_n + 1):
        if total[n - 1] == 0:
            continue  # no candidate n-grams of this order anywhere
        if clipped[n - 1] == 0:
            if n == 1:
                return 0.0
            p_n = 1.0 / (total[n - 1] + 1.0)  # add-one smoothing
        else:
            p_n = clipped[n - 1] / total[n - 1]
        log_precisions.append(math.log(p_n))

    if not log_precisions:
        return 0.0
    cand_len = sum(len(c) for c in cands)
    ref_len = sum(len(r) for r in refs)
    if cand_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(sum(log_precisions) / len(log_precisions))


METRIC_CSV_HEADER = "variant,episodes,tse_mean,tse_std,gre_mean,gre_std,bleu,joint_mean"


@dataclass(frozen=True)
class MetricReport:
    """One evaluation row, mirroring the report CSV columns."""

    variant: str
    episodes: int
    tse_mean: float
    tse_std: float
    gre_mean: float
    gre_std: float
    bleu: float
    joint_mean: float

    def csv_row(self) -> str:
        return (
            f"{self.variant},{self.episodes},{self.tse_mean:.6f},{self.tse_std:.6f},"
            f"{self.gre_mean:.6f},{self.gre_std:.6f},{self.bleu:.6f},{self.joint_mean:.6f}"
        )


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _sample_std(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def aggregate(
    trajectories: Sequence[Trajectory],
    cfg: TseConfig,
    references: Sequence[Sequence[Sequence[int]]],
    variant: str = "",
) -> MetricReport:
    """Summarize a batch of episodes into one report row.

    ``references`` supplies, per trajectory, one reference token sequence per
    turn for the overlap metric (the wire format does not carry references,
    so the caller derives them, e.g. via
    :func:`gopo.simenv.reference_responses`).  Statistics are unbiased sample
    statistics, deterministic for a fixed input ordering.
    """
    if len(trajectories) == 0:
        raise ValueError("cannot aggregate an empty trajectory list")
    if len(references) != len(trajectories):
        raise ValueError("one reference list per trajectory required")
    tses = [tse(t.milestones, cfg) for t in trajectories]
    gres = [gre(t) for t in trajectories]
    joints = [
        _mean([turn.reward.joint for turn in t.turns]) for t in trajectories
    ]
    cands: list[tuple[int, ...]] = []
    refs: list[tuple[int, ...]] = []
    for traj, traj_refs in zip(trajectories, references):
        if len(traj_refs) != len(traj.turns):
            raise ValueError(
                f"episode {traj.episode_id}: {len(traj_refs)} references for "
                f"{len(traj.turns)} turns"
            )
        for turn, ref in zip(traj.turns, traj_refs):
            cands.append(turn.response.tokens)
            refs.append(tuple(ref))
    return MetricReport(
        variant=variant,
        episodes=len(trajectories),
        tse_mean=_mean(tses),
        tse_std=_sample_std(tses),
        gre_mean=_mean(gres),
        gre_std=_sample_std(gres),
        bleu=bleu(cands, refs),
        joint_mean=_mean(joints),
    )
