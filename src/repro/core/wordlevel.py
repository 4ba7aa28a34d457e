"""Word-level refresh study (the extension the paper declined to build).

Section 4.3.1: "word-level refresh is also possible, but is not studied
due to the excessive hardware overheads."  This module quantifies that
trade-off.  With partial refresh, only retentions below the threshold
trigger refreshing; at word granularity only the *weak words* of a weak
line are refreshed (64 bits = one sense-amp cycle each) instead of the
whole 512-bit line (8 cycles), but every word needs its own retention
counter -- 8x the counter hardware.

Because within-line variation is dominated by independent per-cell
randomness, a weak line usually contains exactly one weak word, so
word-level refresh cuts refresh bandwidth and energy by nearly 8x -- and
still the paper's call stands: the scheme spends 8x the counters to
shave overheads that the line-level schemes already keep under ~10%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.array.chip import ChipBuildTask
from repro.technology import calibration


@dataclass(frozen=True)
class RefreshOverheads:
    """Steady-state refresh overheads of one granularity choice."""

    granularity: str
    refresh_events_per_cycle: float
    blocked_cycle_fraction: float
    """Fraction of cycles the refresh holds a sub-array pair's ports."""
    energy_per_cycle_joules: float
    counter_bits: int

    def power_watts(self, frequency: float) -> float:
        """Refresh dynamic power at ``frequency``."""
        return self.energy_per_cycle_joules * frequency


@dataclass(frozen=True)
class WordLevelComparison:
    """Line-level vs word-level partial refresh on one chip."""

    line_level: RefreshOverheads
    word_level: RefreshOverheads
    weak_lines: int
    weak_words: int

    @property
    def bandwidth_saving(self) -> float:
        """Blocked-cycle reduction of word-level refresh (0..1)."""
        if self.line_level.blocked_cycle_fraction == 0:
            return 0.0
        return 1.0 - (
            self.word_level.blocked_cycle_fraction
            / self.line_level.blocked_cycle_fraction
        )

    @property
    def counter_hardware_ratio(self) -> float:
        """Counter bits of word-level relative to line-level (the paper's
        'excessive hardware overhead')."""
        if self.line_level.counter_bits == 0:
            return 0.0
        return self.word_level.counter_bits / self.line_level.counter_bits


def compare_refresh_granularity(
    task: ChipBuildTask,
    threshold_cycles: int = 6000,
    counter_bits: int = 3,
) -> WordLevelComparison:
    """Quantify line-level vs word-level partial refresh for ``task``'s chip.

    ``task`` is a reserved one-point 3T1D build (see
    :meth:`~repro.array.chip.ChipSampler.reserve_build_tasks`); its word
    map is solved here, and each line's retention is its row minimum.
    Steady-state model: every resident line whose (line or word) retention
    sits in ``(0, threshold)`` is refreshed once per its retention period,
    as the partial-refresh policy does while data lives past the
    threshold.  Dead lines/words (retention zero) are never refreshed.
    """
    if threshold_cycles < 1:
        raise ConfigurationError("threshold_cycles must be >= 1")
    node = task.points[0].node
    geometry = task.geometry
    word_cycles = task.word_retention() * node.frequency
    line_cycles = word_cycles.min(axis=1)
    words_per_line = word_cycles.shape[1]

    weak_line_mask = (line_cycles > 0) & (line_cycles < threshold_cycles)
    weak_word_mask = (word_cycles > 0) & (word_cycles < threshold_cycles)
    # A word only needs refreshing if its line is otherwise alive.
    weak_word_mask &= (line_cycles > 0)[:, None]

    line_energy = calibration.refresh_line_energy(node)
    cycles_per_line_refresh = geometry.refresh_cycles_per_line
    n_pairs = geometry.n_pairs

    line_rate = float(np.sum(1.0 / line_cycles[weak_line_mask]))
    line_level = RefreshOverheads(
        granularity="line",
        refresh_events_per_cycle=line_rate,
        blocked_cycle_fraction=min(
            1.0, line_rate * cycles_per_line_refresh / n_pairs
        ),
        energy_per_cycle_joules=line_rate * line_energy,
        counter_bits=geometry.n_lines * counter_bits,
    )

    word_rate = float(np.sum(1.0 / word_cycles[weak_word_mask]))
    word_level = RefreshOverheads(
        granularity="word",
        refresh_events_per_cycle=word_rate,
        blocked_cycle_fraction=min(1.0, word_rate * 1.0 / n_pairs),
        energy_per_cycle_joules=word_rate * line_energy / words_per_line,
        counter_bits=geometry.n_lines * words_per_line * counter_bits,
    )
    return WordLevelComparison(
        line_level=line_level,
        word_level=word_level,
        weak_lines=int(np.sum(weak_line_mask)),
        weak_words=int(np.sum(weak_word_mask)),
    )
