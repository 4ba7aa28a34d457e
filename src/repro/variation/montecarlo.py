"""Per-chip Monte-Carlo variation sampling.

A :class:`VariationSampler` turns a (node, scenario) pair into a stream of
:class:`ChipVariation` draws.  Each draw fixes the chip's correlated
components (die-to-die gate-length offset and the per-sub-array within-die
gate-length deviations) and carries a dedicated random generator for the
cell-level random-dopant draws, which the cell/array models sample lazily
in vectorised form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.technology.node import TechnologyNode
from repro.variation.parameters import VariationParams
from repro.variation.quadtree import QuadTreeSampler

DEFAULT_SUBARRAY_ROWS: int = 2
DEFAULT_SUBARRAY_COLS: int = 4
"""The 64KB cache's 8 sub-arrays laid out as a 2 x 4 grid on the die."""


def validate_chip_count(count: int) -> int:
    """Validate a Monte-Carlo batch size; returns it for chaining.

    The one shared count check behind every batch-sampling entry point
    (:meth:`~repro.array.chip.ChipSampler.sample_3t1d_chips`,
    :meth:`~repro.array.chip.ChipSampler.sample_sram_chips`, seed
    reservation), so they all reject bad sizes with the same error.
    """
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
        raise ConfigurationError(
            f"chip count must be an integer, got {type(count).__name__}"
        )
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    return int(count)


def normal_draws(
    rng: np.random.Generator,
    sigma: float,
    size=None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Zero-mean Gaussian draws with standard deviation ``sigma``.

    The one draw primitive behind every per-cell variation sample.  Pass
    exactly one of ``size`` (a new array of that shape) or ``out``
    (float64, C-contiguous, filled in place); anything else is a
    :class:`~repro.errors.ConfigurationError`.  For ``sigma > 0`` the
    values and the generator's end state equal
    ``rng.normal(0.0, sigma, size)``: numpy computes that as
    ``0.0 + sigma * z`` over the same standard-normal stream, so scaling
    ``rng.standard_normal`` in place reproduces it (an exact ``-0.0`` draw
    would keep its sign, which no cell model can observe).  ``sigma <= 0``
    yields zeros and consumes nothing.
    """
    if (size is None) == (out is None):
        raise ConfigurationError(
            "normal_draws needs exactly one of size or out"
        )
    if out is None:
        out = np.empty(size)
    if sigma > 0:
        rng.standard_normal(out=out)
        out *= sigma
    else:
        out.fill(0.0)
    return out


class SharedNormalField:
    """One per-cell Gaussian field shared by every operating point of a chip.

    A chip seed realised at several operating points (node, scenario,
    supply, 6T cell size) consumes the same standard-normal stream at
    each; only sigma differs.  :meth:`draw` consumes the field once and
    :meth:`scaled` hands point ``i`` the product
    ``np.multiply(z, sigmas[i])`` -- the IEEE operation
    :func:`normal_draws` performs -- so every point's values equal its
    own ``normal_draws`` call bit for bit.  A one-point field *is* that
    call, scaled in place (so it may have ``sigma <= 0``); a shared field
    keeps the raw draws and needs every sigma ``> 0``, since
    ``normal_draws`` consumes nothing at sigma 0.
    """

    def __init__(self, shape, sigmas: Sequence[float]):
        self.sigmas = tuple(float(sigma) for sigma in sigmas)
        if not self.sigmas:
            raise ConfigurationError("a field needs at least one point")
        if len(self.sigmas) > 1 and min(self.sigmas) <= 0:
            raise ConfigurationError(
                "operating points that share a field need sigma > 0 each, "
                f"got {self.sigmas}"
            )
        self._z = np.empty(shape)
        self._out: Optional[np.ndarray] = None

    def draw(self, rng: np.random.Generator) -> None:
        """Consume the next field of ``rng``'s stream."""
        if len(self.sigmas) == 1:
            normal_draws(rng, self.sigmas[0], out=self._z)
        else:
            rng.standard_normal(out=self._z)

    def scaled(
        self,
        point: int,
        rows: slice = slice(None),
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Point ``point``'s draws of the current field, rows ``rows``.

        A one-point field returns a view of its draws.  A shared field
        writes them into ``out`` (shaped like those rows), or into one
        full-size buffer of its own when ``out`` is omitted, which is
        overwritten by the next call.
        """
        z = self._z[rows]
        if len(self.sigmas) == 1:
            return z
        if out is None:
            if self._out is None:
                self._out = np.empty(self._z.shape)
            out = self._out[rows]
        return np.multiply(z, self.sigmas[point], out=out)


def shared_generator(chips: Sequence["ChipVariation"]) -> np.random.Generator:
    """The generator one chip's operating points draw their fields from.

    ``chips`` are one chip seed realised at several operating points.
    Sharing their per-cell draws is exact only if every generator stands
    at the same state after the chip-level draws (die-to-die and
    quad-tree), so that is checked, never assumed.  Returns the first
    point's generator; :func:`continue_from` then hands its end state on.
    """
    rng = chips[0].rng
    state = rng.bit_generator.state
    for chip in chips[1:]:
        if chip.rng.bit_generator.state != state:
            raise ConfigurationError(
                f"chip {chip.chip_id}: operating points can share draws "
                "only from one generator state; this point's chip-level "
                "draws left it elsewhere"
            )
    return rng


def continue_from(
    chips: Sequence["ChipVariation"], rng: np.random.Generator
) -> None:
    """Move every point's generator to ``rng``'s state after shared draws,
    so each continues as if it had drawn the fields itself."""
    state = rng.bit_generator.state
    for chip in chips:
        if chip.rng is not rng:
            chip.rng.bit_generator.state = state


@dataclass
class ChipVariation:
    """The frozen correlated-variation state of one sampled chip.

    Attributes
    ----------
    node:
        Technology node the chip is manufactured in.
    params:
        Variation scenario used for the draw.
    delta_l_d2d:
        Die-to-die gate-length offset in meters (one value per chip).
    delta_l_subarray:
        Within-die correlated gate-length deviation per sub-array, meters;
        shape ``(n_subarrays,)``.  Devices within a sub-array share this
        value (strongly correlated gate lengths within a sub-array).
    rng:
        Chip-private random generator used for the independent per-device
        threshold-voltage draws.
    chip_id:
        Sequence number of the draw (useful for labeling chips in plots).
    """

    node: TechnologyNode
    params: VariationParams
    delta_l_d2d: float
    delta_l_subarray: np.ndarray
    rng: np.random.Generator
    chip_id: int = 0

    @property
    def n_subarrays(self) -> int:
        """Number of sub-arrays with distinct correlated gate length."""
        return int(self.delta_l_subarray.shape[0])

    def delta_l_total(self, subarray: int) -> float:
        """Total correlated gate-length deviation for ``subarray``, meters."""
        if not 0 <= subarray < self.n_subarrays:
            raise ConfigurationError(
                f"subarray index {subarray} out of range [0, {self.n_subarrays})"
            )
        return self.delta_l_d2d + float(self.delta_l_subarray[subarray])


@dataclass
class VariationSampler:
    """Generates :class:`ChipVariation` draws for a node and scenario.

    The sampler is deterministic for a given ``seed``: re-creating it
    reproduces the exact same sequence of chips, which keeps all paper
    experiments reproducible.
    """

    node: TechnologyNode
    params: VariationParams
    seed: int = 0
    subarray_rows: int = DEFAULT_SUBARRAY_ROWS
    subarray_cols: int = DEFAULT_SUBARRAY_COLS
    quadtree_levels: int = 3
    _root_rng: np.random.Generator = field(init=False, repr=False)
    _quadtree: QuadTreeSampler = field(init=False, repr=False)
    _next_chip_id: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        if self.subarray_rows < 1 or self.subarray_cols < 1:
            raise ConfigurationError("sub-array grid dimensions must be >= 1")
        self._root_rng = np.random.default_rng(self.seed)
        self._quadtree = QuadTreeSampler.grid(
            self.subarray_rows, self.subarray_cols, levels=self.quadtree_levels
        )

    @property
    def n_subarrays(self) -> int:
        """Sub-arrays per chip."""
        return self.subarray_rows * self.subarray_cols

    def reserve_chip_seeds(self, count: int) -> List[Tuple[int, int]]:
        """Reserve ``count`` upcoming ``(chip_id, chip_seed)`` draws.

        Seeds come off the root generator in sequence order, so reserving
        a batch and building the chips elsewhere (e.g. in worker
        processes, via :meth:`chip_from_seed`) yields exactly the chips
        :meth:`sample_chip` would have produced serially.
        """
        count = validate_chip_count(count)
        reserved = []
        for _ in range(count):
            chip_id = self._next_chip_id
            self._next_chip_id += 1
            reserved.append(
                (chip_id, int(self._root_rng.integers(0, 2 ** 63 - 1)))
            )
        return reserved

    def chip_from_seed(self, chip_id: int, chip_seed: int) -> ChipVariation:
        """Build the chip a reserved ``(chip_id, chip_seed)`` describes.

        Stateless with respect to the sampler sequence: any process can
        rebuild any reserved chip, bit-identically.
        """
        chip_rng = np.random.default_rng(chip_seed)
        delta_l_d2d = (
            chip_rng.normal(0.0, self.params.sigma_l_d2d(self.node))
            if self.params.sigma_l_d2d_rel > 0
            else 0.0
        )
        delta_l_subarray = self._quadtree.sample(
            self.params.sigma_l_wid(self.node), chip_rng
        )
        return ChipVariation(
            node=self.node,
            params=self.params,
            delta_l_d2d=float(delta_l_d2d),
            delta_l_subarray=delta_l_subarray,
            rng=chip_rng,
            chip_id=chip_id,
        )

    def sample_chip(self) -> ChipVariation:
        """Draw the next chip in the deterministic sequence.

        A chip-private generator decouples cell-level draw counts from
        the chip sequence: chip k is identical no matter how the caller
        uses the per-chip generator of earlier chips.
        """
        ((chip_id, chip_seed),) = self.reserve_chip_seeds(1)
        return self.chip_from_seed(chip_id, chip_seed)
