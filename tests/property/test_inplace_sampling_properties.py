"""In-place chip sampling equals the plain-numpy expressions it replaced.

Chip sampling evaluates every sub-array pair in place, in buffers
allocated once per map.  These properties pin that evaluation to
*oracles*: the allocate-per-operation numpy expressions of the cell
models and sampling loops as they were written before, spelled out here
operation by operation.  Equality is bit for bit (``tobytes``), so any
reassociation, reordering or lost select shows up.

(a) ``normal_draws`` versus ``rng.normal(0.0, sigma, size)``: same values
    and same generator end state; ``sigma == 0`` consumes nothing.
(b) the in-place pair evaluation (3T1D retention and leakage, 6T access
    time and leakage) versus the oracle, on adversarial inputs: exact
    zeros, dead cells, 6T read paths with no overdrive (infinite access
    time), extreme gate-length deviation, and widths that are not a
    multiple of the 64-bit word.
(c) whole retention maps and 6T chips versus the old per-pair loops.
(d) one chip seed built at several operating points at once (the
    runner's keyed ``build_chips`` request) versus one build per point,
    through every registered backend.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import units
from repro.array import CacheGeometry, ChipSampler, cactimodel
from repro.array.chip import SRAMChipSample, _dram_samples, _sram_samples
from repro.cells import DRAM3T1DCell, RetentionModel, SRAM6TCell
from repro.cells import dram3t1d, sram6t
from repro.cells.leakage import (
    LEAKAGE_ROLLOFF_PER_REL_L,
    LEAKAGE_VARIATION_IDEALITY,
)
from repro.engine.config import EngineConfig
from repro.engine.parallel import ParallelChipRunner, run_build_task
from repro.technology import NODE_32NM, NODE_45NM, NODE_65NM, calibration
from repro.technology.backends import (
    WORDS_PER_LINE,
    backend_names,
    get_backend,
)
from repro.technology.transistor import ALPHA_POWER_EXPONENT
from repro.errors import ConfigurationError
from repro.variation import VariationParams, normal_draws

PROPERTY_SETTINGS = settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

NODES = st.sampled_from([
    NODE_65NM, NODE_45NM, NODE_32NM, NODE_32NM.scaled(vdd=1.0),
])

#: Per-cell threshold/boost deviations: ordinary spreads plus exact
#: zeros of both signs and values far enough out to kill a cell.
DEVIATIONS = st.one_of(
    st.floats(-0.25, 0.25, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.6, -0.6, 0.95, 1.2]),
)


def cell_blocks(elements=DEVIATIONS):
    """Same-shaped (rows, cells) blocks, widths up to past one word."""
    return st.tuples(
        st.integers(1, 5), st.integers(1, 70)
    ).flatmap(lambda shape: st.tuples(*(
        arrays(np.float64, shape, elements=elements) for _ in range(3)
    )))


def relative_gate_lengths():
    """Correlated gate-length deviation relative to L, incl. extremes."""
    return st.one_of(
        st.floats(-0.45, 0.45, allow_nan=False),
        st.sampled_from([0.0, -0.45, 0.45]),
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Oracles: the expressions as written before in-place evaluation
# ---------------------------------------------------------------------------


def oracle_leakage_factor(delta_vth, delta_l_rel, share, ideality):
    slope = ideality * units.thermal_voltage(units.SIMULATION_TEMPERATURE_C)
    effective_shift = np.asarray(delta_vth) + LEAKAGE_ROLLOFF_PER_REL_L * (
        np.asarray(delta_l_rel)
    )
    exponential = np.exp(-effective_shift / slope)
    return share * exponential + (1.0 - share)


def oracle_stored(node, d_t1, delta_l):
    vth_t1 = (
        node.vth
        + np.asarray(d_t1)
        + dram3t1d.MARGIN_ROLLOFF_PER_REL_L
        * np.asarray(delta_l) / node.feature_size
    )
    return np.maximum(node.vdd - vth_t1 - dram3t1d.BODY_EFFECT_SHIFT, 0.0)


def oracle_required(node, d_t2, delta_l, eps):
    vth_t2 = (
        node.vth
        + np.asarray(d_t2)
        + dram3t1d.MARGIN_ROLLOFF_PER_REL_L
        * np.asarray(delta_l) / node.feature_size
    )
    overdrive = dram3t1d.read_overdrive_required(node)
    base = (vth_t2 + overdrive) / dram3t1d.BOOST_RATIO
    return base * (1.0 - np.asarray(eps))


def oracle_retention(node, d_t1, d_t2, delta_l, eps):
    nominal_margin = float(
        oracle_stored(node, 0.0, 0.0) - oracle_required(node, 0.0, 0.0, 0.0)
    )
    nominal_rate = nominal_margin / calibration.nominal_retention_time(node)
    margin = np.asarray(oracle_stored(node, d_t1, delta_l)) - np.asarray(
        oracle_required(node, d_t2, delta_l, eps)
    )
    factor = oracle_leakage_factor(
        d_t1,
        np.asarray(delta_l) / node.feature_size,
        dram3t1d.STORAGE_SUBTHRESHOLD_SHARE,
        dram3t1d.STORAGE_LEAK_IDEALITY,
    )
    rate = np.asarray(nominal_rate * factor)
    return np.where(margin > 0.0, margin / rate, 0.0)


def oracle_3t1d_leakage(node, d_t2, delta_l):
    factor = oracle_leakage_factor(
        d_t2,
        np.asarray(delta_l) / node.feature_size,
        dram3t1d.LEAKAGE_SENSITIVE_SHARE_3T1D,
        LEAKAGE_VARIATION_IDEALITY,
    )
    return DRAM3T1DCell(node).nominal_cell_leakage_power() * factor


def oracle_on_current(transistor, delta_vth=0.0, delta_l=0.0):
    node = transistor.node
    relative = np.asarray(delta_l) / transistor.length
    vth = node.vth + delta_vth + transistor.vth_rolloff_rel * relative
    length = transistor.length + np.asarray(delta_l)
    overdrive = np.maximum(np.asarray(node.vdd) - vth, 0.0)
    return (
        calibration.drive_constant_for_node(node)
        * (transistor.width / length)
        * overdrive ** ALPHA_POWER_EXPONENT
    )


def oracle_access_time(cell, delta_vth, delta_l, periphery_factor):
    transistor = cell.read_transistor
    current = np.asarray(
        oracle_on_current(transistor, delta_vth, delta_l)
        / oracle_on_current(transistor)
    )
    with np.errstate(divide="ignore"):
        bitline = np.where(
            current > 0.0,
            calibration.BITLINE_FRACTION / np.maximum(current, 1e-12),
            np.inf,
        )
    wordline = calibration.WORDLINE_FRACTION * np.asarray(periphery_factor)
    return calibration.nominal_access_time(cell.node) * (
        bitline + wordline + calibration.PERIPHERY_FRACTION
    )


def oracle_sram_leakage(cell, delta_vth, delta_l):
    factor = oracle_leakage_factor(
        delta_vth,
        np.asarray(delta_l) / cell.node.feature_size,
        sram6t.LEAKAGE_SENSITIVE_SHARE_6T,
        LEAKAGE_VARIATION_IDEALITY,
    )
    return cell.nominal_cell_leakage_power() * factor


def oracle_word_minima(cell_retention):
    """Per-word minima of a (rows, cells) block; tag cells join word 0."""
    rows, cells = cell_retention.shape
    data_bits = WORDS_PER_LINE * 64
    words = np.min(
        cell_retention[:, :data_bits].reshape(rows, WORDS_PER_LINE, 64),
        axis=2,
    )
    if cells > data_bits:
        words[:, 0] = np.minimum(
            words[:, 0], np.min(cell_retention[:, data_bits:], axis=1)
        )
    return words


def oracle_retention_map(chip, geometry, rng):
    """The 3T1D sampling loop as written before in-place evaluation."""
    node, params = chip.node, chip.params
    cell = DRAM3T1DCell(node)
    sigma_vth = params.sigma_vth(node) * dram3t1d.DEVICE_AREA_SIGMA_SCALE
    sigma_eps = dram3t1d.DIODE_BOOST_SIGMA_FACTOR * params.sigma_vth_rel
    rows, cells = geometry.rows_per_pair, geometry.cells_per_line
    retention = np.empty(geometry.n_lines)
    words = np.empty((geometry.n_lines, WORDS_PER_LINE))
    leakage = 0.0
    for pair in range(geometry.n_pairs):
        sub_a, sub_b = geometry.subarrays_of_pair(pair)
        delta_l = 0.5 * (chip.delta_l_total(sub_a) + chip.delta_l_total(sub_b))
        shape = (rows, cells)
        if sigma_vth > 0:
            d_t1 = rng.normal(0.0, sigma_vth, size=shape)
            d_t2 = rng.normal(0.0, sigma_vth, size=shape)
        else:
            d_t1 = np.zeros(shape)
            d_t2 = np.zeros(shape)
        eps = (
            rng.normal(0.0, sigma_eps, size=shape)
            if sigma_eps > 0
            else np.zeros(shape)
        )
        cell_retention = oracle_retention(node, d_t1, d_t2, delta_l, eps)
        line_ids = np.arange(rows) * geometry.n_pairs + pair
        retention[line_ids] = np.min(cell_retention, axis=1)
        words[line_ids] = oracle_word_minima(cell_retention)
        leakage += float(np.sum(oracle_3t1d_leakage(node, d_t2, delta_l)))
    return retention, words, leakage


def oracle_sram_chip(chip, geometry, size_factor):
    """The 6T sampling loop as written before in-place evaluation."""
    cell = SRAM6TCell(chip.node, size_factor=size_factor)
    sigma_min = chip.params.sigma_vth(chip.node)
    sigma = sigma_min * cell.mismatch_scale
    rows, cells = geometry.rows_per_pair, geometry.cells_per_line
    access_by_line = np.empty(geometry.n_lines)
    leakage = 0.0
    for pair in range(geometry.n_pairs):
        sub_a, sub_b = geometry.subarrays_of_pair(pair)
        delta_l = 0.5 * (chip.delta_l_total(sub_a) + chip.delta_l_total(sub_b))
        periphery = float(cell.periphery_delay_factor(delta_l))
        shape = (rows, cells)
        delta_vth = (
            chip.rng.normal(0.0, sigma, size=shape)
            if sigma > 0 else np.zeros(shape)
        )
        access = oracle_access_time(cell, delta_vth, delta_l, periphery)
        line_ids = np.arange(rows) * geometry.n_pairs + pair
        access_by_line[line_ids] = np.max(access, axis=1)
        leak_vth = (
            chip.rng.normal(0.0, sigma, size=shape)
            if sigma > 0 else np.zeros(shape)
        )
        leakage += float(np.sum(oracle_sram_leakage(cell, leak_vth, delta_l)))
    p_flip = cell.flip_probability(sigma_min)
    flips = (
        int(chip.rng.binomial(geometry.total_cells, p_flip))
        if p_flip > 0 else 0
    )
    return access_by_line, leakage, flips


# ---------------------------------------------------------------------------
# (a) the draw helper
# ---------------------------------------------------------------------------


class TestNormalDraws:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        sigma=st.one_of(
            st.floats(1e-6, 10.0), st.sampled_from([0.0, 1.0, 0.0231])
        ),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 70)),
        into_buffer=st.booleans(),
    )
    def test_equals_rng_normal_and_end_state(
        self, seed, sigma, shape, into_buffer
    ):
        reference_rng = np.random.default_rng(seed)
        draw_rng = np.random.default_rng(seed)
        state_before = copy.deepcopy(draw_rng.bit_generator.state)
        out = np.full(shape, np.nan) if into_buffer else None
        size = None if into_buffer else shape
        draws = normal_draws(draw_rng, sigma, size, out=out)
        if into_buffer:
            assert draws is out
        if sigma > 0:
            expected = reference_rng.normal(0.0, sigma, size=shape)
            # rng.normal adds 0.0, which only turns an exact -0.0 into
            # +0.0; adding it here too makes the comparison bitwise.
            assert same_bits(draws + 0.0, expected)
            assert (
                draw_rng.bit_generator.state
                == reference_rng.bit_generator.state
            )
        else:
            assert same_bits(draws, np.zeros(shape))
            assert draw_rng.bit_generator.state == state_before

    def test_nonzero_draws_keep_every_bit(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        draws = normal_draws(rng_a, 0.03, (64, 546))
        expected = rng_b.normal(0.0, 0.03, size=(64, 546))
        assert np.all(draws != 0.0)
        assert same_bits(draws, expected)

    def test_scalar_size_route(self):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert same_bits(
            normal_draws(rng_a, 0.03, 17) + 0.0,
            rng_b.normal(0.0, 0.03, size=17),
        )

    def test_needs_exactly_one_of_size_or_out(self):
        rng = np.random.default_rng(3)
        state = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(ConfigurationError):
            normal_draws(rng, 0.03)
        with pytest.raises(ConfigurationError):
            normal_draws(rng, 0.03, (2, 3), out=np.empty((2, 3)))
        assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# (b) one pair evaluated in place
# ---------------------------------------------------------------------------


class TestInPlacePairEvaluation:
    @PROPERTY_SETTINGS
    @given(node=NODES, blocks=cell_blocks(), rel_l=relative_gate_lengths())
    def test_3t1d_pair_matches_oracle(self, node, blocks, rel_l):
        d_t1, d_t2, eps = blocks
        delta_l = rel_l * node.feature_size
        model = RetentionModel.for_node(node)
        shape = d_t1.shape
        out, scratch = np.full(shape, np.nan), np.full(shape, np.nan)
        mask = np.zeros(shape, dtype=bool)
        retention = model.retention_time(
            d_t1, d_t2, delta_l, eps, out=out, scratch=scratch, mask=mask
        )
        expected = oracle_retention(node, d_t1, d_t2, delta_l, eps)
        assert retention is out
        assert same_bits(retention, expected)
        # The unbuffered call is the same implementation.
        assert same_bits(
            model.retention_time(d_t1, d_t2, delta_l, eps), expected
        )
        leakage = model.cell.leakage_power(d_t2, delta_l, out=scratch)
        oracle_leak = oracle_3t1d_leakage(node, d_t2, delta_l)
        assert same_bits(leakage, oracle_leak)
        assert float(np.sum(leakage)) == float(np.sum(oracle_leak))

    @PROPERTY_SETTINGS
    @given(node=NODES, blocks=cell_blocks())
    def test_3t1d_dead_cells_are_positive_zero(self, node, blocks):
        d_t1, d_t2, eps = blocks
        # T1 cannot write any charge and the read needs some: dead.
        d_t1[..., 0], d_t2[..., 0], eps[..., 0] = 1.2, 0.0, 0.0
        retention = RetentionModel.for_node(node).retention_time(
            d_t1, d_t2, 0.0, eps
        )
        assert same_bits(retention[..., 0], np.zeros(d_t1.shape[0]))

    @PROPERTY_SETTINGS
    @given(
        node=NODES,
        size_factor=st.sampled_from([1.0, 2.0]),
        blocks=cell_blocks(),
        rel_l=relative_gate_lengths(),
        periphery=st.floats(0.5, 3.0),
    )
    def test_sram_pair_matches_oracle(
        self, node, size_factor, blocks, rel_l, periphery
    ):
        delta_vth, leak_vth, _ = blocks
        delta_l = rel_l * node.feature_size
        cell = SRAM6TCell(node, size_factor=size_factor)
        shape = delta_vth.shape
        out, mask = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
        access = cell.access_time(
            delta_vth, delta_l, periphery, out=out, mask=mask
        )
        expected = oracle_access_time(cell, delta_vth, delta_l, periphery)
        assert access is out
        assert same_bits(access, expected)
        assert same_bits(cell.access_time(delta_vth, delta_l, periphery),
                         expected)
        leakage = cell.leakage_power(leak_vth, delta_l, out=out)
        assert same_bits(leakage, oracle_sram_leakage(cell, leak_vth, delta_l))

    def test_sram_without_overdrive_is_infinitely_slow(self):
        cell = SRAM6TCell(NODE_32NM)
        delta_vth = np.array([[0.0, NODE_32NM.vdd, 2.0]])
        access = cell.access_time(delta_vth, 0.0, 1.0)
        assert np.isfinite(access[0, 0])
        assert np.all(np.isinf(access[0, 1:]))
        assert same_bits(
            access, oracle_access_time(cell, delta_vth, 0.0, 1.0)
        )


# ---------------------------------------------------------------------------
# (c) whole chips
# ---------------------------------------------------------------------------

GEOMETRIES = st.sampled_from([
    CacheGeometry(),
    CacheGeometry.from_capacity(16 * 1024, 4, banks=8),
    CacheGeometry.from_capacity(32 * 1024, 2, banks=4),
    CacheGeometry.from_capacity(8 * 1024, 1, banks=2),
    # 192 rows per pair: the 3T1D solve's last row block is partial.
    CacheGeometry.from_capacity(24 * 1024, 4, banks=2),
])
SCENARIOS = st.sampled_from(["none", "typical", "severe"])


class TestWholeChipsMatchOldLoops:
    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        node=NODES,
        scenario=SCENARIOS,
        geometry=GEOMETRIES,
        seed=st.integers(0, 2 ** 31),
    )
    def test_3t1d_map_matches_old_loop(self, node, scenario, geometry, seed):
        sampler = ChipSampler(
            node, getattr(VariationParams, scenario)(), seed=seed,
            geometry=geometry,
        )
        chip = sampler._sampler.sample_chip()
        backend = get_backend("3t1d")
        rmap = backend.sample_retention_map(
            chip, geometry, rng=np.random.default_rng(seed)
        )
        # The word request draws from the chip's generator.
        word_map = backend.sample_word_retention(
            replace(chip, rng=np.random.default_rng(seed)), geometry
        )
        line, words, leakage = oracle_retention_map(
            chip, geometry, np.random.default_rng(seed)
        )
        assert same_bits(rmap.retention_by_line, line)
        assert same_bits(word_map, words)
        assert rmap.leakage_power == leakage

    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        node=NODES,
        scenario=SCENARIOS,
        geometry=GEOMETRIES,
        size_factor=st.sampled_from([1.0, 2.0]),
        seed=st.integers(0, 2 ** 31),
    )
    def test_sram_chip_matches_old_loop(
        self, node, scenario, geometry, size_factor, seed
    ):
        sampler = ChipSampler(
            node, getattr(VariationParams, scenario)(), seed=seed,
            geometry=geometry,
        )
        chip = sampler._sampler.sample_chip()
        twin = copy.deepcopy(chip)
        sample = sampler._build_sram_sample(chip, size_factor)
        access_by_line, leakage, flips = oracle_sram_chip(
            twin, geometry, size_factor
        )
        assert same_bits(sample.access_time_by_line, access_by_line)
        assert sample.leakage_power == cactimodel.scale_chip_leakage(
            leakage, geometry
        )
        assert sample.flip_count == flips
        assert chip.rng.bit_generator.state == twin.rng.bit_generator.state


# ---------------------------------------------------------------------------
# (d) grouped builds: one draw of a chip's fields serves every point
# ---------------------------------------------------------------------------

GROUP_GEOMETRIES = st.sampled_from([
    CacheGeometry(),
    CacheGeometry.from_capacity(16 * 1024, 4, banks=2),
    # 192 rows per pair: the 3T1D solve's last row block is partial.
    CacheGeometry.from_capacity(24 * 1024, 4, banks=2),
])
#: (node, scenario, supply, 6T size factor) of one operating point.
OPERATING_POINTS = st.tuples(
    st.sampled_from([NODE_65NM, NODE_45NM, NODE_32NM]),
    st.sampled_from(["typical", "severe"]),
    st.sampled_from([1.1, 1.0]),
    st.sampled_from([1.0, 2.0]),
)


def point_tasks(seed, geometry, kind, points, count=1, technology="3t1d"):
    """Each point's reserved one-point tasks (same seeds at every point)."""
    return [
        ChipSampler(
            node.scaled(vdd=vdd), getattr(VariationParams, scenario)(),
            seed=seed, geometry=geometry, technology=technology,
        ).reserve_build_tasks(count, kind=kind, size_factor=size_factor)
        for node, scenario, vdd, size_factor in points
    ]


def realize(task):
    """Each point's sampler and freshly realised chip."""
    samplers = [
        ChipSampler(
            point.node, point.params, geometry=task.geometry,
            technology=task.technology,
        )
        for point in task.points
    ]
    return samplers, [
        sampler._sampler.chip_from_seed(task.chip_id, task.chip_seed)
        for sampler in samplers
    ]


def assert_same_sample(a, b):
    assert a.chip_id == b.chip_id and a.node == b.node
    assert a.leakage_power == b.leakage_power
    assert a.golden_leakage_power == b.golden_leakage_power
    if isinstance(a, SRAMChipSample):
        assert same_bits(a.access_time_by_line, b.access_time_by_line)
        assert a.worst_access_time == b.worst_access_time
        assert a.flip_count == b.flip_count
    else:
        assert same_bits(a.retention_by_line, b.retention_by_line)
        assert a.technology == b.technology
        if b.latency_factor_by_line is None:
            assert a.latency_factor_by_line is None
        else:
            assert same_bits(
                a.latency_factor_by_line, b.latency_factor_by_line
            )


def build_chips(batches):
    """``batches`` built through the runner's keyed request, inline."""
    return ParallelChipRunner(EngineConfig(workers=1)).build_chips(batches)


@pytest.fixture
def build_tasks(monkeypatch):
    """Every chip-build task a ``build_chips`` request runs."""
    tasks = []
    original = ParallelChipRunner.map

    def map(self, fn, batch, *args, **kwargs):
        if fn is run_build_task:
            tasks.extend(batch)
        return original(self, fn, batch, *args, **kwargs)

    monkeypatch.setattr(ParallelChipRunner, "map", map)
    return tasks


class TestGroupedBuilds:
    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2 ** 31),
        geometry=GROUP_GEOMETRIES,
        kind=st.sampled_from(["3t1d", "sram"]),
        technology=st.sampled_from(backend_names()),
        points=st.lists(OPERATING_POINTS, min_size=2, max_size=6),
    )
    def test_grouped_build_equals_per_point_builds(
        self, seed, geometry, kind, technology, points
    ):
        batches = dict(enumerate(
            point_tasks(seed, geometry, kind, points, technology=technology)
        ))
        # The one task per chip the keyed request builds for the group.
        merged = replace(
            batches[0][0],
            points=tuple(batch[0].points[0] for batch in batches.values()),
        )
        # One build per point, each drawing from its own generator.
        samplers, chips = realize(merged)
        singles = [
            sampler._build_3t1d_sample(chip) if kind == "3t1d"
            else sampler._build_sram_sample(chip, point.size_factor)
            for sampler, chip, point in zip(samplers, chips, merged.points)
        ]
        # The grouped solve the build runs, on fresh chips.
        _, shared = realize(merged)
        grouped = (
            _dram_samples(shared, geometry, samplers[0]._backend)
            if kind == "3t1d"
            else _sram_samples(
                shared, [p.size_factor for p in merged.points], geometry
            )
        )
        for single, chip, grouped_sample, shared_chip in zip(
            singles, chips, grouped, shared
        ):
            assert_same_sample(grouped_sample, single)
            assert (
                shared_chip.rng.bit_generator.state
                == chip.rng.bit_generator.state
            )
        built = build_chips(batches)
        assert list(built) == list(batches)
        for (sample,), single in zip(built.values(), singles):
            assert_same_sample(sample, single)

    def test_point_without_per_cell_variation_does_not_merge(
        self, build_tasks
    ):
        typical, none, severe = point_tasks(
            3, CacheGeometry(), "3t1d", [
                (NODE_32NM, scenario, 1.1, 1.0)
                for scenario in ("typical", "none", "severe")
            ], count=2,
        )
        batches = {"typical": typical, "none": none, "severe": severe}
        built = build_chips(batches)
        # typical and severe share each chip's draws; none is built alone.
        assert [len(task.points) for task in build_tasks] == [2, 2, 1, 1]
        for key, batch in batches.items():
            for sample, task in zip(built[key], batch):
                (alone,) = task.build()
                assert_same_sample(sample, alone)

    def test_different_chip_seeds_do_not_merge(self, build_tasks):
        # Batches with different chip seeds are built as separate groups.
        first = ChipSampler(NODE_32NM, VariationParams.typical(), seed=3)
        second = ChipSampler(NODE_45NM, VariationParams.typical(), seed=4)
        batches = {
            "first": first.reserve_build_tasks(2),
            "second": second.reserve_build_tasks(2),
        }
        built = build_chips(batches)
        assert [len(task.points) for task in build_tasks] == [1, 1, 1, 1]
        for key, batch in batches.items():
            for sample, task in zip(built[key], batch):
                (alone,) = task.build()
                assert_same_sample(sample, alone)

    def test_points_at_different_generator_states_do_not_share(self):
        # Without die-to-die variation the chip-level draws consume one
        # normal less, so the per-cell streams start elsewhere.
        no_d2d = VariationParams(
            sigma_l_wid_rel=0.05, sigma_vth_rel=0.10, sigma_l_d2d_rel=0.0
        )
        for kind in ("3t1d", "sram"):
            typical, other = [
                ChipSampler(NODE_32NM, params, seed=3).reserve_build_tasks(
                    1, kind=kind
                )[0]
                for params in (VariationParams.typical(), no_d2d)
            ]
            merged = replace(typical, points=typical.points + other.points)
            with pytest.raises(ConfigurationError):
                merged.build()
