"""The technology-backend protocol: conformance, determinism, identity.

Three layers of guarantees:

* every registered backend satisfies the full protocol and produces
  structurally valid, deterministic, picklable retention maps;
* the default 3T1D backend is *bit-identical* to the pre-backend
  ``ChipSampler`` sampling loop (golden digests) and to pre-backend
  evaluation outputs through the batched kernels (golden floats);
* the STT-RAM and variation-aware-DRAM models have the shapes their
  source papers describe (relaxed banks, latency gradients) and still
  run entirely on the batched/timeline kernels.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.technology import NODE_32NM, TechnologyNode
from repro.technology.backends import (
    BACKEND_PROTOCOL_METHODS,
    DEFAULT_TECHNOLOGY,
    DRAM3T1DBackend,
    RetentionMap,
    STTRAMBackend,
    TechnologyBackend,
    VarDRAMBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.variation import VariationParams
from repro.array import CacheGeometry, ChipSampler
from repro.core import (
    Cache3T1DArchitecture,
    Evaluator,
    evaluate_many,
    kernel_support,
)
from repro.engine.parallel import EvaluatorSpec

ALL_BACKENDS = ("3t1d", "sttram", "vardram")

#: Golden digests/values of two severe chips sampled pre-backend
#: (ChipSampler(NODE_32NM, severe, seed=7)); the default backend must
#: reproduce them bit-for-bit.
GOLDEN_CHIPS = (
    {
        "retention_sha": "c91a3bfa2813e67da8df4b15f838af1bf3c9d4e33f"
        "1b09a1503ce752a47d0bcb",
        "word_sha": "d5ec0be8a288f2f6be82bfda4c50800cefabc751d6e00b"
        "ce957112484042a46d",
        "leakage": 0.04851042048635436,
    },
    {
        "retention_sha": "2a33857d446610d91a28d890158a9334b32cf55eb5"
        "e7e5edfbd2f40a0fc309d5",
        "word_sha": "11c33594657eb0ba623f3871107427714c764b7b49af8f"
        "1b94952c973e2927d7",
        "leakage": 0.020423840085980402,
    },
)

#: Pre-backend evaluation outputs (normalized_performance,
#: dynamic_power_normalized) for the same two chips through
#: Evaluator(NODE_32NM, n_references=1500, seed=3), per scheme.
GOLDEN_EVALS = {
    (0, "no-refresh/LRU"): (0.9928319119155711, 1.0388053808456845),
    (0, "partial-refresh/DSP"): (0.9982941761504412, 1.102268235187481),
    (0, "rsp-fifo"): (0.9964427707894231, 1.1812800991349026),
    (1, "no-refresh/LRU"): (0.9970305633670952, 1.0292047545163836),
    (1, "partial-refresh/DSP"): (0.9986265170882993, 1.086695548526384),
    (1, "rsp-fifo"): (0.9964419920373198, 1.182641473374127),
}


#: sha256 digests of the line map, the word map (solved through
#: ``ChipBuildTask.word_retention``) and the exact leakage of the first
#: chip of ChipSampler(node, severity, seed=2007, geometry) for each
#: (node, severity, geometry, vdd) case, recorded before chip sampling
#: moved to in-place per-pair buffers.  The geometry
#: cases cover both tag-folding widths (548 and 544 cells per line) and
#: the 32nm-severe-1.0V case has 787 dead lines (fig12 point 6).
GOLDEN_3T1D_MAPS = {
    ("32nm", "none", None, None): (
        "d29e3cd89a72e471fe3b7882221ea906a7b9e6a7"
        "1a7e44b0b106dbb5a57e7d9f",
        "3f4f7617e72ef450ed81b33c78565b13538e4454"
        "f2d0628ef8db27ca4a59f0ef",
        0.024399999999999998,
    ),
    ("32nm", "typical", None, None): (
        "001e25241cb37ebe49c566c56199fce1d9050cd5"
        "4d27abae1fc5de9154cd2864",
        "a6f69c7480374168de1e404e2948597c2b3c8372"
        "a85e039b1855523ba51a8917",
        0.02145594616826907,
    ),
    ("32nm", "severe", None, None): (
        "404ea2c72729b71a5e985c8ffee8f88c5c420760"
        "104fcefe56e2203f3ac72e89",
        "cb0a8f4a3d60110a318d92f209bf21980c6656e0"
        "c06344c2543736069f32e481",
        0.02124839737207382,
    ),
    ("65nm", "typical", None, None): (
        "28595efb151494e50f9c73ec1631923162ba5cdb"
        "0f9704198caffa0f7582a5c9",
        "c6f2b3b978da5dc5427f906f75679e55a4187de4"
        "3ab41d36914624077c8099d9",
        0.0031049452068378225,
    ),
    ("45nm", "typical", None, None): (
        "b71dbdcc7a7cdd8f18349ed81785ad15bd234348"
        "cc5f8bf3f36a3b07b3d42ffa",
        "cc989bd134554279bb39cb50d65d4d5ca0a13056"
        "af817eeb6bb88c5b8574c827",
        0.005140172946575555,
    ),
    ("32nm", "typical", (16 * 1024, 8), None): (
        "4233cedae05adff2d8270c81f813fb2b33d094b7"
        "11c6a44f81aca8d4f5dd3f09",
        "879ff521519be45780f12b6a501674a82ec9aed3"
        "dbdebe1e106893dff258da16",
        0.016129889728522338,
    ),
    ("32nm", "typical", (256 * 1024, 2), None): (
        "7230b12981745156ee02c39edb8f4e2892ed88ce"
        "627217cba186354bd1283432",
        "a25488cd82ee403300aee5cad2433d957a882a02"
        "b949c754357130e81f3e64b1",
        0.052861084535144126,
    ),
    ("32nm", "severe", None, 1.0): (
        "ea2eef6b988d4a30e8cdef1cceabbf7f04380680"
        "aa09a39f10e943df27911ae0",
        "b6c552af21130ce8529aa8c57d97a2c866c208fd"
        "dc641a2cc5f55cbb23219247",
        0.02124839737207382,
    ),
}

#: The same for the other backends (32nm typical, paper geometry, seed
#: 2007): line digest, word digest, latency-factor digest or None.
GOLDEN_TECH_MAPS = {
    "sttram": (
        "6047052406874411b11e2bf96686d9f16a8e6157"
        "72e3add77a85c1bbb667925d",
        "077765201b5f71a448c9b65ada018260940f1908"
        "fa7683cc8baead19800e31fb",
        None,
    ),
    "vardram": (
        "cb9d1e1b6f61cb8a0561a2d92870f163ee8ff98c"
        "2b7aaeb32f90916e63ca8775",
        "62c977d170e7f966a636046feca67025ee8046ad"
        "f5ee809260545d28bb609fc4",
        "7697b13133a067ca7629f9c0f80b0f23188ab355"
        "1611c167634a2766404e4926",
    ),
}


def sampler_of(technology, severity="severe", seed=7):
    return ChipSampler(
        NODE_32NM,
        getattr(VariationParams, severity)(),
        seed=seed,
        technology=technology,
    )


def sample_chips(technology, n=2, severity="severe", seed=7):
    sampler = sampler_of(technology, severity, seed)
    return [sampler.sample_3t1d_chip() for _ in range(n)]


def word_maps(technology, n=2, severity="severe", seed=7):
    """The word maps of ``sample_chips``'s chips, by build task."""
    return [
        task.word_retention()
        for task in sampler_of(technology, severity, seed)
        .reserve_build_tasks(n)
    ]


class TestProtocolConformance:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_registry_resolves_and_name_matches(self, name):
        backend = get_backend(name)
        assert isinstance(backend, TechnologyBackend)
        assert backend.name == name
        assert name in backend_names()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_all_protocol_methods_callable(self, name):
        backend = get_backend(name)
        for method in BACKEND_PROTOCOL_METHODS:
            assert callable(getattr(backend, method))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_scalar_surface_is_physical(self, name):
        from repro.array.geometry import CacheGeometry

        backend = get_backend(name)
        timing = backend.cell_timing(NODE_32NM)
        energy = backend.cell_energy(NODE_32NM)
        assert timing.read_time > 0 and timing.write_time > 0
        assert energy.read_energy > 0 and energy.write_energy > 0
        assert backend.leakage_power(NODE_32NM, CacheGeometry()) >= 0
        assert backend.nominal_retention_time(NODE_32NM) > 0

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_latency_and_refresh_models(self, name):
        backend = get_backend(name)
        chips = sample_chips(name, n=1)
        geometry = chips[0].geometry
        latency = backend.latency_model(NODE_32NM, geometry)
        assert latency.read_hit_cycles >= 1
        assert latency.write_extra_cycles >= 0
        cost = backend.refresh_cost(NODE_32NM, geometry)
        assert cost.cycles_per_line >= 0
        assert cost.energy_per_line >= 0

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_retention_map_shape(self, name):
        chip = sample_chips(name, n=1)[0]
        (words,) = word_maps(name, n=1)
        geometry = chip.geometry
        assert chip.retention_by_line.shape == (geometry.n_lines,)
        assert words.shape == (geometry.n_lines, 8)
        assert np.all(chip.retention_by_line >= 0)
        assert chip.leakage_power > 0
        assert chip.golden_leakage_power > 0
        # Line retention is the min over the line's words, bit for bit.
        np.testing.assert_array_equal(
            chip.retention_by_line, words.min(axis=1)
        )
        assert chip.technology == name

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_retention_map_deterministic_under_seed(self, name):
        first = sample_chips(name, n=2)
        second = sample_chips(name, n=2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(
                a.retention_by_line, b.retention_by_line
            )
            assert a.leakage_power == b.leakage_power
        for a, b in zip(word_maps(name), word_maps(name)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_backend_and_samples_pickle(self, name):
        backend = get_backend(name)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.name == backend.name
        chip = sample_chips(name, n=1)[0]
        chip_clone = pickle.loads(pickle.dumps(chip))
        np.testing.assert_array_equal(
            chip_clone.retention_by_line, chip.retention_by_line
        )
        assert chip_clone.technology == name

    def test_paper_geometry_sample_pickles_small(self):
        # A chip carries its line map only (1,024 float64 lines, 8 KB);
        # a word map would add another 64 KB to every journal entry and
        # every pickled evaluation task.
        (task,) = sampler_of("3t1d").reserve_build_tasks(1)
        (chip,) = task.build()
        assert chip.geometry == CacheGeometry()
        assert len(pickle.dumps(chip)) < 16 * 1024


class TestRegistry:
    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ConfigurationError, match="sttram"):
            get_backend("femtojoule-magic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="registered"):
            register_backend(DRAM3T1DBackend())

    def test_replace_allows_reregistration(self):
        register_backend(DRAM3T1DBackend(), replace=True)
        assert get_backend("3t1d").name == "3t1d"

    def test_non_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend(object())

    def test_default_technology_is_registered(self):
        assert DEFAULT_TECHNOLOGY in backend_names()


class TestDefaultBackendBitIdentity:
    """The 3T1D backend is a verbatim port of the original sampler."""

    @pytest.fixture(scope="class")
    def chips(self):
        return sample_chips("3t1d", n=2)

    def test_retention_maps_match_pre_backend_digests(self, chips):
        for chip, words, golden in zip(
            chips, word_maps("3t1d"), GOLDEN_CHIPS
        ):
            assert (
                hashlib.sha256(chip.retention_by_line.tobytes()).hexdigest()
                == golden["retention_sha"]
            )
            assert (
                hashlib.sha256(words.tobytes()).hexdigest()
                == golden["word_sha"]
            )
            assert chip.leakage_power == golden["leakage"]

    def test_kernel_outputs_match_pre_backend_goldens(self, chips):
        suite = Evaluator(NODE_32NM, n_references=1500, seed=3)
        schemes = ("no-refresh/LRU", "partial-refresh/DSP", "rsp-fifo")
        rows = evaluate_many(chips, schemes, suite)
        for chip_index, per_scheme in enumerate(rows):
            for scheme, evaluation in zip(schemes, per_scheme):
                golden = GOLDEN_EVALS[(chip_index, scheme)]
                assert evaluation.normalized_performance == golden[0]
                assert evaluation.dynamic_power_normalized == golden[1]

    def test_default_sampler_is_backend_routed(self, chips):
        backend = get_backend("3t1d")
        from repro.variation.montecarlo import VariationSampler

        chip = VariationSampler(
            NODE_32NM, VariationParams.severe(), seed=99
        ).sample_chip()
        rmap = backend.sample_retention_map(chip, chips[0].geometry)
        assert isinstance(rmap, RetentionMap)
        assert rmap.latency_factor_by_line is None  # no latency variation



def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestRetentionMapGoldens:
    """Every backend's maps equal digests recorded before in-place sampling."""

    @pytest.mark.parametrize(
        "case", sorted(GOLDEN_3T1D_MAPS, key=str),
        ids=lambda case: "-".join(map(str, case)).replace(" ", ""),
    )
    def test_3t1d_map_matches_golden(self, case):
        node_name, severity, capacity, vdd = case
        node = TechnologyNode.from_name(node_name)
        if vdd is not None:
            node = node.scaled(vdd=vdd)
        kwargs = {}
        if capacity is not None:
            size, banks = capacity
            kwargs["geometry"] = CacheGeometry.from_capacity(
                size, 4, banks=banks
            )
        def sampler():
            return ChipSampler(
                node, getattr(VariationParams, severity)(), seed=2007,
                **kwargs,
            )

        chip = sampler().sample_3t1d_chip()
        (task,) = sampler().reserve_build_tasks(1)
        line_sha, word_sha, leakage = GOLDEN_3T1D_MAPS[case]
        assert _digest(chip.retention_by_line) == line_sha
        assert _digest(task.word_retention()) == word_sha
        assert chip.leakage_power == leakage

    @pytest.mark.parametrize("name", sorted(GOLDEN_TECH_MAPS))
    def test_other_backend_maps_match_golden(self, name):
        chip = sample_chips(name, n=1, severity="typical", seed=2007)[0]
        (words,) = word_maps(name, n=1, severity="typical", seed=2007)
        line_sha, word_sha, latency_sha = GOLDEN_TECH_MAPS[name]
        assert _digest(chip.retention_by_line) == line_sha
        assert _digest(words) == word_sha
        if latency_sha is None:
            assert chip.latency_factor_by_line is None
        else:
            assert _digest(chip.latency_factor_by_line) == latency_sha


class TestSTTRAMModel:
    @pytest.fixture(scope="class")
    def chip(self):
        return sample_chips("sttram", n=1)[0]

    def test_relaxed_banks_shorten_retention(self, chip):
        # Line index is row * n_pairs + pair, so a (rows, pairs) view
        # puts each sub-array pair in one column; odd pairs are relaxed.
        geometry = chip.geometry
        per_pair = chip.retention_by_line.reshape(
            geometry.rows_per_pair, geometry.n_pairs
        )
        strict = per_pair[:, 0::2].mean()
        relaxed = per_pair[:, 1::2].mean()
        assert relaxed < strict

    def test_dvfs_point_erodes_retention(self):
        from repro.technology.backends import DVFSPoint

        nominal = STTRAMBackend()
        hot = STTRAMBackend(dvfs=DVFSPoint("turbo", vdd_scale=1.1,
                                           frequency_scale=1.2))
        assert (
            hot.nominal_retention_time(NODE_32NM)
            < nominal.nominal_retention_time(NODE_32NM)
        )

    def test_write_asymmetry(self):
        backend = get_backend("sttram")
        timing = backend.cell_timing(NODE_32NM)
        energy = backend.cell_energy(NODE_32NM)
        assert timing.write_time > timing.read_time
        assert energy.write_energy > energy.read_energy
        chip = sample_chips("sttram", n=1)[0]
        latency = backend.latency_model(NODE_32NM, chip.geometry)
        assert latency.write_extra_cycles >= 1

    def test_scrub_refresh_is_read_plus_write(self):
        backend = get_backend("sttram")
        chip = sample_chips("sttram", n=1)[0]
        cost = backend.refresh_cost(NODE_32NM, chip.geometry)
        assert cost.needs_refresh
        assert cost.energy_per_line > 0

    def test_no_latency_variation_map(self, chip):
        assert chip.latency_factor_by_line is None
        assert chip.mean_latency_factor == 1.0


class TestVarDRAMModel:
    @pytest.fixture(scope="class")
    def chip(self):
        return sample_chips("vardram", n=1)[0]

    def test_latency_factors_present_and_skewed_slow(self, chip):
        # The deterministic mat-position gradient only adds latency;
        # process jitter (median 1) can pull single lines slightly
        # below nominal, but the population mean must sit above it.
        factors = chip.latency_factor_by_line
        assert factors is not None
        assert factors.shape == chip.retention_by_line.shape
        assert np.all(factors > 0)
        assert chip.mean_latency_factor > 1.0

    def test_slower_lines_retain_less(self, chip):
        # The restore-truncation coupling: the slowest third of lines
        # must retain less on average than the fastest third.
        order = np.argsort(chip.latency_factor_by_line)
        third = len(order) // 3
        fast = chip.retention_by_line[order[:third]].mean()
        slow = chip.retention_by_line[order[-third:]].mean()
        assert slow < fast


class TestKernelPathCoverage:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_backends_stay_on_batched_kernels(self, name):
        spec = EvaluatorSpec(
            node=NODE_32NM, ways=4, n_references=800, seed=5,
            technology=name,
        )
        from repro.core import get_scheme

        evaluator = spec.build()
        chip = sample_chips(name, n=1, severity="typical")[0]
        for scheme in ("no-refresh/LRU", "rsp-fifo"):
            architecture = Cache3T1DArchitecture(
                chip, get_scheme(scheme), config=evaluator.config
            )
            support = kernel_support(architecture.build_cache())
            assert support.supported
            assert support.path in ("flattened", "timeline")
