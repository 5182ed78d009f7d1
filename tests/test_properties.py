"""Property tests: the channel draws equal one NumPy Philox generator per
block byte for byte, a block of trials draws what each trial draws alone, a
sweep's results do not depend on its block sizes (rank-deficient ``sr``
trials and invalid candidates mixed in) or worker count, the batched
evaluation equals the scalar reference oracles and, over a block of trials,
each trial's own evaluation byte for byte (in any order, a pick given twice
included), as does each trial's row of a block's selection (``sr`` and
``s-sr`` reading one score table), relabeling the eavesdroppers leaves every
achieved rate unchanged, one unitary on the source side of every channel
and relabeling the relays (with ``N_r = 1`` or ``N_i = N_r``) leave every
exhaustive score, pick and rate unchanged,
``sr`` equals ``s-sr`` when the eavesdropper stack has full column rank,
selection and evaluation over an SNR grid equal their one-point calls,
``sinr``'s pick ignores the noise level, and ZF admission agrees with an SVD
oracle and, through its LU bound, with the residual of every candidate."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relaysec import montecarlo  # noqa: E402
from relaysec.criteria import (  # noqa: E402
    CRITERION_NAMES,
    EXHAUSTIVE_KINDS,
    CriterionKind,
    _combination_table,
    legit_rates,
    max_ratio_select,
    prepare_candidates,
    select,
)
from relaysec.model import (  # noqa: E402
    ConfigError,
    SystemConfig,
    complex_normal,
    generate_realization,
    zf_core_batch,
)
from relaysec.montecarlo import SweepSpec, run_sweep  # noqa: E402
from relaysec.reference import (  # noqa: E402
    NoViableCandidateError,
    channel_gain_select,
    gamma_rate_bits,
    keyed_realization,
    pair_secrecy_rate,
    position,
    relay_precoder,
    score_candidates,
    select_one,
    ssinr_scores,
    svd_zf_valid,
    zf_core_exact,
    zf_precoder,
)
from relaysec.secrecy import EVE_AGGREGATES, EVE_MODELS, secrecy_rate  # noqa: E402

LINKS = ("source_to_relay", "relay_to_user", "source_to_eve", "relay_to_eve")


@st.composite
def configs(draw):
    """Small valid scenarios: T divides N_t = M * N_r, so T * N_i = N_t."""
    users = draw(st.integers(1, 2))
    user_antennas = draw(st.integers(1, 2))
    n_t = users * user_antennas
    selected = draw(st.sampled_from([t for t in (1, 2, 4) if n_t % t == 0]))
    return SystemConfig(
        num_users=users, user_antennas=user_antennas, relay_antennas=n_t // selected,
        pool_size=draw(st.integers(selected, selected + 2)), selected_relays=selected,
        num_eves=draw(st.integers(1, 3)), eve_antennas=draw(st.integers(1, 2)),
        snr_db=draw(st.floats(0.0, 40.0)), seed=draw(st.integers(0, 2**16)),
    )


def below_bits(bits):
    """Integers in ``[0, 2**bits)``, each count of uint32 words equally likely."""
    spans = [(lo and 1 << lo, (1 << min(lo + 32, bits)) - 1) for lo in range(0, bits, 32)]
    return st.sampled_from(spans).flatmap(lambda span: st.integers(*span))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cfg=configs(), seed=below_bits(80), trial=below_bits(40))
def test_draws_equal_one_philox_per_block_bytes(cfg, seed, trial):
    fast = generate_realization(cfg, trial=trial, seed=seed)
    slow = keyed_realization(cfg, trial=trial, seed=seed)
    for link in LINKS:
        assert getattr(fast, link).tobytes() == getattr(slow, link).tobytes(), link


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cfg=configs(), seed=below_bits(80),
       trials=st.lists(below_bits(40), min_size=1, max_size=6))
def test_block_draws_equal_each_trial_alone(cfg, seed, trials):
    # Unsorted, one- and two-word trials mixed, and one trial twice.
    trials = trials + trials[:1]
    block = generate_realization(cfg, trial=np.array(trials), seed=seed)
    for b, trial in enumerate(trials):
        alone = generate_realization(cfg, trial=trial, seed=seed)
        for link in LINKS:
            assert getattr(block[b], link).tobytes() == getattr(alone, link).tobytes(), link


def sweep_spec(cfg, trials, workers=1):
    multi = (cfg.relay_antennas, cfg.user_antennas, cfg.eve_antennas) != (1, 1, 1)
    kinds = tuple(k for k in CRITERION_NAMES if not (multi and k == "max-ratio"))
    return SweepSpec(config=cfg, snr_grid_db=(0.0, 20.0, 200.0), trials=trials,
                     criteria=kinds, workers=workers)


def assert_same_sweep(a, b):
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.selections.tobytes() == b.selections.tobytes()
    assert a.meta["discards"].keys() == b.meta["discards"].keys()
    for reason, counts in a.meta["discards"].items():
        assert np.array_equal(counts, b.meta["discards"][reason]), reason


@settings(max_examples=15, derandomize=True, deadline=None)
@given(cfg=configs(), trials=st.integers(1, 30))
def test_sweep_independent_of_block_size(cfg, trials):
    spec = sweep_spec(cfg, trials)
    default = run_sweep(spec)
    with mock.patch.object(montecarlo, "BLOCK_BYTES", 1):
        one_per_block = run_sweep(spec)
    assert_same_sweep(default, one_per_block)


def spoiled(generate):
    """``generate`` with two kinds of trial mixed into every block: where
    ``t % 3 == 1`` the eavesdropper stack has rank one, so ``sr`` scores the
    trial on its own basis, and where ``t % 4 == 2`` relay 1's channels are
    twice relay 0's, so every candidate holding both is invalid."""
    def draw(config, trial):
        block = generate(config, trial=trial)
        eve_rows = config.num_eves * config.eve_antennas
        for b, t in enumerate(np.ravel(trial).tolist()):
            if t % 3 == 1 and config.transmit_antennas > 1:
                eves = block.source_to_eve[b]
                eves[:] = eves[0, 0] * np.arange(1, eve_rows + 1).reshape(
                    config.num_eves, config.eve_antennas, 1)
            if t % 4 == 2 and config.pool_size > 1:
                for links in (block.source_to_relay, block.relay_to_user):
                    links[b, 1] = 2.0 * links[b, 0]
        return block
    return draw


@settings(max_examples=30, derandomize=True, deadline=None)
@given(cfg=configs(), trials=st.integers(1, 12), trial_step=st.integers(1, 12),
       candidate_step=st.integers(1, 12))
def test_sweep_independent_of_trial_and_candidate_blocks(cfg, trials, trial_step,
                                                         candidate_step):
    # Any two block sizes: a trial block need not be a whole number of
    # candidate blocks, nor a run a whole number of trial blocks.
    spec = sweep_spec(cfg, trials)
    runs = []
    with mock.patch.object(montecarlo, "generate_realization",
                           spoiled(montecarlo.generate_realization)):
        for steps in ((1, 1), (trial_step, candidate_step)):
            with mock.patch.object(montecarlo, "_block_steps", lambda spec, steps=steps: steps):
                runs.append(montecarlo._run_trials(spec, np.arange(trials)))
    (samples, selections, discards), (want_samples, want_selections, want_discards) = runs
    assert samples.tobytes() == want_samples.tobytes()
    assert selections.tobytes() == want_selections.tobytes()
    assert discards.keys() == want_discards.keys()
    for reason, counts in discards.items():
        assert np.array_equal(counts, want_discards[reason]), reason


@settings(max_examples=4, derandomize=True, deadline=None)
@given(cfg=configs(), trials=st.integers(4, 40).filter(lambda n: n % 3))
def test_sweep_independent_of_worker_count(cfg, trials):
    assert_same_sweep(run_sweep(sweep_spec(cfg, trials)),
                      run_sweep(sweep_spec(cfg, trials, workers=3)))


# Extreme SNRs: the ends of the accepted grid and just past them, values
# that are not numbers, and values over the accepted range.
extreme_snrs = st.one_of(
    st.sampled_from([-1e6, -3000.0, -400.0, 0.0, 400.0, 3000.0, 3100.0, 1e6,
                     float("nan"), float("inf")]),
    st.floats(-3100.0, 3100.0))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(users=st.integers(1, 2), user_antennas=st.integers(1, 2),
       relay_antennas=st.sampled_from([1, 2, 4]), extra=st.integers(0, 2),
       eves=st.integers(1, 3), eve_antennas=st.integers(1, 2),
       grid=st.lists(extreme_snrs, min_size=1, max_size=3),
       seed=st.sampled_from([0, 1, 2**130 + 7, -1]), trials=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(CRITERION_NAMES), min_size=1, max_size=3, unique=True),
       combine=st.sampled_from(["min", "sum"]), clamp=st.booleans(),
       eve_model=st.sampled_from(EVE_MODELS), eve_aggregate=st.sampled_from(EVE_AGGREGATES))
def test_every_config_is_refused_or_runs_without_warnings(
        users, user_antennas, relay_antennas, extra, eves, eve_antennas, grid, seed,
        trials, kinds, combine, clamp, eve_model, eve_aggregate):
    # A config is refused with ConfigError, or its sweep completes without a
    # warning and counts every discarded sample by reason. T = N_t / N_i may
    # come out fractional or zero, which the config must refuse.
    n_t = users * user_antennas
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = SystemConfig(
                num_users=users, user_antennas=user_antennas, relay_antennas=relay_antennas,
                pool_size=n_t // relay_antennas + extra, selected_relays=n_t / relay_antennas,
                num_eves=eves, eve_antennas=eve_antennas, snr_db=grid[0], seed=seed)
            spec = SweepSpec(config=config, snr_grid_db=tuple(grid), trials=trials,
                             criteria=tuple(kinds), combine=combine, clamp=clamp,
                             eve_model=eve_model, eve_aggregate=eve_aggregate)
        except ConfigError:
            return
        result = run_sweep(spec)
    assert np.array_equal(result.n_discarded, sum(result.meta["discards"].values()))


def hand_rates(real, combo, cfg, eve_model, eve_aggregate):
    """(legit, eve) composed from one scalar precoder pair, as in the paper."""
    u = zf_precoder(real.stacked_source_channel(combo), user_antennas=cfg.user_antennas)
    v = relay_precoder(real, combo, cfg)
    users = range(cfg.num_users)

    def rate(channel, precoder, user):
        return max(gamma_rate_bits(channel, precoder.user_block(user),
                                   precoder.other_columns(user), cfg.noise_power), 0.0)

    h1 = real.stacked_source_channel(combo)
    h2 = real.all_users_channel(combo)
    legit = min(sum(rate(h1[cfg.user_streams(r)], u, r) for r in users),
                sum(rate(h2[cfg.user_streams(r)], v, r) for r in users))
    per_eve = []
    for k in range(cfg.num_eves):
        leak = sum(rate(real.source_to_eve[k], u, r) for r in users)
        if eve_model == "both":
            e2 = np.hstack([real.relay_to_eve[i, k] for i in combo])
            leak += sum(rate(e2, v, r) for r in users)
        per_eve.append(leak)
    eve = sum(per_eve) if eve_aggregate == "sum" else max(per_eve)
    return 0.5 * legit, 0.5 * eve


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=configs(), trial=st.integers(0, 50),
       eve_model=st.sampled_from(["phase1", "both"]),
       eve_aggregate=st.sampled_from(["sum", "max"]))
def test_every_candidate_matches_hand_composition(cfg, trial, eve_model, eve_aggregate):
    real = generate_realization(cfg, trial=trial)
    cands = prepare_candidates(real, cfg)
    for pos, combo in enumerate(cands.combinations):
        if not cands.valid[pos]:
            continue
        sample = pair_secrecy_rate(real, cands, combo, cfg, eve_model=eve_model,
                                   eve_aggregate=eve_aggregate)
        legit, eve = hand_rates(real, combo, cfg, eve_model, eve_aggregate)
        assert sample.legit_rate == pytest.approx(legit, rel=1e-9)
        assert sample.eve_rate == pytest.approx(eve, rel=1e-9)
        assert sample.secrecy_rate == pytest.approx(max(legit - eve, 0.0), rel=1e-9,
                                                    abs=1e-9 * (legit + eve))
        assert min(sample.secrecy_rate, sample.legit_rate, sample.eve_rate) >= 0.0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=configs().filter(lambda c: c.num_eves * c.eve_antennas >= c.transmit_antennas),
       snr_db=st.floats(0.0, 200.0), trial=st.integers(0, 50))
def test_sr_equals_ssr_on_full_rank_eve_stack(cfg, snr_db, trial):
    # A Gaussian K*N_e x N_t stack with K*N_e >= N_t has rank N_t, where sr's
    # eavesdropper term is s-sr's term: same picks, same bits, at any SNR.
    cfg = cfg.at_snr(snr_db)
    real = generate_realization(cfg, trial=trial)
    cands = prepare_candidates(real, cfg)
    scores = [score_candidates(kind, real, cfg, candidates=cands)[1:]
              for kind in (CriterionKind.SECRECY_RATE, CriterionKind.S_SR)]
    for sr_array, ssr_array in zip(*scores):
        assert np.array_equal(sr_array, ssr_array)
        assert np.shares_memory(sr_array, ssr_array)  # s-sr reused sr's scores
    assert (select_one(CriterionKind.SECRECY_RATE, real, cfg, candidates=cands)
            == select_one(CriterionKind.S_SR, real, cfg, candidates=cands))


# Grids over 0-200 dB that always reach 150 dB or more, where the noise is
# far below the rounding of a unit-sized gram.
snr_grids = st.tuples(
    st.lists(st.floats(0.0, 200.0), min_size=0, max_size=6),
    st.floats(150.0, 200.0),
).map(lambda parts: tuple(parts[0]) + (parts[1],))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, trial=st.integers(0, 50),
       combine=st.sampled_from(["min", "sum"]))
def test_grid_select_equals_per_point_select(cfg, grid, trial, combine):
    real = generate_realization(cfg, trial=trial)
    cands = prepare_candidates(real, cfg)
    noise = cfg.noise_powers(grid)
    for kind in (CriterionKind.SINR, CriterionKind.SECRECY_RATE, CriterionKind.S_SR,
                 CriterionKind.S_SINR):
        positions, score = select(kind, real, cfg, candidates=cands, combine=combine,
                                  noise=noise)
        for s, snr in enumerate(grid):
            try:
                combo, want = select_one(kind, real, cfg.at_snr(snr), candidates=cands,
                                         combine=combine)
            except NoViableCandidateError:
                assert positions[s] == -1
                continue
            assert cands.combinations[positions[s]] == combo
            for got, expected in zip((score.eta1, score.eta2, score.combined),
                                     (want.eta1, want.eta2, want.combined)):
                assert np.array_equal(got[s], expected)  # same bits


@st.composite
def gathered_configs(draw):
    """Scenarios with one- and two-antenna relays and ``T N_i`` up to 10:
    from 8 on, numpy sums a row pairwise instead of in order."""
    relay_antennas = draw(st.integers(1, 2))
    selected = draw(st.integers(1, 5))
    n_t = selected * relay_antennas
    user_antennas = draw(st.sampled_from([d for d in range(1, n_t + 1) if n_t % d == 0]))
    return SystemConfig(
        num_users=n_t // user_antennas, user_antennas=user_antennas,
        relay_antennas=relay_antennas, pool_size=draw(st.integers(selected, selected + 2)),
        selected_relays=selected, num_eves=1, eve_antennas=1, seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cfg=gathered_configs(), grid=snr_grids, first=st.integers(0, 50), size=st.integers(1, 5),
       copied=st.integers(0, 5), combine=st.sampled_from(["min", "sum"]))
def test_block_channel_gain_and_ssinr_equal_the_one_trial_oracles(cfg, grid, first, size,
                                                                   copied, combine):
    # In trial `copied` (when it is in the block), relay 1 takes relay 0's
    # channels: every candidate that holds both is singular, and the two
    # relays tie on every gain.
    block = generate_realization(cfg, trial=np.arange(first, first + size))
    if copied < size and cfg.pool_size > 1:
        for link in (block.source_to_relay, block.relay_to_user):
            link[copied, 1] = link[copied, 0]
    cands = prepare_candidates(block, cfg)
    if copied < size and cfg.selected_relays > 1:
        assert not cands.valid[copied].all()
    noise = cfg.noise_powers(grid)
    single = (cfg.relay_antennas, cfg.user_antennas, cfg.eve_antennas) == (1, 1, 1)
    for kind in ("channel-gain", "s-sinr", "sinr") + (("max-ratio",) if single else ()):
        positions, score = select(kind, block, cfg, candidates=cands, combine=combine,
                                  noise=noise)
        assert positions.shape == (size, len(grid))
        for b in range(size):
            if kind == "sinr":
                rows, one = select(kind, block[b], cfg, combine=combine, noise=noise,
                                   candidates=prepare_candidates(block[b], cfg))
                want = (one.eta1, one.eta2, one.combined)
            else:
                if kind == "s-sinr":
                    scores = ssinr_scores(block[b], cfg, combine)
                    row = int(np.argmax(scores[2]))
                    values = tuple(a[row] for a in scores)
                else:
                    oracle = channel_gain_select if kind == "channel-gain" else max_ratio_select
                    combo, one = oracle(block[b], cfg, combine)
                    row, values = position(cfg, combo), (one.eta1, one.eta2, one.combined)
                rows = np.full(len(grid), row)
                want = tuple(np.full(len(grid), value) for value in values)
            assert positions[b].tobytes() == rows.tobytes(), (kind, b)
            for got, expected in zip((score.eta1, score.eta2, score.combined), want):
                assert got[b].tobytes() == expected.tobytes(), (kind, b)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, trial=st.integers(0, 50),
       combine=st.sampled_from(["min", "sum"]))
def test_sinr_picks_one_candidate_at_every_noise_level(cfg, grid, trial, combine):
    # Every stream SINR of a ZF candidate is P / (d_l^2 s), so the ranking
    # does not depend on s: no tolerance, 150 and 200 dB included.
    real = generate_realization(cfg, trial=trial)
    noise = cfg.noise_powers(grid + (150.0, 200.0))
    positions, _ = select(CriterionKind.SINR, real, cfg, combine=combine, noise=noise)
    assert np.all(positions == positions[0])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs(), trial=st.integers(0, 50), spread=st.sampled_from([None, 0.0, 1e-3]))
def test_admitted_candidates_invert_their_channels(cfg, trial, spread):
    # With a spread, relay 1's blocks become twice relay 0's plus `spread`
    # times their own: candidates holding both are then singular (the batched
    # inverse may fail, and the SVD take over) or ill-conditioned.
    real = generate_realization(cfg, trial=trial)
    if spread is not None and cfg.pool_size > 1:
        for links in (real.source_to_relay, real.relay_to_user):
            links[1] = 2.0 * links[0] + spread * links[1]
    cands = prepare_candidates(real, cfg)
    hop2 = cands.hop2.reshape(cands.hop1.shape)
    eye = np.eye(cfg.transmit_antennas)
    for channels, cores in ((cands.hop1, cands.cores), (hop2, cands.relay_cores)):
        residual = np.linalg.norm(channels @ cores - eye, axis=(1, 2))
        assert np.all(residual[cands.valid] < 1e-9)
    assert np.array_equal(cands.valid, svd_zf_valid(cands.hop1) & svd_zf_valid(hop2))


@st.composite
def channel_stacks(draw):
    """``(B, C, n, n)`` complex stacks, ``n`` from 1 to 8 and 1 to 5 trials
    of 1 to 6 members: ``s U diag(sigma) V^H`` with random unitaries, singular
    values spread from 1 down to as little as 1e-16 and ``s`` from 1e-150 to
    1e150, and some members set exactly singular (a zero row), or given a
    NaN or an inf entry."""
    n = draw(st.integers(1, 8))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from([0.0, 2.0, 6.0, 9.0, 12.0, 16.0]))
    scale = 10.0 ** draw(st.sampled_from([-150, -75, 0, 75, 150]))

    def unitaries():
        return np.linalg.qr(complex_normal(rng, (*shape, n, n)))[0]

    sigma = 10.0 ** (-decades * rng.random((*shape, n)))
    sigma[..., 0], sigma[..., -1] = 1.0, 10.0 ** -decades
    stacked = scale * (unitaries() * sigma[..., None, :]) @ unitaries().conj().swapaxes(-1, -2)
    members = [(b, c) for b in range(shape[0]) for c in range(shape[1])]
    for kind in ("singular", "nan", "inf"):
        for b, c in draw(st.lists(st.sampled_from(members), max_size=2)):
            if kind == "singular":
                stacked[b, c, -1] = 0.0
            else:
                stacked[b, c, 0, -1] = np.nan if kind == "nan" else np.inf
    return stacked


@settings(max_examples=300, derandomize=True, deadline=None)
@given(stacked=channel_stacks())
def test_bound_admission_equals_the_residual_of_every_candidate(stacked):
    # The LU bound may only skip a residual that is below the tolerance, so
    # admission, cores and precoders equal the exact rule's, byte for byte.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = zf_core_batch(stacked)
        want = zf_core_exact(stacked)
    for name, a, b in zip(("matrix", "core", "valid"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, trial=st.integers(0, 50),
       eve_model=st.sampled_from(["phase1", "both"]),
       eve_aggregate=st.sampled_from(["sum", "max"]), clamp=st.booleans())
def test_batched_secrecy_rate_equals_per_pair_calls(cfg, grid, trial, eve_model,
                                                    eve_aggregate, clamp):
    real = generate_realization(cfg, trial=[trial])
    cands = prepare_candidates(real, cfg)
    positions = np.flatnonzero(cands.valid[0])
    rows = np.repeat(positions, len(grid))
    points = np.tile(np.arange(len(grid)), len(positions))
    options = dict(eve_model=eve_model, eve_aggregate=eve_aggregate, clamp=clamp)
    batch = secrecy_rate(real, cands.rows(np.zeros_like(rows), rows), cfg,
                         cfg.noise_powers(grid)[points], **options)
    for j, (row, s) in enumerate(zip(rows, points)):
        one = pair_secrecy_rate(real[0], cands[0], cands.combinations[row],
                                cfg.at_snr(grid[s]), **options)
        assert batch.legit_rate[j] == pytest.approx(one.legit_rate, rel=1e-12, abs=0)
        assert batch.eve_rate[j] == pytest.approx(one.eve_rate, rel=1e-12, abs=0)
        # The difference of the two rates, relative to their size.
        assert batch.secrecy_rate[j] == pytest.approx(
            one.secrecy_rate, rel=1e-12, abs=1e-12 * (one.legit_rate + one.eve_rate))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, first=st.integers(0, 50), size=st.integers(1, 4),
       eve_model=st.sampled_from(["phase1", "both"]),
       eve_aggregate=st.sampled_from(["sum", "max"]), clamp=st.booleans(),
       singular=st.booleans())
def test_block_evaluation_equals_per_trial_evaluations(cfg, grid, first, size, eve_model,
                                                       eve_aggregate, clamp, singular):
    # With `singular`, relay 1's blocks are twice relay 0's in every trial,
    # so each candidate holding both is invalid and carries placeholders.
    block = generate_realization(cfg, trial=np.arange(first, first + size))
    if singular and cfg.pool_size > 1:
        for links in (block.source_to_relay, block.relay_to_user):
            links[:, 1] = 2.0 * links[:, 0]
    cands = prepare_candidates(block, cfg)
    if singular and cfg.selected_relays > 1:
        assert not cands.valid.all()
    # Every valid (trial, candidate, SNR point) triple, in trial order.
    trials, rows, points = np.nonzero(np.repeat(cands.valid[..., None], len(grid), axis=2))
    noise = cfg.noise_powers(grid)
    options = dict(eve_model=eve_model, eve_aggregate=eve_aggregate, clamp=clamp)
    batch = secrecy_rate(block, cands.rows(trials, rows), cfg, noise[points], **options)
    for b in range(size):
        mine = trials == b
        alone = secrecy_rate(block[b:b + 1], cands[b:b + 1].rows(np.zeros(mine.sum(), int),
                                                                 rows[mine]),
                             cfg, noise[points[mine]], **options)
        for name in ("secrecy_rate", "legit_rate", "eve_rate"):
            assert getattr(batch, name)[mine].tobytes() == getattr(alone, name).tobytes()
    # Shuffled, with a third of the triples twice: the noise-free terms are
    # built once per row, and every triple keeps its bytes.
    order = np.random.default_rng(first).permutation(len(rows))
    order = np.concatenate([order, order[:len(order) // 3]])
    shuffled = secrecy_rate(block, cands.rows(trials, rows), cfg, noise[points[order]], order,
                            **options)
    for name in ("secrecy_rate", "legit_rate", "eve_rate"):
        assert getattr(shuffled, name).tobytes() == getattr(batch, name)[order].tobytes()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, first=st.integers(0, 50), size=st.integers(1, 3),
       eve_model=st.sampled_from(["phase1", "both"]),
       eve_aggregate=st.sampled_from(["sum", "max"]), data=st.data())
def test_relabeling_the_eavesdroppers_leaves_every_rate_unchanged(cfg, grid, first, size,
                                                                  eve_model, eve_aggregate,
                                                                  data):
    block = generate_realization(cfg, trial=np.arange(first, first + size))
    order = data.draw(st.permutations(range(cfg.num_eves)))
    relabeled = dataclasses.replace(block, source_to_eve=block.source_to_eve[:, order],
                                    relay_to_eve=block.relay_to_eve[:, :, order])
    cands = prepare_candidates(block, cfg)
    trials, rows, points = np.nonzero(np.repeat(cands.valid[..., None], len(grid), axis=2))
    noise = cfg.noise_powers(grid)[points]
    options = dict(eve_model=eve_model, eve_aggregate=eve_aggregate)
    want = secrecy_rate(block, cands.rows(trials, rows), cfg, noise, **options)
    got = secrecy_rate(relabeled, cands.rows(trials, rows), cfg, noise, **options)
    assert got.legit_rate.tobytes() == want.legit_rate.tobytes()
    assert got.eve_rate == pytest.approx(want.eve_rate, rel=1e-9, abs=0)
    # The difference of the two rates, relative to their size.
    assert np.all(np.abs(got.secrecy_rate - want.secrecy_rate)
                  <= 1e-9 * (want.legit_rate + want.eve_rate))


# Tolerance of the invariants below, fixed before their first run: about
# 1000x the worst relative deviation probed for rotation and relabeling.
INVARIANT_TOL = 1e-9


def trial_outputs(block, cfg, grid, combine, options, rows=None):
    """Every exhaustive criterion's ``(3, S, C)`` scores and ``(S,)`` picks,
    and the rates of every valid candidate at every point, for the one
    trial of ``block``. ``rows[c]`` is the row of the candidate reported as
    ``c`` in this realization's set (identity when None), and picks are
    reported through it; ``scale`` is ``(S, C)``, the two hops' legitimate
    rates, which bound the terms a secrecy score is the difference of."""
    cands = prepare_candidates(block, cfg)
    rows = np.arange(len(cands.combinations)) if rows is None else np.asarray(rows)
    reported = np.argsort(rows)
    noise = cfg.noise_powers(grid)
    out = {"valid": cands.valid[0, rows], "scores": {}, "picks": {}}
    for kind in EXHAUSTIVE_KINDS:
        scores = score_candidates(kind, block[0], cfg, candidates=cands[0], combine=combine,
                                  noise=noise)[1:]
        out["scores"][kind] = np.stack(scores)[:, :, rows]
        picks = select(kind, block[0], cfg, candidates=cands[0], combine=combine, noise=noise)[0]
        out["picks"][kind] = np.where(picks >= 0, reported[picks], -1)
    legit = legit_rates(cands[0].stream_gains(), noise[:, None, None]).sum(axis=1)
    out["scale"] = legit[:, rows]
    usable, points = np.nonzero(np.repeat(out["valid"][:, None], len(grid), axis=1))
    out["rates"] = secrecy_rate(block, cands.rows(np.zeros_like(usable), rows[usable]), cfg,
                                noise[points], **options)
    return out


def assert_invariant(got, want):
    """``got`` equals ``want`` within ``INVARIANT_TOL`` relative: scores and
    rates, and the picks at every point whose top two scores are further
    apart than that."""
    assert np.array_equal(got["valid"], want["valid"])
    for kind in EXHAUSTIVE_KINDS:
        g, w = got["scores"][kind], want["scores"][kind]
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite), kind.value
        assert np.array_equal(g[~finite], w[~finite], equal_nan=True), kind.value
        # A secrecy score is a difference of rates: relative to their size.
        secrecy = kind in (CriterionKind.SECRECY_RATE, CriterionKind.S_SR)
        scale = np.abs(w) + (want["scale"] if secrecy else 0.0)
        assert np.all(np.abs(g - w)[finite] <= INVARIANT_TOL * scale[finite]), kind.value
        ranked = np.sort(np.where(finite[2], w[2], -np.inf), axis=1)
        second = ranked[:, -2] if ranked.shape[1] > 1 else -np.inf
        with np.errstate(invalid="ignore"):  # no viable candidate: -inf - -inf
            clear = (ranked[:, -1] - second
                     > INVARIANT_TOL * np.where(finite[2], scale[2], 0.0).max(axis=1))
        assert np.array_equal(got["picks"][kind][clear], want["picks"][kind][clear]), kind.value
    g, w = got["rates"], want["rates"]
    assert g.legit_rate == pytest.approx(w.legit_rate, rel=INVARIANT_TOL, abs=0)
    assert g.eve_rate == pytest.approx(w.eve_rate, rel=INVARIANT_TOL, abs=0)
    assert np.all(np.abs(g.secrecy_rate - w.secrecy_rate)
                  <= INVARIANT_TOL * (w.legit_rate + w.eve_rate))


invariant_options = st.fixed_dictionaries({
    "eve_model": st.sampled_from(["phase1", "both"]),
    "eve_aggregate": st.sampled_from(["sum", "max"]),
})


@settings(max_examples=25, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, trial=st.integers(0, 50),
       combine=st.sampled_from(["min", "sum"]), options=invariant_options,
       rotation=st.integers(0, 2**16))
def test_one_unitary_on_the_source_side_leaves_scores_and_rates_unchanged(
        cfg, grid, trial, combine, options, rotation):
    # H_i U and E_k U: the precoder becomes U^H W, and E W, W^H W and the
    # column norms of the ZF cores stay as they were.
    block = generate_realization(cfg, trial=[trial])
    n_t = cfg.transmit_antennas
    gaussian = np.random.default_rng(rotation).standard_normal((2, n_t, n_t))
    u = np.linalg.qr(gaussian[0] + 1j * gaussian[1])[0]
    rotated = dataclasses.replace(block, source_to_relay=block.source_to_relay @ u,
                                  source_to_eve=block.source_to_eve @ u)
    assert_invariant(trial_outputs(rotated, cfg, grid, combine, options),
                     trial_outputs(block, cfg, grid, combine, options))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(cfg=configs().filter(lambda c: c.user_antennas in (1, c.relay_antennas)),
       grid=snr_grids, trial=st.integers(0, 50), combine=st.sampled_from(["min", "sum"]),
       options=invariant_options, data=st.data())
def test_relabeling_the_relays_moves_each_candidate_and_keeps_its_scores(
        cfg, grid, trial, combine, options, data):
    # New relay j is old relay order[j]. A candidate's stacked streams move
    # by whole relays, so with N_r = 1 or N_i = N_r each user keeps its set
    # of streams, and every per-user sum is unchanged.
    block = generate_realization(cfg, trial=[trial])
    order = np.array(data.draw(st.permutations(range(cfg.pool_size))))
    relabeled = dataclasses.replace(block, source_to_relay=block.source_to_relay[:, order],
                                    relay_to_user=block.relay_to_user[:, order],
                                    relay_to_eve=block.relay_to_eve[:, order])
    combinations = _combination_table(cfg.pool_size, cfg.selected_relays)[0]
    # The row of each old combination in the relabeled set.
    moved = {tuple(sorted(order[list(combo)])): row for row, combo in enumerate(combinations)}
    rows = [moved[combo] for combo in combinations]
    assert_invariant(trial_outputs(relabeled, cfg, grid, combine, options, rows=rows),
                     trial_outputs(block, cfg, grid, combine, options))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs(), grid=snr_grids, first=st.integers(0, 50), size=st.integers(1, 4),
       combine=st.sampled_from(["min", "sum"]), rank_one=st.integers(0, 4))
def test_block_selection_equals_per_trial_selection(cfg, grid, first, size, combine,
                                                    rank_one):
    # Trial `rank_one` (when it is in the block and N_t > 1) gets a rank-one
    # eavesdropper stack, so its sr scores come from its own basis; so do
    # every trial's when K * N_e < N_t.
    block = generate_realization(cfg, trial=np.arange(first, first + size))
    deficient = rank_one < size and cfg.transmit_antennas > 1
    if deficient:
        eves = block.source_to_eve[rank_one]
        eves[:] = eves[0, 0] * np.arange(1, cfg.num_eves * cfg.eve_antennas + 1).reshape(
            cfg.num_eves, cfg.eve_antennas, 1)
    cands = prepare_candidates(block, cfg)
    noise = cfg.noise_powers(grid)
    picks = {}
    for kind in (CriterionKind.S_SR, CriterionKind.SECRECY_RATE):
        picks[kind] = select(kind, block, cfg, candidates=cands, combine=combine, noise=noise)
        positions, score = picks[kind]
        for b in range(size):
            want = select(kind, block[b], cfg, candidates=prepare_candidates(block[b], cfg),
                          combine=combine, noise=noise)
            assert positions[b].tobytes() == want[0].tobytes()
            for name in ("eta1", "eta2", "combined"):
                assert getattr(score, name)[b].tobytes() == getattr(want[1], name).tobytes()
    # One table entry, for this grid and combine rule. Spoiled, it must not
    # reach the rank-deficient trial's sr pick, which takes its own basis.
    assert len(cands._ssr) == 1
    for table in cands._ssr.values():
        for array in table:
            array[...] = np.nan
    if deficient:
        got = select(CriterionKind.SECRECY_RATE, block, cfg, candidates=cands,
                     combine=combine, noise=noise)
        want = picks[CriterionKind.SECRECY_RATE]
        assert got[0][rank_one].tobytes() == want[0][rank_one].tobytes()
        assert got[1].combined[rank_one].tobytes() == want[1].combined[rank_one].tobytes()
    # The shared table is what s-sr reads: spoiled, no candidate is viable.
    assert np.all(select(CriterionKind.S_SR, block, cfg, candidates=cands,
                         combine=combine, noise=noise)[0] == -1)
