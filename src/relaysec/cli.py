"""Command-line front end: scenario presets, sweeps, CSV output, verification.

Subcommands::

    relaysec run --preset fig2-single --seed 42 --out results.csv
    relaysec verify ssr-oracle
    relaysec presets

Configuration is resolved in priority order: command-line flags override
config-file values, which override preset defaults. Exit codes: 0 success,
1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from .criteria import CRITERION_NAMES, CriterionKind, prepare_candidates, select
from .model import ConfigError, SystemConfig, generate_realization
from .montecarlo import TRIAL_BYTES_CAP, SweepSpec, compare_criteria, run_sweep

# Scenario presets. Antenna and eavesdropper counts are reconstructions
# chosen so the stacked eavesdropper channel has rank N_t, where sr and s-sr
# are one computation, except in the deliberately rank-deficient fig3-rank.
PRESETS = {
    "fig2-single": {
        "users": 2, "user-antennas": 1, "relay-antennas": 1, "relays": 5,
        "select": 2, "eves": 2, "eve-antennas": 1,
        "criteria": "channel-gain,max-ratio,sinr,sr,s-sinr,s-sr",
    },
    "fig2-mimo": {
        "users": 2, "user-antennas": 2, "relay-antennas": 2, "relays": 5,
        "select": 2, "eves": 2, "eve-antennas": 2,
        "criteria": "channel-gain,sinr,sr,s-sinr,s-sr",
    },
    "fig3-rank": {
        "users": 2, "user-antennas": 1, "relay-antennas": 1, "relays": 5,
        "select": 2, "eves": 1, "eve-antennas": 1,
        "criteria": "channel-gain,sr,s-sinr,s-sr",
    },
    "fig4-relays-single": {
        "users": 2, "user-antennas": 1, "relay-antennas": 1, "relays": 7,
        "select": 2, "eves": 2, "eve-antennas": 1,
        "criteria": "channel-gain,s-sinr,s-sr",
    },
    "fig5-relays-mimo": {
        "users": 2, "user-antennas": 2, "relay-antennas": 2, "relays": 7,
        "select": 2, "eves": 2, "eve-antennas": 2,
        "criteria": "channel-gain,s-sinr,s-sr",
    },
    "custom": {},
}


class UsageError(ValueError):
    """Bad flag value or config-file entry; maps to exit code 2."""


def parse_snr_grid(text: str) -> tuple:
    """Parse ``start:step:stop`` (inclusive) or a single dB value; a grid
    longer than any sweep accepts is rejected before it is built."""
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        start, step, stop = (float(p) for p in parts)
        if not np.all(np.isfinite((start, step, stop))):
            raise ValueError
    except ValueError:
        raise UsageError(
            f"invalid snr grid {text!r}; expected 'start:step:stop' or a single value"
        ) from None
    if step <= 0:
        raise UsageError(f"snr step must be positive in {text!r}")
    if stop < start:
        raise UsageError(f"snr stop must be >= start in {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not count <= TRIAL_BYTES_CAP // 8:  # the most points, at C = N_t = 1
        raise UsageError(f"snr grid {text!r} has {count:.0f} points, over the "
                         f"{TRIAL_BYTES_CAP // 8} a sweep accepts")
    return tuple(start + k * step for k in range(int(count)))


def _format_snr_grid(grid) -> str:
    """Text that :func:`parse_snr_grid` reads back as ``grid``: each value's
    ``repr`` less a trailing ``.0``, the step the shortest decimal that gives
    the grid again (in ``0.1:0.2:1``, ``grid[1] - grid[0]`` is 0.2 + 4e-17).
    Raises :class:`UsageError` for a grid no such text gives, one that is not
    ascending and evenly spaced."""
    start, stop = (repr(value).removesuffix(".0") for value in (grid[0], grid[-1]))
    if len(grid) == 1:
        return start
    for digits in range(1, 18):  # 17 significant digits give grid[1] - grid[0] itself
        step = repr(float(f"{grid[1] - grid[0]:.{digits}g}")).removesuffix(".0")
        text = f"{start}:{step}:{stop}"
        try:
            if parse_snr_grid(text) == tuple(grid):
                return text
        except UsageError:  # a step of 0 or below: the grid descends or repeats
            continue
    raise UsageError(f"the {len(grid)}-point snr grid from {start} to {stop} dB "
                     f"cannot be written as start:step:stop")


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _read_bool(value) -> bool:
    try:
        return _BOOLS[str(value).strip().lower()]
    except KeyError:
        raise ValueError(f"invalid boolean {value!r}") from None


def _write_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _read_criteria(value) -> tuple:
    names = (name.strip() for name in str(value).split(","))
    return tuple(CriterionKind.from_name(name) for name in names if name)


class Setting(NamedTuple):
    """One ``relaysec run`` setting; ``key`` is its config-file key and ``--key`` flag.

    ``field`` is the :class:`SystemConfig` or :class:`SweepSpec` field it
    fills (None for a setting outside the spec). ``read`` turns config-file
    text (or an equivalent Python value) into the field value and raises
    ``ValueError`` on a bad one; ``write`` turns the field value back into
    config-file text.
    """

    key: str
    field: str | None
    default: str
    read: Callable = str
    write: Callable = str
    help: str = ""


SETTINGS = (
    Setting("users", "num_users", "2", int, help="number of users M"),
    Setting("user-antennas", "user_antennas", "1", int, help="antennas per user N_r"),
    Setting("relay-antennas", "relay_antennas", "1", int, help="antennas per relay N_i"),
    Setting("relays", "pool_size", "5", int, help="relay pool size"),
    Setting("select", "selected_relays", "2", int, help="number of selected relays"),
    Setting("eves", "num_eves", "2", int, help="number of eavesdroppers K"),
    Setting("eve-antennas", "eve_antennas", "1", int, help="antennas per eavesdropper"),
    Setting("seed", "seed", "0", int, help="channel-draw seed"),
    Setting("trials", "trials", "2000", int, help="Monte Carlo trials"),
    Setting("snr", "snr_grid_db", "0:2:20", parse_snr_grid, _format_snr_grid,
            "START:STEP:STOP in dB, or one value"),
    Setting("criteria", "criteria", "channel-gain,sinr,sr,s-sinr,s-sr", _read_criteria,
            lambda kinds: ",".join(k.value for k in kinds),
            "comma-separated criterion names: " + ", ".join(CRITERION_NAMES)),
    Setting("combine", "combine", "min", help="hop metrics combine by min or sum"),
    Setting("eve-model", "eve_model", "both", help="phase1 or both"),
    Setting("eve-aggregate", "eve_aggregate", "sum", help="sum or max"),
    Setting("half-duplex", "half_duplex", "true", _read_bool, _write_bool,
            "two-slot factor 1/2"),
    Setting("clamp", "clamp", "true", _read_bool, _write_bool, "clamp secrecy rates at 0"),
    Setting("workers", "workers", "1", int, help="worker processes"),
    Setting("out", None, "results.csv", help="CSV output path"),
)

_CONFIG_FIELDS = {f.name for f in fields(SystemConfig)}


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` configuration file; unknown keys are rejected."""
    known = {s.key for s in SETTINGS}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{line_no}: expected 'key = value', got {line!r}"
                    )
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in known:
                    raise UsageError(f"{path}:{line_no}: unknown configuration key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def format_config(spec: SweepSpec) -> str:
    """Render a sweep spec in the flat config-file format (round-trips);
    raises :class:`UsageError` for an SNR grid that ``start:step:stop``
    cannot write."""
    lines = []
    for s in SETTINGS:
        if s.field:
            owner = spec.config if s.field in _CONFIG_FIELDS else spec
            lines.append(f"{s.key} = {s.write(getattr(owner, s.field))}\n")
    return "".join(lines)


def _with_defaults(values: dict) -> dict:
    """Every setting's value: from ``values`` where given and not None, else its default."""
    resolved = {s.key: s.default for s in SETTINGS}
    resolved.update((k, v) for k, v in values.items() if v is not None)
    return resolved


def build_spec(values: dict) -> SweepSpec:
    """Build a validated sweep spec from key/value settings; defaults fill the rest."""
    resolved = _with_defaults(values)
    config, sweep = {}, {}
    for s in SETTINGS:
        if s.field is None:
            continue
        try:
            value = s.read(resolved[s.key])
        except ValueError as exc:
            raise UsageError(f"{s.key}: {exc}") from None
        (config if s.field in _CONFIG_FIELDS else sweep)[s.field] = value
    config = SystemConfig(snr_db=sweep["snr_grid_db"][0], **config)
    return SweepSpec(config=config, **sweep)


def _run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--preset", choices=sorted(PRESETS), default="custom")
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for s in SETTINGS:
        parser.add_argument(f"--{s.key}", dest=s.key,
                            help=f"{s.help} (default: {s.default})")


def _resolve_namespace(ns) -> dict:
    """Preset values, overridden by the config file, overridden by flags."""
    values = dict(PRESETS[ns.preset])
    if ns.config:
        values.update(read_config_file(ns.config))
    values.update((s.key, getattr(ns, s.key)) for s in SETTINGS
                  if getattr(ns, s.key) is not None)
    return _with_defaults(values)


def parse_config(argv) -> SweepSpec:
    """Resolve run-command arguments into a sweep spec.

    Flags override config-file values, which override preset defaults.
    """
    parser = argparse.ArgumentParser(prog="relaysec run", add_help=False)
    _run_flags(parser)
    return build_spec(_resolve_namespace(parser.parse_args(argv)))


def emit_csv(result, path: str) -> str:
    """Write aggregated curves as CSV; deterministic bytes for equal results.

    One row per (criterion, SNR point), criteria alphabetical and SNR
    ascending, floats at 9 significant digits, LF line endings.
    """
    mean, stderr = result.mean, result.stderr
    n_samples, n_discarded = result.n_samples, result.n_discarded
    rows = []
    order = sorted(range(len(result.criteria)), key=lambda c: result.criteria[c])
    for c in order:
        name = result.criteria[c]
        for s, snr in enumerate(result.snr_grid_db):
            rows.append(
                f"{name},{snr:.9g},{mean[c, s]:.9g},{stderr[c, s]:.9g},"
                f"{int(n_samples[c, s])},{int(n_discarded[c, s])}"
            )
    body = "criterion,snr_db,mean_sr,stderr,n_samples,n_discarded\n" + "\n".join(rows) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write CSV to {path}: {exc}") from None
    return path


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

# The suites import the scalar oracles of `reference` when they run, so no
# other command pays for loading them at start-up.
VERIFY_SEED = 20240


def verify_zf(draws: int = 100, seed: int = VERIFY_SEED):
    """Zero-forcing residual check over random realizations."""
    from .reference import zf_precoder

    cfg = SystemConfig(num_users=2, user_antennas=2, relay_antennas=2, pool_size=5,
                       selected_relays=2, num_eves=2, eve_antennas=2, seed=seed)
    worst = 0.0
    eye = np.eye(cfg.transmit_antennas)
    for t in range(draws):
        realization = generate_realization(cfg, trial=t)
        stacked = realization.stacked_source_channel((0, 1))
        pre = zf_precoder(stacked, user_antennas=cfg.user_antennas)
        worst = max(worst, float(np.linalg.norm(stacked @ pre.core - eye)))
    ok = worst < 1e-9
    lines = [f"zf: {draws} draws, max residual {worst:.3e} (tolerance 1e-9)"]
    return ok, lines


def verify_detident(draws: int = 100, seed: int = VERIFY_SEED):
    """Determinant product and inverse identities on random matrices."""
    rng = np.random.default_rng(seed)
    worst_prod = 0.0
    worst_inv = 0.0
    done = 0
    while done < draws:
        a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        if np.linalg.cond(a) >= 1e6 or np.linalg.cond(b) >= 1e6:
            continue
        done += 1
        det_a, det_b = np.linalg.det(a), np.linalg.det(b)
        prod_err = abs(np.linalg.det(a @ b) - det_a * det_b) / max(1.0, abs(det_a * det_b))
        inv_err = abs(np.linalg.det(np.linalg.inv(a)) - 1.0 / det_a) / max(1.0, abs(1.0 / det_a))
        worst_prod = max(worst_prod, float(prod_err))
        worst_inv = max(worst_inv, float(inv_err))
    ok = worst_prod < 1e-8 and worst_inv < 1e-8
    lines = [
        f"detident: {draws} draws (cond < 1e6), max det(AB) error {worst_prod:.3e}, "
        f"max det(inv(A)) error {worst_inv:.3e} (tolerance 1e-8)"
    ]
    return ok, lines


def verify_ssr_oracle(draws: int = 1000, seed: int = VERIFY_SEED):
    """Reduced eavesdropper term against the full-knowledge log-det term,
    the rate at an orthonormal basis of the eavesdropper stack's row space.

    Uses a square stacked eavesdropper channel; also checks that the full
    and reduced secrecy criteria choose the same combination on every draw.
    """
    from .reference import gamma_rate_bits, row_basis, ssr_eve_term, zf_precoder

    cfg = SystemConfig(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                       selected_relays=2, num_eves=2, eve_antennas=1, seed=seed)
    worst = 0.0
    mismatches = 0
    for t in range(draws):
        realization = generate_realization(cfg, trial=t)
        cands = prepare_candidates(realization, cfg)
        basis = row_basis(realization.stacked_eve_channel())
        for pos, combo in enumerate(cands.combinations):
            if not cands.valid[pos]:
                continue
            pre = zf_precoder(realization.stacked_source_channel(combo),
                              user_antennas=cfg.user_antennas)
            for user in range(cfg.num_users):
                reduced = ssr_eve_term(pre, user, cfg.noise_power)
                full = gamma_rate_bits(basis, pre.user_block(user), pre.other_columns(user),
                                       cfg.noise_power)
                err = abs(reduced - full) / max(1.0, abs(full))
                worst = max(worst, err)
        full_pick, _ = select(CriterionKind.SECRECY_RATE, realization, cfg, candidates=cands)
        reduced_pick, _ = select(CriterionKind.S_SR, realization, cfg, candidates=cands)
        mismatches += int(full_pick[0] != reduced_pick[0])
    ok = worst < 1e-8 and mismatches == 0
    lines = [
        f"ssr-oracle: {draws} draws, max relative error {worst:.3e} (tolerance 1e-8)",
        f"ssr-oracle: selection mismatches {mismatches}/{draws}",
    ]
    return ok, lines


def verify_ssinr_diag(draws: int = 1000, seed: int = VERIFY_SEED):
    """Reduced SINR rule against the full SINR rule without interference.

    Single-antenna, single-user draws make the interference-plus-noise
    covariance a scaled identity, where both rules must agree exactly.
    """
    cfg = SystemConfig(num_users=1, user_antennas=1, relay_antennas=1, pool_size=5,
                       selected_relays=1, num_eves=1, eve_antennas=1, seed=seed)
    mismatches = 0
    for t in range(draws):
        realization = generate_realization(cfg, trial=t)
        cands = prepare_candidates(realization, cfg)
        full_pick, _ = select(CriterionKind.SINR, realization, cfg, candidates=cands)
        reduced_pick, _ = select(CriterionKind.S_SINR, realization, cfg, candidates=cands)
        mismatches += int(full_pick[0] != reduced_pick[0])
    ok = mismatches == 0
    lines = [f"ssinr-diag: {draws} draws, selection mismatches {mismatches}/{draws}"]
    return ok, lines


VERIFY_SUITES = {
    "zf": verify_zf,
    "detident": verify_detident,
    "ssr-oracle": verify_ssr_oracle,
    "ssinr-diag": verify_ssinr_diag,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _cmd_run(ns) -> int:
    values = _resolve_namespace(ns)
    spec = build_spec(values)
    result = run_sweep(spec)
    path = emit_csv(result, values["out"])
    print(f"wrote {path} ({spec.trials} trials, {len(spec.snr_grid_db)} SNR points, "
          f"{result.meta['elapsed_s']:.1f} s)")
    print(compare_criteria(result).render())
    return 0


def _cmd_verify(ns) -> int:
    ok, lines = VERIFY_SUITES[ns.suite]()
    for line in lines:
        print(line)
    print(f"{ns.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_presets(_ns) -> int:
    for name in sorted(PRESETS):
        print(f"[{name}]")
        print(format_config(build_spec(dict(PRESETS[name]))))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaysec",
        description="Relay selection and secrecy-rate simulation for two-hop "
                    "multiuser MIMO wiretap networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a Monte Carlo sweep and write CSV")
    _run_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)
    verify_parser = sub.add_parser("verify", help="run a numerical verification suite")
    verify_parser.add_argument("suite", choices=sorted(VERIFY_SUITES))
    verify_parser.set_defaults(func=_cmd_verify)
    presets_parser = sub.add_parser("presets", help="list scenario presets")
    presets_parser.set_defaults(func=_cmd_presets)

    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
