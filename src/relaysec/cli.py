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

import numpy as np

from .criteria import CRITERION_NAMES, CriterionKind, prepare_candidates, select
from .model import ConfigError, SystemConfig, generate_realization
from .reference import (
    desired_covariance,
    gamma_rate_bits,
    interference_covariance,
    ssr_eve_term,
    zf_precoder,
)
from .montecarlo import SweepSpec, compare_criteria, run_sweep

# Scenario presets. Antenna and eavesdropper counts are reconstructions
# chosen so the reduced secrecy rule is exact (square stacked eavesdropper
# channel) except in the deliberately rank-deficient scenario.
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

_DEFAULTS = {
    "users": 2, "user-antennas": 1, "relay-antennas": 1, "relays": 5,
    "select": 2, "eves": 2, "eve-antennas": 1, "seed": 0, "trials": 2000,
    "snr": "0:2:20", "criteria": "channel-gain,sinr,sr,s-sinr,s-sr",
    "combine": "min", "eve-model": "both", "eve-aggregate": "sum",
    "half-duplex": "true", "clamp": "true", "workers": 1,
}

_INT_KEYS = ("users", "user-antennas", "relay-antennas", "relays", "select",
             "eves", "eve-antennas", "seed", "trials", "workers")
_BOOL_KEYS = ("half-duplex", "clamp")
_KNOWN_KEYS = tuple(_DEFAULTS) + ("out",)


class UsageError(ValueError):
    """Bad flag value or config-file entry; maps to exit code 2."""


def parse_snr_grid(text: str) -> tuple:
    """Parse ``start:step:stop`` (inclusive) or a single dB value."""
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
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


def _format_snr_grid(grid) -> str:
    grid = tuple(grid)
    if len(grid) == 1:
        return f"{grid[0]:g}"
    step = grid[1] - grid[0]
    return f"{grid[0]:g}:{step:g}:{grid[-1]:g}"


def _parse_bool(key, value):
    text = str(value).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"invalid boolean for '{key}': {value!r}")


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` configuration file; unknown keys are rejected."""
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
                if key not in _KNOWN_KEYS:
                    raise UsageError(f"{path}:{line_no}: unknown configuration key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def format_config(spec: SweepSpec) -> str:
    """Render a sweep spec in the flat config-file format (round-trips)."""
    cfg = spec.config
    pairs = [
        ("users", cfg.num_users),
        ("user-antennas", cfg.user_antennas),
        ("relay-antennas", cfg.relay_antennas),
        ("relays", cfg.pool_size),
        ("select", cfg.selected_relays),
        ("eves", cfg.num_eves),
        ("eve-antennas", cfg.eve_antennas),
        ("seed", cfg.seed),
        ("trials", spec.trials),
        ("snr", _format_snr_grid(spec.snr_grid_db)),
        ("criteria", ",".join(k.value for k in spec.criteria)),
        ("combine", spec.combine),
        ("eve-model", spec.eve_model),
        ("eve-aggregate", spec.eve_aggregate),
        ("half-duplex", "true" if spec.half_duplex else "false"),
        ("clamp", "true" if spec.clamp else "false"),
        ("workers", spec.workers),
    ]
    return "\n".join(f"{key} = {value}" for key, value in pairs) + "\n"


def build_spec(values: dict) -> SweepSpec:
    """Build a validated sweep spec from resolved key/value settings."""
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in values.items() if v is not None})
    for key in _INT_KEYS:
        try:
            merged[key] = int(merged[key])
        except (TypeError, ValueError):
            raise UsageError(f"invalid integer for '{key}': {merged[key]!r}") from None
    for key in _BOOL_KEYS:
        if isinstance(merged[key], str):
            merged[key] = _parse_bool(key, merged[key])
    grid = merged["snr"]
    if isinstance(grid, str):
        grid = parse_snr_grid(grid)
    names = merged["criteria"]
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    try:
        kinds = tuple(CriterionKind.from_name(n) for n in names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    config = SystemConfig(
        num_users=merged["users"],
        user_antennas=merged["user-antennas"],
        relay_antennas=merged["relay-antennas"],
        pool_size=merged["relays"],
        selected_relays=merged["select"],
        num_eves=merged["eves"],
        eve_antennas=merged["eve-antennas"],
        snr_db=float(grid[0]),
        seed=merged["seed"],
    )
    return SweepSpec(
        config=config,
        snr_grid_db=grid,
        trials=merged["trials"],
        criteria=kinds,
        eve_model=merged["eve-model"],
        eve_aggregate=merged["eve-aggregate"],
        combine=merged["combine"],
        half_duplex=merged["half-duplex"],
        clamp=merged["clamp"],
        workers=merged["workers"],
    )


def _run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--preset", choices=sorted(PRESETS), default="custom")
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--snr", metavar="START:STEP:STOP")
    parser.add_argument("--relays", type=int, help="relay pool size")
    parser.add_argument("--select", type=int, help="number of selected relays")
    parser.add_argument("--users", type=int)
    parser.add_argument("--user-antennas", type=int)
    parser.add_argument("--relay-antennas", type=int)
    parser.add_argument("--eves", type=int)
    parser.add_argument("--eve-antennas", type=int)
    parser.add_argument("--criteria", help="comma-separated criterion names: "
                        + ", ".join(CRITERION_NAMES))
    parser.add_argument("--combine", choices=("min", "sum"))
    parser.add_argument("--eve-model", choices=("phase1", "both"))
    parser.add_argument("--eve-aggregate", choices=("sum", "max"))
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out", metavar="PATH", default="results.csv")


def parse_config(argv) -> SweepSpec:
    """Resolve run-command arguments into a sweep spec.

    Flags override config-file values, which override preset defaults.
    """
    parser = argparse.ArgumentParser(prog="relaysec run", add_help=False)
    _run_flags(parser)
    ns = parser.parse_args(argv)
    return _spec_from_namespace(ns)


def _spec_from_namespace(ns) -> SweepSpec:
    values = dict(PRESETS[ns.preset])
    if ns.config:
        values.update(read_config_file(ns.config))
    cli = {
        "seed": ns.seed, "trials": ns.trials, "snr": ns.snr, "relays": ns.relays,
        "select": ns.select, "users": ns.users, "user-antennas": ns.user_antennas,
        "relay-antennas": ns.relay_antennas, "eves": ns.eves,
        "eve-antennas": ns.eve_antennas, "criteria": ns.criteria,
        "combine": ns.combine, "eve-model": ns.eve_model,
        "eve-aggregate": ns.eve_aggregate, "workers": ns.workers,
    }
    values.update({k: v for k, v in cli.items() if v is not None})
    return build_spec(values)


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

VERIFY_SEED = 20240


def verify_zf(draws: int = 100, seed: int = VERIFY_SEED):
    """Zero-forcing residual check over random realizations."""
    cfg = SystemConfig(num_users=2, user_antennas=2, relay_antennas=2, pool_size=5,
                       selected_relays=2, num_eves=2, eve_antennas=2, seed=seed)
    worst = 0.0
    eye = np.eye(cfg.transmit_antennas)
    for t in range(draws):
        realization = generate_realization(cfg, trial=t)
        stacked = realization.stacked_source_channel((0, 1))
        pre = zf_precoder(stacked, cfg.signal_power, cfg.user_antennas)
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
    """Reduced eavesdropper term against the full-knowledge log-det term.

    Uses a square stacked eavesdropper channel; also checks that the full
    and reduced secrecy criteria choose the same combination on every draw.
    """
    cfg = SystemConfig(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                       selected_relays=2, num_eves=2, eve_antennas=1, seed=seed)
    worst = 0.0
    mismatches = 0
    for t in range(draws):
        realization = generate_realization(cfg, trial=t)
        cands = prepare_candidates(realization, cfg)
        eve_stack = realization.stacked_eve_channel()
        for pos, combo in enumerate(cands.combinations):
            if not cands.valid[pos]:
                continue
            pre = zf_precoder(realization.stacked_source_channel(combo), cfg.signal_power,
                              cfg.user_antennas)
            for user in range(cfg.num_users):
                r_in = interference_covariance(pre, user, cfg.noise_power,
                                               include_noise=True)
                reduced = ssr_eve_term(pre, user, r_in)
                full = gamma_rate_bits(eve_stack, desired_covariance(pre, user), r_in)
                err = abs(reduced - full) / max(1.0, abs(full))
                worst = max(worst, err)
        full_pick, _ = select(CriterionKind.SECRECY_RATE, realization, cfg, candidates=cands)
        reduced_pick, _ = select(CriterionKind.S_SR, realization, cfg, candidates=cands)
        mismatches += full_pick != reduced_pick
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
        mismatches += full_pick != reduced_pick
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
    spec = _spec_from_namespace(ns)
    result = run_sweep(spec)
    path = emit_csv(result, ns.out)
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
