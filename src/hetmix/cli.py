"""Command-line front end: run experiments, compare two configs, run checks.

Experiments are described by flat text configs, one `key = value` per
line with `#` comments. Exit codes: 0 success, 1 a property check
failed, 2 the config could not be parsed or validated, a builder rejected
one of its values, or its `out` directory or a CSV in it could not be
written, 3 a run failed numerically.
"""

from __future__ import annotations

import argparse
import functools
import os
from math import isfinite, sqrt

from .checks import run_checks
from .mixing import metropolis_hastings
from .objectives import (
    TWO_CLASS_NODES,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
)
from .simulator import DivergenceError, MetricsLog, RunConfig, _fixed, _refreshed, _simulate
from .topology import (
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
    load_edge_list,
)

__all__ = ["ConfigError", "parse_config", "cmd_run", "cmd_compare", "cmd_check", "main"]


class ConfigError(ValueError):
    """The config is malformed or inconsistent, or a builder rejects one of its values."""


_SCHEMA: dict[str, type] = {
    "name": str, "out": str, "algorithm": str, "weights": str, "topology": str,
    "n": int, "rows": int, "cols": int, "keep_fraction": float, "edge_file": str,
    "objective": str, "d": int, "m": int, "replicate_period": int,
    "noise_var": float, "steps": int, "lr": float, "lr_relative": float,
    "period": int, "sketch_dim": int, "window": int, "reps": int, "seed": int,
}
_REQUIRED = ("name", "out", "algorithm", "topology", "objective", "d", "steps", "seed")
# keys passed through to RunConfig, which owns their defaults and range checks
_RUN_KEYS = ("steps", "period", "sketch_dim", "window")

# Each config choice maps a name to (the keys it needs, its builder). The
# topology and objective builders raise ValueError or OSError on a bad value.
_TOPOLOGIES = {
    "ring": (("n",), lambda cfg, seed: build_ring(cfg["n"])),
    "torus": (("rows", "cols"), lambda cfg, seed: build_torus(cfg["rows"], cfg["cols"])),
    "complete": (("n",), lambda cfg, seed: build_complete(cfg["n"])),
    "random": (("n",), lambda cfg, seed: build_random_connected(
        cfg["n"], cfg.get("keep_fraction", 0.5), seed)),
    "file": (("edge_file",), lambda cfg, seed: load_edge_list(cfg["edge_file"])),
}
# n is the topology's node count: torus and file topologies fix it themselves
_OBJECTIVES = {
    "random": ((), lambda cfg, seed, n: make_random_quadratics(
        n, cfg["d"], cfg.get("m", cfg["d"]), seed, sqrt(cfg.get("noise_var", 0.0)))),
    "two_class": ((), lambda cfg, seed, n: make_two_class_ring(
        cfg["d"], seed, sqrt(cfg.get("noise_var", 0.001)))),
    "replicated": (("replicate_period",), lambda cfg, seed, n: make_replicated(
        n, cfg["d"], cfg.get("m", cfg["d"]), cfg["replicate_period"], seed,
        sqrt(cfg.get("noise_var", 0.0)))),
}


# each builds one repetition's matrix_for_step from its topology and RunConfig
_ALGORITHMS = {
    "dsgd": ((), lambda cfg, topology, run_cfg: _fixed(_builder(cfg, "weights")(topology))),
    "hadsgd": ((), lambda cfg, topology, run_cfg: _refreshed(topology, run_cfg)),
}
# each key that picks a builder: its table, and its choice when the key is
# absent (None where the key is required); weights are the fixed matrix of
# the algorithms that do not re-optimize it
_CHOICES = {"topology": (_TOPOLOGIES, None), "objective": (_OBJECTIVES, None),
            "weights": ({"mh": ((), metropolis_hastings)}, "mh"),
            "algorithm": (_ALGORITHMS, None)}


def parse_config(text: str) -> dict:
    """Parse and validate the flat config format into its typed key-value
    pairs, in their original order; raises ConfigError on any problem."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, sval = line.partition("=")
        key, sval = key.strip(), sval.strip()
        if not sep or not key or not sval:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        typ = _SCHEMA[key]
        try:
            values[key] = typ(sval)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: value {sval!r} for {key!r} is not {typ.__name__}"
            ) from exc
        if typ is float and not isfinite(values[key]):
            raise ConfigError(f"line {lineno}: value {sval!r} for {key!r} is not finite")
    _validate_values(values)
    # lr_relative is a positive multiple of 1/L, so it stands in for lr here
    _run_config(values, values.get("lr", values.get("lr_relative")))
    return values


def _run_config(values: dict, lr: float, **seeds) -> RunConfig:
    """RunConfig from the run-level keys a config sets; its ValueError becomes a ConfigError."""
    given = {key: values[key] for key in _RUN_KEYS if key in values}
    try:
        return RunConfig(lr=lr, **given, **seeds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _validate_values(values: dict) -> None:
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    if ("lr" in values) == ("lr_relative" in values):
        raise ConfigError("exactly one of 'lr' and 'lr_relative' is required")
    if values["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {values['seed']}")
    for key, (table, default) in _CHOICES.items():
        choice = values.get(key, default)
        if choice not in table:
            raise ConfigError(f"{key} must be one of {tuple(table)}, got {choice!r}")
        for need in table[choice][0]:
            if need not in values:
                raise ConfigError(f"{key} {choice!r} needs key {need!r}")
    if values["objective"] == "two_class" and values.get("n", TWO_CLASS_NODES) != TWO_CLASS_NODES:
        raise ConfigError(f"objective 'two_class' fixes n = {TWO_CLASS_NODES}")
    positive = ("d", "reps", "rows", "cols", "m", "replicate_period")
    for key in positive:
        if key in values and values[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {values[key]}")
    if "n" in values and values["n"] < 2:
        raise ConfigError(f"n must be >= 2, got {values['n']}")
    if "lr_relative" in values and values["lr_relative"] <= 0:
        raise ConfigError(f"lr_relative must be positive, got {values['lr_relative']}")
    if "keep_fraction" in values and not 0.0 < values["keep_fraction"] <= 1.0:
        raise ConfigError(f"keep_fraction must be in (0, 1], got {values['keep_fraction']}")
    if "noise_var" in values and values["noise_var"] < 0:
        raise ConfigError(f"noise_var must be nonnegative, got {values['noise_var']}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# experiment assembly

def _builder(cfg: dict, key: str):
    table, default = _CHOICES[key]
    return table[cfg.get(key, default)][1]


def _repetition(cfg: dict, rep: int) -> tuple:
    """The (problem, topology, run config, matrix_for_step) of one repetition."""
    seed = cfg["seed"]
    data_seed = seed + rep
    try:
        topology = _builder(cfg, "topology")(cfg, data_seed)
        problem = _builder(cfg, "objective")(cfg, data_seed, cfg.get("n", topology.n))
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    if problem.n != topology.n:
        raise ConfigError(
            f"objective has {problem.n} nodes but topology has {topology.n}"
        )
    lr = cfg["lr"] if "lr" in cfg else cfg["lr_relative"] / problem.smoothness
    run_cfg = _run_config(
        cfg, lr, sketch_seed=seed + 20_000 + rep, noise_seed=seed + 10_000 + rep
    )
    return problem, topology, run_cfg, _builder(cfg, "algorithm")(cfg, topology, run_cfg)


def _repetitions(cfg: dict):
    """Yield each repetition's MetricsLog in order, and raise the first failure in its place.

    The repetitions run together in one step loop. A repetition whose
    set-up fails is the last one built.
    """
    runs, failure = [], []
    for rep in range(cfg.get("reps", 1)):
        try:
            runs.append(_repetition(cfg, rep))
        except (ConfigError, ArithmeticError) as exc:
            failure.append(exc)
            break
    for outcome in _simulate(runs) + failure:
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


def _final_line(name: str, rep: int, log: MetricsLog) -> str:
    return (
        f"{name} rep {rep}: dist_to_opt_w={log.dist_to_opt_w[-1]:.6g} "
        f"consensus_w={log.consensus_w[-1]:.6g} gme_w={log.gme_w[-1]:.6g} "
        f"loss={log.loss[-1]:.6g}"
    )


def _exit_codes(cmd):
    """Map a subcommand's rejected config to exit 2 and its numeric failure to 3."""
    @functools.wraps(cmd)
    def wrapped(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except ConfigError as exc:
            print(f"config error: {exc}")
            return 2
        except (DivergenceError, ArithmeticError) as exc:
            print(f"numeric failure: {exc}")
            return 3
    return wrapped


@_exit_codes
def cmd_run(config_path: str) -> int:
    """Run every repetition of one config, writing a CSV per repetition."""
    cfg = load_config(config_path)
    try:
        os.makedirs(cfg["out"], exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out directory: {exc}") from exc
    for rep, log in enumerate(_repetitions(cfg)):
        out = os.path.join(cfg["out"], f"{cfg['name']}_rep{rep}.csv")
        try:
            log.write_csv(out)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
        print(_final_line(cfg["name"], rep, log))
    return 0


_COMPARE_METRICS = ("dist_to_opt_w", "consensus_w", "gme_w")
# keys that set the instances and the runs' lengths; compare notes each that differs
_SHARED_KEYS = ("topology", "objective", "n", "d", "steps", "seed", "noise_var", "keep_fraction",
                "m", "rows", "cols", "edge_file", "replicate_period", "reps")


def _tail_means(cfg: dict) -> dict:
    sums = {metric: 0.0 for metric in _COMPARE_METRICS}
    reps = cfg.get("reps", 1)
    for log in _repetitions(cfg):
        tail = slice(-max(1, cfg["steps"] // 10), None)
        for metric in _COMPARE_METRICS:
            sums[metric] += float(getattr(log, metric)[tail].mean())
    return {metric: total / reps for metric, total in sums.items()}


@_exit_codes
def cmd_compare(config_a: str, config_b: str) -> int:
    """Run two configs and print their windowed tail means side by side."""
    cfg_a, cfg_b = load_config(config_a), load_config(config_b)
    for key in _SHARED_KEYS:
        if cfg_a.get(key) != cfg_b.get(key):
            print(f"note: configs differ on {key!r} "
                  f"({cfg_a.get(key)!r} vs {cfg_b.get(key)!r})")
    means_a, means_b = _tail_means(cfg_a), _tail_means(cfg_b)
    name_a, name_b = cfg_a["name"], cfg_b["name"]
    print(f"{'metric':<16} {name_a:>14} {name_b:>14}  sign")
    for metric in _COMPARE_METRICS:
        a, b = means_a[metric], means_b[metric]
        sign = "<" if a < b else (">" if a > b else "=")
        print(f"{metric:<16} {a:>14.6g} {b:>14.6g}  {name_a} {sign} {name_b}")
    return 0


def cmd_check() -> int:
    """Run every property check; nonzero exit and a named line on any failure."""
    results = run_checks()
    failures = 0
    for result in results:
        print(result)
        failures += not result.passed
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetmix",
        description="Decentralized SGD with data-aware mixing matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_cmp = sub.add_parser("compare", help="run two configs and compare tails")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    sub.add_parser("check", help="run the numerical property checks")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "compare":
        return cmd_compare(args.config_a, args.config_b)
    return cmd_check()


if __name__ == "__main__":
    raise SystemExit(main())
