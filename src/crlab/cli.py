"""Command line entry point tying tensors, trajectories, samplers, and
statistical studies together with reproducible configs.

Every run resolves its parameter set in three layers (schema defaults, then
a JSON config file, then explicit flags), validates it, and writes the
resolved config next to its primary output.  Timestamps and environment
details go to a separate metadata sidecar, so two runs with identical
resolved configs produce byte-identical data outputs.

Exit codes: 0 = success / PASS, 2 = statistical FAIL, 3 = config error,
4 = numerical error.
"""

import argparse
import csv
import functools
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, coupling, dynamics, measures
from . import invariance_lab as lab
from .basis import GridResolutionError, family_from_label, norm_decay_study
from .dynamics import IntegratorConfig, NumericalError, Projector, state_from_dict, state_to_dict
from .invariance_lab import ConfigError
from .measures import GibbsStallError, MeasureSpec

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; config errors here are exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# Schema per subcommand: name -> (help, {key: default}).  None means
# "derive later" or "optional".  Each key is set by a config file or by its
# flag, --key-with-dashes; a boolean key's flag is a switch to the opposite
# of its default.  The config-file path is an execution detail and stays out
# of the resolved config.

_SCHEMAS = {
    "tensor": ("build a coupling tensor and save the binary cache", {
        "family": "hol",
        "cutoff": 16,
        "out": "tensor.bin",
    }),
    "evolve": ("integrate one state and write the trajectory CSV", {
        "init": None,
        "tensor": None,
        "family": None,
        "cutoff": None,
        "projector": "sharp",
        "t": 1.0,
        "checkpoints": 8,
        "rel_tol": 1e-10,
        "abs_tol": 1e-12,
        "out": "traj.csv",
        "conservation_out": None,
        "state_out": None,
    }),
    "sample": ("draw measure samples to newline-delimited JSON", {
        "kind": "gaussian-free",
        "family": None,
        "cutoff": 16,
        "count": 100,
        "seed": 0,
        "beta": 0.0,
        "start_index": 0,
        "experimental": False,
        "tensor": None,
        "metropolis": False,
        "burn_in": 200,
        "thin": 5,
        "out": "samples.ndjson",
    }),
    "invariance": ("paired before/after ensemble test of flow invariance", {
        "measure": "white-noise",
        "family": None,
        "cutoff": 16,
        "t": 1.0,
        "samples": 1000,
        "seed": 0,
        "beta": 0.0,
        "start_index": 0,
        "tensor": None,
        "rel_tol": 1e-10,
        "abs_tol": 1e-12,
        "tables": True,
        "report": "report.json",
    }),
    "recurrence": ("running-minimum return distances on eigenspace orbits", {
        "level": 2,
        "t_max": 100.0,
        "dt": 1.0,
        "samples": 10,
        "theta": 0.1,
        "seed": 0,
        "out": "recurrence.json",
    }),
    "cauchy": ("truncation Cauchy decay in a negative Sobolev norm", {
        "sigma": 1.5,
        "cutoff": 64,
        "m_values": (4, 8, 16, 32),
        "samples": 1000,
        "seed": 0,
        "out": "cauchy.json",
    }),
    "concentration": ("normalized sup/L2 ratios across eigenspace levels", {
        "levels": (16, 32, 64, 128),
        "samples": 1000,
        "seed": 0,
        "n_radial": None,
        "n_theta": None,
        "check_resolution": True,
        "out": "concentration.json",
    }),
    "norms": ("fit the large-n decay of basis L^p norms", {
        "family": "hol",
        "p": "inf",
        "n_values": (64, 128, 256, 512, 1024),
        "log_correction": False,
        "out": "norms.json",
    }),
    "tails": ("survival-curve fit of a functional under a measure", {
        "kind": "gaussian-free",
        "family": None,
        "cutoff": 32,
        "functional": "spacetime-L4",
        "samples": 2000,
        "seed": 0,
        "beta": 0.0,
        "lambdas": None,
        "min_tail_hits": 20,
        "tensor": None,
        "out": "tails.json",
    }),
    "oracle-check": ("quadrature couplings against the closed form", {
        "family": "hol",
        "max_index": 10,
        "out": None,
    }),
}

# The exceptions to the flag rules: other flag names, the types of numeric
# keys whose default is None, closed value sets, and help texts.
_FLAGS = {
    "cutoff": ("--n", "--cutoff"),
    "check_resolution": ("--no-resolution-check",),
}

_TYPES = {"cutoff": int, "n_radial": int, "n_theta": int}

_CHOICES = {
    "kind": measures.KINDS,
    "measure": measures.KINDS,
    "projector": ("sharp", "smooth"),
    "functional": measures.FUNCTIONALS,
}

_HELP = {
    "family": "hol, radial, or eigenspace(N)",
    "init": "input state JSON",
    "tensor": "tensor cache to load (default: build one for the run's family "
              "and cutoff; sample and tails load it for gibbs only)",
    "t": "time span, either sign",
    "checkpoints": "number of equal time intervals recorded in the CSV",
    "out": "primary output (evolve: trajectory CSV t, n, Re c_n, Im c_n; "
           "oracle-check: optional JSON summary)",
    "conservation_out": "conservation log CSV: t, mass, energy, hamiltonian",
    "state_out": "final state JSON",
    "metropolis": "independence-chain sampler instead of exact rejection",
    "tables": "omit the per-sample tables from the report",
    "m_values": "comma-separated mask cutoffs, e.g. 4,8,16,32",
    "levels": "comma-separated levels, e.g. 16,32,64,128",
    "p": "p >= 2 or inf",
    "n_values": "comma-separated indices, e.g. 64,128,256,512,1024",
    "lambdas": "comma-separated thresholds (default: auto grid)",
}


def _flag(key, default):
    """Option strings and argparse settings of a schema key's flag."""
    if isinstance(default, bool):
        prefix = "--no-" if default else "--"
        settings = {"action": "store_const", "const": not default}
    else:
        prefix = "--"
        kind = type(default) if isinstance(default, (int, float)) else _TYPES.get(key)
        settings = {"type": kind, "choices": _CHOICES.get(key)}
    return _FLAGS.get(key, (prefix + key.replace("_", "-"),)), settings


@functools.cache  # parsing does not mutate the parser; build it once per process
def _build_parser():
    parser = _Parser(prog="crlab", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version",
        action="version",
        version=f"crlab {__version__} (tensor-cache format {coupling.CACHE_VERSION})",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)
    for name, (help_text, schema) in _SCHEMAS.items():
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags take precedence")
        # every flag defaults to None, so _resolve sees only explicit flags
        for key, default in schema.items():
            flags, settings = _flag(key, default)
            p.add_argument(*flags, dest=key, default=None, help=_HELP.get(key),
                           **settings)
    return parser


def _resolve(args, schema):
    """Defaults <- config file <- explicit flags, rejecting unknown keys."""
    resolved = dict(schema)
    path = getattr(args, "config", None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            slot = key.replace("-", "_")
            if slot not in schema:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[slot] = value
    for key in schema:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _require(resolved, key):
    value = resolved.get(key)
    if value is None:
        raise ConfigError(f"missing required key {key!r}")
    return value


def _family(resolved, fallback=None):
    label = resolved.get("family")
    if label is None:
        label = fallback
    if label is None:
        raise ConfigError("missing required key 'family'")
    try:
        return family_from_label(str(label))
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from exc


def _int_list(resolved, key):
    raw = _require(resolved, key)
    if isinstance(raw, str):
        raw = [part for part in raw.replace(" ", "").split(",") if part]
    try:
        return [int(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a comma-separated integer list") from exc


def _float_list(resolved, key):
    raw = resolved.get(key)
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = [part for part in raw.replace(" ", "").split(",") if part]
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a comma-separated number list") from exc


def _integrator(resolved):
    return IntegratorConfig(
        rel_tol=float(resolved["rel_tol"]), abs_tol=float(resolved["abs_tol"])
    )


def _tensor_for(resolved, family, cutoff):
    """Load the tensor cache named in the config, or build one."""
    path = resolved.get("tensor")
    if path is not None:
        tensor = coupling.load_tensor(path)
        if tensor.family != family or tensor.cutoff != cutoff:
            raise ConfigError(
                f"tensor: cache holds {tensor.family.label} cutoff "
                f"{tensor.cutoff}, run needs {family.label} cutoff {cutoff}")
        return tensor
    return coupling.build_tensor(family, cutoff)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path, doc):
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    # RFC 4180: csv's default dialect writes CRLF line endings
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# subcommand implementations: resolved config -> (summary, exit code, outputs)


def _cmd_tensor(resolved):
    family = _family(resolved)
    cutoff = int(_require(resolved, "cutoff"))
    out = _require(resolved, "out")
    tensor = coupling.build_tensor(family, cutoff)
    tensor.save(out)
    summary = (f"tensor family={family.label} cutoff={cutoff} "
               f"entries={len(tensor)} constant={tensor.constant!r} -> {out}")
    return summary, 0, [out]


def _cmd_evolve(resolved):
    with open(_require(resolved, "init"), "r", encoding="utf-8") as fh:
        state = state_from_dict(json.load(fh))
    family = _family(resolved, fallback=state.family.label)
    cutoff = int(resolved["cutoff"]) if resolved.get("cutoff") is not None else state.cutoff
    tensor = _tensor_for(resolved, family, cutoff)
    proj = Projector(str(resolved["projector"]), cutoff)
    t = float(_require(resolved, "t"))
    k = int(_require(resolved, "checkpoints"))
    if k < 1:
        raise ConfigError("checkpoints: need at least one interval")
    offsets = [0.0] if t == 0.0 else [t * i / k for i in range(k + 1)]
    result = dynamics.evolve(state, tensor, proj, t, _integrator(resolved),
                             checkpoints=offsets)

    out = _require(resolved, "out")
    rows = []
    for snap in result.snapshots:
        for n, c in enumerate(snap.coeffs):
            rows.append((snap.time, n, float(c.real), float(c.imag)))
    _write_csv(out, ("t", "n", "Re c_n", "Im c_n"), rows)
    outputs = [out]

    if resolved.get("conservation_out") is not None:
        log = result.log
        cons_rows = zip(log.times, log.mass, log.energy, log.hamiltonian)
        _write_csv(resolved["conservation_out"],
                   ("t", "mass", "energy", "hamiltonian"), cons_rows)
        outputs.append(resolved["conservation_out"])
    if resolved.get("state_out") is not None:
        _write_json(resolved["state_out"], state_to_dict(result.state))
        outputs.append(resolved["state_out"])

    drift = result.log.relative_drift() if len(result.log.times) else {}
    worst = max(drift.values()) if drift else 0.0
    summary = (f"evolve family={family.label} cutoff={cutoff} t={t!r} "
               f"steps={len(result.log.times)} max drift={worst:.3e} -> {out}")
    return summary, 0, outputs


def _measure_spec(resolved, kind_key="kind"):
    kind = str(_require(resolved, kind_key))
    cutoff = int(_require(resolved, "cutoff"))
    fallback = f"eigenspace({cutoff})" if kind == "eigenspace" else "hol"
    family = _family(resolved, fallback=fallback)
    return MeasureSpec(kind, family, cutoff,
                       beta=float(resolved.get("beta") or 0.0),
                       seed=int(resolved.get("seed") or 0),
                       experimental=bool(resolved.get("experimental") or False))


def _cmd_sample(resolved):
    spec = _measure_spec(resolved)
    tensor = None
    if spec.kind == "gibbs":
        tensor = _tensor_for(resolved, spec.family, spec.cutoff)
    start = int(resolved["start_index"])
    if resolved["metropolis"]:
        if spec.kind != "gibbs":
            raise ConfigError("metropolis: only the gibbs kind has a chain sampler")
        coeffs = measures.sample_gibbs_metropolis(
            spec, int(_require(resolved, "count")), tensor,
            burn_in=int(resolved["burn_in"]), thin=int(resolved["thin"]))
    else:
        coeffs = measures.sample_ensemble(
            spec, int(_require(resolved, "count")), tensor=tensor, start_index=start)

    out = _require(resolved, "out")
    with open(out, "w", encoding="utf-8") as fh:
        for i, row in enumerate(coeffs):
            doc = {"index": start + i,
                   "coeffs": [[float(c.real), float(c.imag)] for c in row]}
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    summary = (f"sample kind={spec.kind} family={spec.family.label} "
               f"cutoff={spec.cutoff} count={len(coeffs)} seed={spec.seed} -> {out}")
    return summary, 0, [out]


def _cmd_invariance(resolved):
    spec = _measure_spec(resolved, kind_key="measure")
    tensor = _tensor_for(resolved, spec.family, spec.cutoff)
    report = lab.invariance_test(
        spec, tensor, float(_require(resolved, "t")),
        int(_require(resolved, "samples")), config=_integrator(resolved),
        start_index=int(resolved["start_index"]))

    out = _require(resolved, "report")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json(include_tables=bool(resolved["tables"])))
        fh.write("\n")
    worst_z = max((abs(row["z"]) for row in report.observables), default=0.0)
    worst_p = min((row["ks_p_adjusted"] for row in report.observables), default=1.0)
    summary = (f"invariance measure={spec.kind} cutoff={spec.cutoff} "
               f"t={resolved['t']!r} samples={report.n_samples}: "
               f"{report.verdict} max|z|={worst_z:.2f} min adj p={worst_p:.3g} "
               f"hamiltonian={'ok' if report.hamiltonian_check['pass'] else 'FAIL'} "
               f"-> {out}")
    return summary, 0 if report.verdict == "PASS" else 2, [out]


def _cmd_recurrence(resolved):
    result = lab.recurrence_experiment(
        int(_require(resolved, "level")), float(_require(resolved, "t_max")),
        float(_require(resolved, "dt")), int(_require(resolved, "samples")),
        theta=float(resolved["theta"]), seed=int(resolved["seed"]))
    out = _require(resolved, "out")
    _write_json(out, result)
    summary = (f"recurrence level={resolved['level']} t_max={resolved['t_max']!r} "
               f"samples={resolved['samples']}: recurred "
               f"{result['fraction_recurred']:.2f} returned "
               f"{result['fraction_returned']:.2f} -> {out}")
    return summary, 0, [out]


def _cmd_cauchy(resolved):
    result = lab.cauchy_study(
        float(_require(resolved, "sigma")), int(_require(resolved, "cutoff")),
        _int_list(resolved, "m_values"), int(_require(resolved, "samples")),
        seed=int(resolved["seed"]))
    out = _require(resolved, "out")
    _write_json(out, result)
    ok = result["monotone_beyond_2se"] and result["slope"] < 0
    summary = (f"cauchy sigma={result['sigma']!r} cutoff={result['cutoff']} "
               f"samples={result['n_samples']}: {'PASS' if ok else 'FAIL'} "
               f"slope={result['slope']:.3f} monotone={result['monotone_beyond_2se']} "
               f"-> {out}")
    return summary, 0 if ok else 2, [out]


def _cmd_concentration(resolved):
    result = lab.concentration_study(
        _int_list(resolved, "levels"), int(_require(resolved, "samples")),
        seed=int(resolved["seed"]), n_radial=resolved.get("n_radial"),
        n_theta=resolved.get("n_theta"),
        check_resolution=bool(resolved["check_resolution"]))
    out = _require(resolved, "out")
    _write_json(out, result)
    ok = result["medians_within_band"] and result["out_of_band_non_increasing"]
    medians = [result["per_level"][N]["median"] for N in result["levels"]]
    summary = (f"concentration levels={','.join(map(str, result['levels']))} "
               f"samples={result['n_samples']}: {'PASS' if ok else 'FAIL'} "
               f"medians={['%.3f' % m for m in medians]} -> {out}")
    return summary, 0 if ok else 2, [out]


def _parse_p(resolved):
    raw = _require(resolved, "p")
    if isinstance(raw, str) and raw.strip().lower() in ("inf", "infinity", "linf"):
        return math.inf
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("p: expected a number or 'inf'") from exc


def _cmd_norms(resolved):
    result = norm_decay_study(
        _family(resolved), _parse_p(resolved), _int_list(resolved, "n_values"),
        log_correction=bool(resolved["log_correction"]))
    out = _require(resolved, "out")
    _write_json(out, result)
    extra = ""
    if result["log_coeff"] is not None:
        extra = f" log_coeff={result['log_coeff']:.3f}"
    summary = (f"norms family={result['family']} p={resolved['p']} "
               f"exponent={result['exponent']:.4f}{extra} r2={result['r2']:.6f} "
               f"-> {out}")
    return summary, 0, [out]


def _cmd_tails(resolved):
    spec = _measure_spec(resolved)
    tensor = None
    if spec.kind == "gibbs":
        tensor = _tensor_for(resolved, spec.family, spec.cutoff)
    result = measures.tail_study(
        spec, str(_require(resolved, "functional")),
        lambdas=_float_list(resolved, "lambdas"),
        n_samples=int(_require(resolved, "samples")), tensor=tensor,
        min_tail_hits=int(resolved["min_tail_hits"]))
    out = _require(resolved, "out")
    _write_json(out, result)
    summary = (f"tails kind={spec.kind} cutoff={spec.cutoff} "
               f"functional={resolved['functional']} samples={resolved['samples']}: "
               f"slope={result['slope']:.4f} r2={result['r2']:.4f} -> {out}")
    return summary, 0, [out]


def _cmd_oracle_check(resolved):
    family = _family(resolved)
    if family.kind != "holomorphic":
        raise ConfigError(f"family: only the holomorphic oracle exists, not {family.label}")
    max_index = int(_require(resolved, "max_index"))
    if max_index < 0:
        raise ConfigError("max_index must be >= 0")
    constant, spread, count = coupling.proportionality_constant(max_index)
    ok = spread < 1e-6
    outputs = []
    if resolved.get("out") is not None:
        _write_json(resolved["out"], {
            "max_index": max_index, "constant": constant,
            "relative_spread": spread, "quadruples": count,
        })
        outputs.append(resolved["out"])
    summary = (f"oracle-check max-index={max_index}: {'PASS' if ok else 'FAIL'} "
               f"constant={constant!r} spread={spread:.3e} over {count} quadruples")
    return summary, 0 if ok else 2, outputs


_COMMANDS = {
    "tensor": _cmd_tensor,
    "evolve": _cmd_evolve,
    "sample": _cmd_sample,
    "invariance": _cmd_invariance,
    "recurrence": _cmd_recurrence,
    "cauchy": _cmd_cauchy,
    "concentration": _cmd_concentration,
    "norms": _cmd_norms,
    "tails": _cmd_tails,
    "oracle-check": _cmd_oracle_check,
}


def run(argv=None):
    """Parse argv, execute the subcommand, and return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    name = args.subcommand
    started = time.time()
    try:
        resolved = _resolve(args, _SCHEMAS[name][1])
        summary, code, outputs = _COMMANDS[name](resolved)
        if outputs:
            primary = outputs[0]
            _write_json(f"{primary}.config.json",
                        {"subcommand": name, **resolved})
            _write_json(f"{primary}.meta.json", {
                "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "elapsed_seconds": round(time.time() - started, 3),
                "package_version": __version__,
                "tensor_cache_format": coupling.CACHE_VERSION,
                "outputs": list(outputs),
            })
    except ConfigError as exc:
        print(f"crlab {name}: config error: {exc}", file=sys.stderr)
        return 3
    # GridResolutionError is a ValueError, so it is caught first
    except (GridResolutionError, NumericalError) as exc:
        print(f"crlab {name}: numerical error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"crlab {name}: config error: {exc}", file=sys.stderr)
        return 3
    except GibbsStallError as exc:
        print(f"crlab {name}: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
