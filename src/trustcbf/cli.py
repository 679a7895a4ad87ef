"""Command line front end: run scenarios, validate them, and self-test the solvers.

Subcommands
    run        simulate a scenario file and write trace.csv, pairs.csv,
               summary.json, and four SVG charts into --out; the file is
               the run's only input, so run runs what validate accepts
    validate   parse and check a scenario file, writing nothing
    oracle     run ``trustcbf.oracles.self_test``: the QP and LP solvers and
               the emptiness certificate against their independent oracles
               (needs numpy from the ``test`` extra)

Exit codes: 0 success, 1 when the oracle self-test finds a failure, 2 usage
error or ``oracle`` without numpy, 3 scenario validation error, 4 I/O error,
5 when --strict is set and the run hit any infeasibility fallback.

At import this module loads only ``trustcbf.schema`` and the standard
library, so loading and validating a scenario imports no simulator code; each
subcommand imports what it runs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .schema import (AGENT_FIELDS, PAIR_FIELDS, AgentKind, AgentRecord, AgentSpec, Box, Model,
                     PairRecord, Scenario, TrustParams, ValidationError)

if TYPE_CHECKING:
    import argparse

    from .sim import Trace

TRACE_HEADER = ",".join(("t", "agent_id", *AgentRecord._fields))
PAIRS_HEADER = ",".join(("t", "i", "j", *PairRecord._fields))

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#17becf", "#bcbd22"]


def _nonnegative_int(text: str) -> int:
    import argparse

    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be zero or more, got {text}")
    return v


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    import argparse

    parser = argparse.ArgumentParser(prog="trustcbf",
                                     description="Trust-adaptive safety-filter simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write outputs")
    p_run.add_argument("--scenario", required=True, type=Path)
    p_run.add_argument("--out", required=True, type=Path)
    p_run.add_argument("--no-svg", action="store_true", help="skip chart generation")
    p_run.add_argument("--strict", action="store_true",
                       help="exit 5 if any step needed an emergency fallback")

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("--scenario", required=True, type=Path)

    p_or = sub.add_parser("oracle", help="self-test the solvers against their oracles")
    p_or.add_argument("--qp", type=_nonnegative_int, default=100, help="number of random QP instances")
    p_or.add_argument("--lp", type=_nonnegative_int, default=100,
                      help="number of random LP instances, and of leave-one-out instances")
    p_or.add_argument("--seed", type=_nonnegative_int, default=0)

    return parser.parse_args(argv)


# --- scenario JSON ---------------------------------------------------------

# A scenario file's keys are the Scenario, AgentSpec and TrustParams fields;
# Scenario's boolean fields sit in the "flags" object.
_FLAG_KEYS = {"fixed_alpha", "rate_floor"}
_TOP_KEYS = {f.name for f in fields(Scenario)} - _FLAG_KEYS | {"flags"}
_AGENT_KEYS = {f.name for f in fields(AgentSpec)}
_TRUST_KEYS = {f.name for f in fields(TrustParams)}


def _object(v, allowed: set, where: str) -> dict:
    """The JSON value ``v``, which must be an object with no key outside ``allowed``."""
    if not isinstance(v, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(v) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    return v


def _enum(cls, v, where: str):
    try:
        return cls(v)
    except ValueError:
        raise ValidationError(f"{where}: expected one of {[m.value for m in cls]}, got {v!r}")


def _float(v, where: str) -> float:
    """The JSON number ``v`` as a finite float; every other value (NaN and the
    infinities, which Python's JSON reader accepts, among them) and MISSING
    raise ValidationError."""
    if v is MISSING:
        raise ValidationError(f"{where}: required")
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValidationError(f"{where}: expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise ValidationError(f"{where}: integer too large for a float")
    if not math.isfinite(v):
        raise ValidationError(f"{where} must be finite, got {v}")
    return v


def _floats(obj: dict, cls, prefix: str) -> dict:
    """``obj``'s values of the float fields of ``cls``, each named ``prefix``
    and the field's name; a field without a default is required."""
    return {f.name: _float(obj.get(f.name, MISSING), prefix + f.name) for f in fields(cls)
            if f.type == "float" and (f.name in obj or f.default is MISSING)}


def _parse_agent(obj, idx: int) -> AgentSpec:
    where = f"agents[{idx}]"
    obj = _object(obj, _AGENT_KEYS, where)
    options = _floats(obj, AgentSpec, f"{where}.")
    start = obj.get("start")
    if not isinstance(start, list):
        raise ValidationError(f"{where}.start: expected [x, y] or [x, y, psi]")
    target = obj.get("target")
    if isinstance(target, list):
        options["target"] = tuple(_float(v, f"{where}.target") for v in target)
    elif target not in (None, "unknown"):
        raise ValidationError(f"{where}.target: expected [x, y] or \"unknown\"")
    if "box" in obj:
        try:
            lo, hi = obj["box"]
            options["box"] = Box(tuple(_float(v, f"{where}.box") for v in lo),
                                 tuple(_float(v, f"{where}.box") for v in hi))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}.box: expected [[lo...], [hi...]] containing 0 ({exc})")
    prey = obj.get("prey")
    if prey is not None and (not isinstance(prey, int) or isinstance(prey, bool)):
        raise ValidationError(f"{where}.prey: expected an agent id")
    return AgentSpec(kind=_enum(AgentKind, obj.get("kind"), f"{where}.kind"),
                     model=_enum(Model, obj.get("model"), f"{where}.model"),
                     start=tuple(_float(v, f"{where}.start") for v in start), prey=prey,
                     **options)


def load_scenario(path: Path) -> Scenario:
    """Parse and validate a scenario file; raises ValidationError on any defect."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}")
    try:
        obj = json.loads(raw)
    except ValueError as exc:   # JSONDecodeError, or an integer of too many digits
        raise ValidationError(f"{path}: not valid JSON ({exc})")
    obj = _object(obj, _TOP_KEYS, str(path))
    agents = obj.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ValidationError("agents: expected a nonempty array")
    agents = [_parse_agent(a, idx) for idx, a in enumerate(agents)]
    trust = _object(obj.get("trust", {}), _TRUST_KEYS, "trust")
    flags = _object(obj.get("flags", {}), _FLAG_KEYS, "flags")
    for key, v in flags.items():
        if not isinstance(v, bool):
            raise ValidationError(f"flags.{key}: expected true or false")
    # Keys the file leaves out take Scenario's defaults.
    options = _floats(obj, Scenario, "")
    if "seed" in obj:
        if not isinstance(obj["seed"], int) or isinstance(obj["seed"], bool):
            raise ValidationError("seed: expected an integer")
        options["seed"] = obj["seed"]
    s = Scenario(agents=agents, trust=TrustParams(**_floats(trust, TrustParams, "trust.")),
                 **flags, **options)
    s.validate()
    return s


# --- outputs ---------------------------------------------------------------

def _write_steps(path: Path, header: str, times: list[float], data, per_record: int,
                 lines: list[str]) -> None:
    """Write ``header`` and then, step by step, the records of that step.

    ``data`` holds ``per_record`` doubles per record, and a step's records
    follow one another.  ``lines`` holds one %-format per record of a step,
    each after its time field.  The step's time is joined in front of every
    line, so one ``%`` over the step's slice of ``data`` formats all its
    records.  The file is written as bytes, with "\n" line ends.
    """
    parts = [b""] + [(line + "\n").encode() for line in lines]
    width = per_record * len(lines)
    with path.open("wb") as f:
        f.write((header + "\n").encode())
        for k, t in enumerate(times):
            f.write((b"%.17g" % t).join(parts) % tuple(data[width * k:width * (k + 1)]))


# Every output float is written "%.17g", which round-trips; "%d" prints the fallback code.
def write_trace_csv(trace: Trace, path: Path) -> None:
    line = "".join(",%d" if name == "fallback" else ",%.17g" for name in AgentRecord._fields)
    _write_steps(path, TRACE_HEADER, trace.times, trace.agent_data, AGENT_FIELDS,
                 [f",{i}{line}" for i in range(trace.n_agents)])


def write_pairs_csv(trace: Trace, path: Path) -> None:
    line = ",%.17g" * PAIR_FIELDS
    _write_steps(path, PAIRS_HEADER, trace.times, trace.pair_data, PAIR_FIELDS,
                 [f",{i},{j}{line}" for i, j in trace.pair_keys])


def _svg_line_chart(path: Path, title: str, series: list, xlabel: str, ylabel: str) -> None:
    """Hand-emitted 800 x 600 SVG polyline chart.

    ``series`` is a list of (label, xs, ys).  The axis range is exactly the
    data range (no padding), recorded on the root element as data-x-min/max
    and data-y-min/max so downstream checks can read the plotted extents.  A
    chart without points (a scenario with no observed pairs) spans [0, 0].

    Series may share their x list (every pair series plots against
    trace.times).  Each distinct x list is read once: for the x extents, and
    for its points template, its screen x strings each followed by a %-format
    for the screen y, so one ``%`` over a series' screen y values formats
    its polyline.
    """
    xlists = list({id(xs): xs for _, xs, _ in series}.values())
    x_min = min((min(xs) for xs in xlists if len(xs)), default=0.0)
    x_max = max((max(xs) for xs in xlists if len(xs)), default=0.0)
    y_min = min((min(ys) for _, _, ys in series if len(ys)), default=0.0)
    y_max = max((max(ys) for _, _, ys in series if len(ys)), default=0.0)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0
    width, height = 800, 600
    ml, mr, mt, mb = 70, 150, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        'data-x-min="%.17g" data-x-max="%.17g" data-y-min="%.17g" data-y-max="%.17g">'
        % (x_min, x_max, y_min, y_max),
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{mt + ph / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})" text-anchor="middle">{ylabel}</text>',
        f'<text x="{ml - 6}" y="{mt + ph + 4}" text-anchor="end" font-size="10">{y_min:.4g}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" text-anchor="end" font-size="10">{y_max:.4g}</text>',
        f'<text x="{ml}" y="{mt + ph + 16}" text-anchor="middle" font-size="10">{x_min:.4g}</text>',
        f'<text x="{ml + pw}" y="{mt + ph + 16}" text-anchor="middle" font-size="10">{x_max:.4g}</text>',
    ]
    # Screen coordinates: x maps onto [ml, ml + pw], y onto [mt + ph, mt].
    templates = {id(xs): " ".join(["%.2f,%%.2f" % (ml + (x - x_min) / x_span * pw) for x in xs])
                 for xs in xlists}
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = templates[id(xs)] % tuple([mt + ph - (y - y_min) / y_span * ph for y in ys])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * idx
        parts.append(f'<line x1="{ml + pw + 8}" y1="{ly - 4}" x2="{ml + pw + 28}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 32}" y="{ly}" font-size="11">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def write_charts(trace: Trace, s: Scenario, out: Path) -> list[Path]:
    written = []
    traj = [(f"agent {i} ({s.agents[i].kind.value})",
             trace.agent_column("px", i), trace.agent_column("py", i))
            for i in range(trace.n_agents)]
    p = out / "trajectories.svg"
    _svg_line_chart(p, "Agent trajectories", traj, "x [m]", "y [m]")
    written.append(p)

    for name, fname, title in (("alpha", "alphas.svg", "Pair rate parameters"),
                               ("rho", "trust.svg", "Pair trust scores"),
                               ("h", "barriers.svg", "Pair barrier values")):
        series = [(f"({i},{j})", trace.times, trace.pair_column(name, slot))
                  for slot, (i, j) in enumerate(trace.pair_keys)]
        p = out / fname
        _svg_line_chart(p, title, series, "t [s]", name)
        written.append(p)
    return written


def write_outputs(trace: Trace, summary: dict, s: Scenario, out: Path,
                  emit_svg: bool = True) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    written = []
    p = out / "trace.csv"
    write_trace_csv(trace, p)
    written.append(p)
    p = out / "pairs.csv"
    write_pairs_csv(trace, p)
    written.append(p)
    p = out / "summary.json"
    p.write_text(json.dumps(summary, indent=2) + "\n")
    written.append(p)
    if emit_svg:
        written.extend(write_charts(trace, s, out))
    return written


# --- subcommands -----------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    from .sim import run, summary

    s = load_scenario(args.scenario)
    trace = run(s)
    report = summary(trace, s, str(args.scenario))
    written = write_outputs(trace, report, s, args.out, emit_svg=not args.no_svg)
    m = report["metrics"]
    print(f"run complete: {len(trace.times)} records, min_h={m['min_h']:.6g}, "
          f"emergency_events={m['emergency_events']}")
    for p in written:
        print(f"  wrote {p}")
    if args.strict and m["emergency_events"] > 0:
        print(f"strict mode: {m['emergency_events']} emergency fallback(s)", file=sys.stderr)
        return 5
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    s = load_scenario(args.scenario)
    kinds = ", ".join(f"{i}:{a.kind.value}" for i, a in enumerate(s.agents))
    print(f"OK: {len(s.agents)} agents ({kinds}), duration={s.duration}s, dt={s.dt}s")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        import numpy as np
    except ImportError:
        print("oracle needs numpy: install the test extra, e.g. pip install -e '.[test]'",
              file=sys.stderr)
        return 2
    from .oracles import self_test

    lines, failures = self_test(np.random.default_rng(args.seed), args.qp, args.lp)
    print("\n".join(lines))
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_oracle(args)
    except ValidationError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
