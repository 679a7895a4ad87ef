"""Call tracing of trustcbf's public functions, applied from outside the package.

The package binds names with ``from .x import y``, so replacing a function in
its defining module alone would miss every call made through another module's
binding.  ``Tracer.install`` therefore replaces the function in every
``trustcbf.*`` module whose namespace holds it, and ``Tracer.uninstall`` puts
the originals back.

Each traced call records one span in memory: which function, the span that
was open when it started (its parent), start and end times, whether it raised,
and the number of constraint rows for the solvers.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _lp_rows(args, kwargs) -> int:
    return len(kwargs["rows"] if "rows" in kwargs else args[1])


def _qp_rows(args, kwargs) -> int:
    return len((kwargs["problem"] if "problem" in kwargs else args[0]).rows)


@dataclass(frozen=True)
class Target:
    module: str
    func: str
    rows: Optional[Callable] = None   # counts solver rows from the call's arguments
    raises: Optional[str] = None      # metric name for calls that end in an exception
    timed: bool = True                # False: some workloads never call it, report counts only

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


TARGETS = (
    Target("solvers", "solve_lp", rows=_lp_rows, raises="failed"),
    Target("solvers", "solve_qp", rows=_qp_rows, raises="failed"),
    Target("trust", "max_own_contribution", raises="failed"),
    Target("trust", "worst_case_motion"),
    Target("trust", "update_alpha"),
    Target("trust", "alpha_rate_floor", raises="boundary"),
    Target("barriers", "eval_barrier"),
    Target("barriers", "cbf_row"),
    Target("world", "estimate_motion", raises="failed"),
    Target("controller", "agent_step"),
    Target("controller", "clf_qp_reference", raises="failed", timed=False),
    Target("dynamics", "euler_step"),
    Target("dynamics", "track_reference"),
    Target("sim", "run"),
    Target("sim", "adversary_policy", timed=False),
    Target("sim", "metrics"),
    Target("cli", "load_scenario", raises="failed"),
    Target("cli", "write_trace_csv"),
    Target("cli", "write_pairs_csv"),
    Target("cli", "write_charts"),
)

MODULES = ("solvers", "trust", "barriers", "world", "controller", "dynamics", "sim", "cli")


@dataclass
class FuncStats:
    calls: int = 0
    self_s: float = 0.0
    raised: int = 0
    rows: int = 0


class Tracer:
    """Wraps every target at every import site; collects spans between installs."""

    def __init__(self):
        self.targets = TARGETS
        # span: (target index, parent span index or -1, t0, t1, raised, rows)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (module, attribute, original)
        self.sites: list[str] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("trustcbf.") and m is not None]
        self.sites = []
        for idx, t in enumerate(self.targets):
            home = importlib.import_module(f"trustcbf.{t.module}")
            original = getattr(home, t.func)
            wrapper = self._wrap(idx, original, t.rows)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
                        self.sites.append(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, idx: int, fn: Callable, rows_of: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = rows_of(args, kwargs) if rows_of is not None else 0
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            raised = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, parent, t0, t1, raised, rows)

        return traced

    def collect(self) -> dict[str, FuncStats]:
        """Per-target statistics of the spans recorded so far; clears the spans."""
        if self._stack:
            raise RuntimeError("collect() called inside a traced call")
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {t.name: FuncStats() for t in self.targets}
        for sid, (idx, _, t0, t1, raised, rows) in enumerate(self.spans):
            st = stats[self.targets[idx].name]
            st.calls += 1
            st.self_s += (t1 - t0) - child[sid]
            st.raised += raised
            st.rows += rows
        self.spans.clear()
        return stats
