"""Per-layer tracing of sgdlab from outside the package.

`Tracer` wraps public functions in the module attribute each caller looks
up (``sgdlab._engine.run_core``, the names bound in ``sgdlab.stability``
and ``sgdlab.harness.experiments``, the loss classes' ``batch_grad`` and
``batch_value``) and restores the originals on exit.  Every wrapped call
records a span: its kind, start, end, thread and the span that caused it.
The engine runs on pool threads, so spans are kept behind a lock; a span
opened on a thread with no open span of its own is caused by the innermost
open span of the main thread, which is blocked waiting for the pool.

`layer_metrics` turns the spans into the per-layer metrics of
BENCHMARK.json.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    kind: str
    thread: int
    t0: float
    t1: float
    info: Optional[dict]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _engine_info(sig: inspect.Signature) -> Callable:
    def info(args, kwargs, out):
        bound = sig.bind(*args, **kwargs).arguments
        R, T = bound["indices"].shape
        sub = bound.get("sub_idx")
        m = 0 if sub is None else sub.shape[1]
        return {"steps": T, "row_steps": R * (1 + m) * T}
    return info


def _sample_info(args, kwargs, out):
    # a Dataset has n examples; a NeighborFamily holds a base and a ghost
    if hasattr(out, "base"):
        return {"examples": out.base.n + out.ghost.n}
    return {"examples": out.n}


def _gate_info(args, kwargs, out):
    return {"failed": not out.satisfied,
            "noise": bool(out.satisfied and out.measured > out.rhs)}


def _csv_info(args, kwargs, out):
    rows = kwargs["rows"] if "rows" in kwargs else args[1]
    return {"rows": len(rows)}


def _loss_classes(base) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span kind, info function) for every wrap point."""
    from sgdlab import _engine, losses, stability
    from sgdlab.harness import cli, experiments

    targets = [(_engine, "run_core", "engine",
                _engine_info(inspect.signature(_engine.run_core)))]
    for mod in (stability, experiments):
        targets.append((mod, "population_risk", "data.pop_risk", None))
        targets.append((mod, "sample_dataset", "data.sample", _sample_info))
        targets.append((mod, "sample_neighbor_family", "data.sample", _sample_info))
    for name, obj in sorted(vars(experiments).items()):
        if not inspect.isfunction(obj):
            continue
        if obj.__module__ == "sgdlab.stability":
            targets.append((experiments, name, "stability", None))
        elif obj.__module__ == "sgdlab.bounds":
            targets.append((experiments, name, "bounds",
                            _gate_info if name == "gate" else None))
        elif obj.__module__ == "sgdlab.losses" and name.startswith("check_"):
            targets.append((experiments, name, "losses.check", None))
    targets.append((experiments, "write_csv", "harness.csv_write", _csv_info))
    targets.append((experiments, "fit_loglog_slope", "harness.ratefit", None))
    targets.append((cli, "load_config", "harness.config", None))
    for cls in _loss_classes(losses.Loss):
        for meth in ("batch_grad", "batch_value"):
            if meth in cls.__dict__:
                targets.append((cls, meth, "losses.grad", None))
    return [t for t in targets if t[1] in vars(t[0])]


class Tracer:
    """Context manager that wraps sgdlab's layer boundaries while active."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = {}
        self._next_id = 0
        self._main: Optional[int] = None
        self._saved: List[Tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    def __enter__(self) -> "Tracer":
        self._main = threading.get_ident()
        for owner, name, kind, info in _targets():
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(kind, original, info))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _open(self) -> Tuple[int, Optional[int], int]:
        tid = threading.get_ident()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            stack.append(sid)
        return sid, parent, tid

    def _close(self, span: Span) -> None:
        with self._lock:
            self._stacks[span.thread].pop()
            self.spans.append(span)

    def _wrap(self, kind: str, fn: Callable, info: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, tid = self._open()
            out = None
            done = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = time.perf_counter()
                details = info(args, kwargs, out) if (done and info) else None
                self._close(Span(sid, parent, kind, tid, t0, t1, details))
        return wrapper

    def write_spans(self, path) -> None:
        """Write the spans as CSV, times in seconds since the tracer began."""
        with open(path, "w") as fh:
            fh.write("id,parent,kind,thread,start_s,end_s\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.sid},{parent},{s.kind},{s.thread},"
                         f"{s.t0 - self.origin:.9f},{s.t1 - self.origin:.9f}\n")


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def nested_in_same_kind(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].kind == s.kind:
                return True
            p = by_id[p].parent
        return False

    def self_time(s: Span) -> float:
        covered = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[s.sid]]
        return s.duration - _union_length([iv for iv in covered if iv[1] > iv[0]])

    of = defaultdict(list)
    for s in spans:
        if not nested_in_same_kind(s):
            of[s.kind].append(s)

    def busy(kind: str) -> float:
        return sum(s.duration for s in of[kind])

    def total(kind: str, key: str) -> float:
        return sum(s.info[key] for s in of[kind] if s.info)

    engine = of["engine"]
    engine_busy = busy("engine")
    row_steps = total("engine", "row_steps")
    checks = len(of["losses.check"])
    pop_calls = len(of["data.pop_risk"])
    examples = total("data.sample", "examples")
    gates = [s for s in of["bounds"] if s.info is not None and "failed" in s.info]
    return {
        "engine.calls": len(engine),
        "engine.steps": total("engine", "steps"),
        "engine.row_steps": row_steps,
        "engine.busy_s": engine_busy,
        "engine.self_s": sum(self_time(s) for s in engine),
        "engine.ns_per_row_step": _ratio(engine_busy, row_steps, 1e9),
        "engine.overlap": _ratio(engine_busy,
                                 _union_length([(s.t0, s.t1) for s in engine])),
        "losses.grad_calls": len(of["losses.grad"]),
        "losses.grad_busy_s": busy("losses.grad"),
        "losses.check_calls": checks,
        "losses.check_busy_s": busy("losses.check"),
        "losses.us_per_check": _ratio(busy("losses.check"), checks, 1e6),
        "data.pop_risk_calls": pop_calls,
        "data.pop_risk_busy_s": busy("data.pop_risk"),
        "data.ms_per_pop_risk": _ratio(busy("data.pop_risk"), pop_calls, 1e3),
        "data.sample_calls": len(of["data.sample"]),
        "data.sample_examples": examples,
        "data.sample_busy_s": busy("data.sample"),
        "data.ns_per_example": _ratio(busy("data.sample"), examples, 1e9),
        "stability.estimator_calls": len(of["stability"]),
        "stability.busy_s": busy("stability"),
        "stability.self_s": sum(self_time(s) for s in of["stability"]),
        "bounds.calls": len(of["bounds"]),
        "bounds.busy_s": busy("bounds"),
        "bounds.gates": len(gates),
        "bounds.gates_failed": sum(s.info["failed"] for s in gates),
        "bounds.noise_passes": sum(s.info["noise"] for s in gates),
        "harness.config_s": busy("harness.config"),
        "harness.csv_write_s": busy("harness.csv_write"),
        "harness.csv_rows": total("harness.csv_write", "rows"),
        "harness.ratefit_s": busy("harness.ratefit"),
    }
