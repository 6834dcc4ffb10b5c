"""Spans around qfakit's public functions, installed from outside.

``Tracer.install()`` replaces each target by a wrapper, by module
attribute, in every loaded ``qfakit`` module that holds it, so the names
``qfakit.cli`` imported directly (``from .qfa import run``) are wrapped
too.  Methods are wrapped on their class.  A target that does not exist
in the code under test is reported as absent, not as an error, so the
same benchmark runs on commits that renamed or removed it.

Each wrapped call records a span (id, parent id, name, start, end); self
time is the span's duration minus the time its child spans cover.  Spans
stay in memory, up to a cap, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute path); a dotted path names a method.
TARGETS = {
    "modular.gcd": ("qfakit.modular", "gcd"),
    "modular.mod_div": ("qfakit.modular", "mod_div"),
    "modular.factorize": ("qfakit.modular", "factorize"),
    "modular.quad_exp_sum": ("qfakit.modular", "quad_exp_sum"),
    "modular.shift_invariance_check": ("qfakit.modular", "shift_invariance_check"),
    "circulant.matmul": ("qfakit.circulant", "ShiftMatrix.__matmul__"),
    "circulant.power": ("qfakit.circulant", "ShiftMatrix.power"),
    "circulant.conj_transpose": ("qfakit.circulant", "ShiftMatrix.conj_transpose"),
    "circulant.is_unitary": ("qfakit.circulant", "ShiftMatrix.is_unitary"),
    "circulant.to_dense": ("qfakit.circulant", "ShiftMatrix.to_dense"),
    "circulant.quadratic_phase_circulant": ("qfakit.circulant", "quadratic_phase_circulant"),
    "circulant.cyclic_shift_circulant": ("qfakit.circulant", "cyclic_shift_circulant"),
    "circulant.iter_powers": ("qfakit.circulant", "iter_powers"),
    "circulant.classify_special": ("qfakit.circulant", "classify_special"),
    "qfa.validate": ("qfakit.qfa", "validate"),
    "qfa.step": ("qfakit.qfa", "step"),
    "qfa.initial_superposition": ("qfakit.qfa", "initial_superposition"),
    "qfa.run": ("qfakit.qfa", "run"),
    "qfa.accept_probability": ("qfakit.qfa", "accept_probability"),
    "qfa.run_sampled": ("qfakit.qfa", "run_sampled"),
    "divisibility.word_stats": ("qfakit.divisibility", "word_stats"),
    "divisibility.is_member": ("qfakit.divisibility", "is_member"),
    "divisibility.build_qfa": ("qfakit.divisibility", "build_qfa"),
    "divisibility.build_dfa": ("qfakit.divisibility", "build_dfa"),
    "divisibility.dfa_accepts": ("qfakit.divisibility", "dfa_accepts"),
    "divisibility.minimize_dfa": ("qfakit.divisibility", "minimize_dfa"),
    "cli.scan_report": ("qfakit.cli", "scan_report"),
    "cli.lemma_report": ("qfakit.cli", "lemma_report"),
    "cli.compare_report": ("qfakit.cli", "compare_report"),
}

# Counts taken from a wrapped call's result: span name -> (counter, f(result)).
RESULT_COUNTERS = {
    "circulant.classify_special": ("circulant.classify_special.hits", lambda r: r is not None),
    "divisibility.minimize_dfa": ("divisibility.minimize_dfa.states", lambda r: len(r.states)),
}

ROOT = 0


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # A method must be defined on the class itself, not inherited.
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not inspect.isfunction(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self, span_cap: int = 20_000) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, total, self
        self.counters: dict[str, float] = {counter: 0 for counter, _ in RESULT_COUNTERS.values()}
        self.frames: list[list] = [[ROOT, 0.0]]  # [span id, time covered by children]
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.absent = sorted(name for name, target in TARGETS.items() if _resolve(*target) is None)

    def _close(self, name: str, span_id: int, frame: list, parent: list, t0: float, t1: float) -> None:
        dur = t1 - t0
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[1] += dur
        stat[2] += dur - frame[1]
        parent[1] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0], name, t0, t1))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one pass."""
        span_id = next(self._ids)
        frame, parent = [span_id, 0.0], self.frames[-1]
        self.frames.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.frames.pop()
            self._close(name, span_id, frame, parent, t0, t1)

    def _wrap(self, name: str, fn):
        frames, ids, clock, close = self.frames, self._ids, time.perf_counter, self._close
        counter, count = RESULT_COUNTERS.get(name, (None, None))
        stat = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            frame, parent = [span_id, 0.0], frames[-1]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                stat[0] += 1
                close(name, span_id, frame, parent, t0, t1)
            if counter is not None:
                self.counters[counter] += count(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        # The work of a generator happens in next(), so each next() is a span.
        stat, done = self.stats[name], object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(it, done)
                if item is done:
                    return
                yield item

        return traced

    def install(self) -> None:
        if self._patches:
            return
        for name, target in TARGETS.items():
            resolved = _resolve(*target)
            if resolved is None:
                continue
            owner, attr, original = resolved
            wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
            wrapper = wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "qfakit":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        values = {}
        for name, (calls, total, self_s) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.total_s"] = total
            values[f"{name}.self_s"] = self_s
        values.update(self.counters)
        return values

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({**header, "spans_kept": len(self.spans), "spans_dropped": self.dropped}) + "\n")
            for span_id, parent, name, t0, t1 in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")
