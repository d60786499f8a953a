"""Per-layer tracing for the benchmark's traced run.

Timing wrappers are installed at the caller's binding: bffkit modules import
each other's functions by name, so wrapping specfun.log_2f1 would miss every
call made through bayes_factors.log_2f1.  Each call records a span (name,
start, end, parent) in flat in-memory arrays; the spans are written out once
the run ends, and the per-layer metrics are derived from them.  The tracer
restores every binding it replaced when it is closed.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from workloads import FORMS

ERROR_TYPES = ("ArithmeticError", "AssertionError", "NonConvergenceError", "ValueError")
# r* within this distance of r = 1 counts as a boundary point; it mirrors
# twice the golden-section tolerance of the MMAP search.
R_BOUNDARY_TOL = 2e-4


def bindings(bffkit):
    """(module, attribute, span name) for every binding the tracer wraps."""
    bf, ev, cli = bffkit.bayes_factors, bffkit.evidence, bffkit.cli
    out = [
        (bf, "log_1f1", "specfun.log_1f1"),
        (bf, "log_2f1", "specfun.log_2f1"),
    ]
    out += [(bf, f"log_bf10_{form}", f"bayes_factors.{form}") for form in FORMS]
    out += [
        (ev, "log_bf10", "bayes_factors.log_bf10"),
        (ev, "tau_sq_for", "effect_map.tau_sq_for"),
        (ev, "jeffreys_log_prior_nm", "priors.jeffreys_log_prior_nm"),
        (ev, "jeffreys_log_prior_gamma", "priors.jeffreys_log_prior_gamma"),
        (ev, "combined_log_bf", "evidence.combined_log_bf"),
        (ev, "per_study_log_bf", "evidence.per_study_log_bf"),
        (ev, "mmap_r", "evidence.mmap_r"),
        (cli, "load_studies", "cli.load_studies"),
        (cli, "bff_curve", "evidence.bff_curve"),
    ]
    return out


class Tracer:
    """Installs the wrappers on construction; close() restores the bindings.

    wrap() is also used by the benchmark for the calls it makes itself
    (bff_curve, log_bf10, cli.main), so those calls become root spans.
    """

    def __init__(self, bffkit):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()
        self.arithmetic: Counter = Counter()
        self.eval_keys: set = set()
        self.repeat_evals = 0
        self.boundary_points = 0
        self._stack = [-1]
        self._saved = []
        for module, attr, span in bindings(bffkit):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn):
        nid = self._id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        arithmetic = self.arithmetic
        observe = {
            "evidence.per_study_log_bf": self._observe_eval,
            "evidence.mmap_r": self._observe_mmap,
        }.get(span)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(span, type(exc).__name__)] += 1
                if isinstance(exc, ArithmeticError):
                    arithmetic[span] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_eval(self, args, result) -> None:
        key = (id(args[0]), args[1], args[2])
        if key in self.eval_keys:
            self.repeat_evals += 1
        else:
            self.eval_keys.add(key)

    def _observe_mmap(self, args, result) -> None:
        if result.at_boundary or result.r_star - 1.0 <= R_BOUNDARY_TOL:
            self.boundary_points += 1

    # ------------------------------------------------------------ results

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return name, parent, dur

    def save(self, path, run_id: str) -> None:
        np.savez(
            path,
            run_id=np.array(run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times (span time minus child spans)."""
        name, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        selfs = np.bincount(name, weights=self_time, minlength=width)
        durs = np.bincount(name, weights=dur, minlength=width)

        def n(span):
            return int(calls[self._ids[span]]) if span in self._ids else 0

        def s(span):
            return float(selfs[self._ids[span]]) if span in self._ids else 0.0

        def total(span):
            return float(durs[self._ids[span]]) if span in self._ids else 0.0

        kernel_calls = n("specfun.log_1f1") + n("specfun.log_2f1")
        kernel_s = s("specfun.log_1f1") + s("specfun.log_2f1")
        m = {
            "specfun.log_1f1.calls": n("specfun.log_1f1"),
            "specfun.log_2f1.calls": n("specfun.log_2f1"),
            "specfun.log_1f1.self_s": s("specfun.log_1f1"),
            "specfun.log_2f1.self_s": s("specfun.log_2f1"),
            "specfun.us_per_call": 1e6 * kernel_s / kernel_calls if kernel_calls else 0.0,
            "bayes_factors.log_bf10.calls": n("bayes_factors.log_bf10"),
            "bayes_factors.self_s": s("bayes_factors.log_bf10")
            + sum(s(f"bayes_factors.{form}") for form in FORMS),
        }
        for form in FORMS:
            m[f"bayes_factors.{form}.calls"] = n(f"bayes_factors.{form}")
            m[f"bayes_factors.{form}.self_s"] = s(f"bayes_factors.{form}")
        raised = Counter(
            {t: c for (span, t), c in self.errors.items() if span == "bayes_factors.log_bf10"}
        )
        for etype in ERROR_TYPES:
            m[f"bayes_factors.errors.{etype}"] = raised.pop(etype, 0)
        m["bayes_factors.errors.other"] = sum(raised.values())

        priors = ("priors.jeffreys_log_prior_nm", "priors.jeffreys_log_prior_gamma")
        m["effect_map.calls"] = n("effect_map.tau_sq_for")
        m["effect_map.self_s"] = s("effect_map.tau_sq_for")
        m["priors.calls"] = sum(n(p) for p in priors)
        m["priors.self_s"] = sum(s(p) for p in priors)

        # objective evaluations are the combined_log_bf calls made by mmap_r
        mmap_calls = n("evidence.mmap_r")
        if "evidence.combined_log_bf" in self._ids:
            is_eval = name == self._ids["evidence.combined_log_bf"]
            under_mmap = np.zeros(len(name), dtype=bool)
            under_mmap[has_parent] = name[parent[has_parent]] == self._ids["evidence.mmap_r"]
            evals = int(np.count_nonzero(is_eval & under_mmap))
        else:
            evals = 0
        study_evals = n("evidence.per_study_log_bf")
        m.update(
            {
                "evidence.mmap_r.calls": mmap_calls,
                "evidence.objective_evals": evals,
                "evidence.objective_evals_per_point": evals / mmap_calls if mmap_calls else 0.0,
                # mmap_r turns an ArithmeticError from the objective into -inf
                "evidence.neg_inf_evals": self.arithmetic["evidence.combined_log_bf"],
                "evidence.repeat_eval_frac": self.repeat_evals / study_evals if study_evals else 0.0,
                "evidence.r_boundary_points": self.boundary_points,
                "evidence.mmap_r.self_s": s("evidence.mmap_r"),
                "evidence.combined_log_bf.self_s": s("evidence.combined_log_bf"),
                "evidence.per_study_log_bf.self_s": s("evidence.per_study_log_bf"),
                "evidence.bff_curve.self_s": s("evidence.bff_curve"),
                "cli.load_studies_s": total("cli.load_studies"),
                "cli.self_s": s("cli.main"),
            }
        )
        return m
