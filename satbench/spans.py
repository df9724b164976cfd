"""Spans recorded from outside the simulator, at the module attributes its
callers look up.

A wrapper replaces a public function where callers find it (for example
``satcoop.harness.drop_users``, which ``run_trial`` resolves at call time)
and records one span per call: name, start, end, parent span, trial id and
an optional tag computed from the call's arguments and result.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, TRIAL, TAG = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trial = None

    def wrap(self, name, fn, tag=None, trial_id=None):
        """Return fn wrapped in a span called name.

        tag(args, result) adds a value to the span.  For the span that
        opens a trial, trial_id(args) gives the id that it and every span
        inside it carry.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if trial_id is not None:
                self.trial = trial_id(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if trial_id is not None:
                    self.trial = None
            if tag is not None:
                rec[TAG] = tag(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run nested inside it on the same thread and
        never overlap, so the covered time is the sum of their durations.
        """
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START] - t0,
                    "end": rec[END] - t0, "parent": rec[PARENT],
                    "trial": rec[TRIAL], "tag": rec[TAG]}) + "\n")


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)


def sweep_trial(run_trial_args) -> tuple:
    """(master seed, trial index): identifies a trial across sweeps."""
    _, _, config, trial = run_trial_args
    return config.master_seed, trial


def _allocator_tag(args, result):
    gains = args[0]
    _, converged, iterations, _, _ = result
    return [int(gains.shape[0]), int(gains.shape[1]),
            int(iterations.sum()), int((~converged).sum())]


def install(tracer: Tracer, main_fn):
    """Wrap every traced layer boundary; return the patch list and the
    traced stand-in for cli.main (which the benchmark calls directly)."""
    import satcoop.channel as channel
    import satcoop.cli as cli
    import satcoop.harness as harness
    import satcoop.power_alloc as power_alloc
    import satcoop.schemes as schemes

    w = tracer.wrap
    replacements = [
        (cli, "run_sweep", w("harness.run_sweep", cli.run_sweep)),
        (cli, "export_report", w("harness.export_report", cli.export_report)),
        (harness, "run_trial", w("harness.run_trial", harness.run_trial,
                                 trial_id=sweep_trial)),
        (harness, "drop_users", w("geometry.drop_users", harness.drop_users)),
        (harness, "synthesize_channels",
         w("channel.synthesize_channels", harness.synthesize_channels)),
        (harness, "run_scheme", w("schemes.run_scheme", harness.run_scheme,
                                  tag=lambda args, _: args[2].kind)),
        (schemes, "allocate_sumrate_batch",
         w("power_alloc.allocate_sumrate_batch",
           schemes.allocate_sumrate_batch, tag=_allocator_tag)),
        (schemes, "select_edge_users",
         w("precoding.select_edge_users", schemes.select_edge_users)),
        (power_alloc, "project_power",
         w("power_alloc.project_power", power_alloc.project_power)),
        (channel.ChannelRealization, "checksum",
         w("channel.checksum", channel.ChannelRealization.checksum)),
    ]
    return replacements, w("cli.main", main_fn)


def trial_counts(tracer: Tracer) -> dict:
    """Exact per-trial work counts, keyed by (master seed, trial).

    These depend only on the inputs, so two traced runs of the same trials
    must produce identical tables.
    """
    counts: dict = defaultdict(lambda: defaultdict(int))
    for rec in tracer.spans:
        if rec[TRIAL] is None:
            continue
        row = counts[rec[TRIAL]]
        row[rec[NAME] + ".calls"] += 1
        if rec[NAME] == "power_alloc.allocate_sumrate_batch":
            problems, _, iterations, nonconverged = rec[TAG]
            row["power_alloc.problems"] += problems
            row["power_alloc.iterations"] += iterations
            row["power_alloc.nonconverged"] += nonconverged
    return {t: dict(row) for t, row in counts.items()}
