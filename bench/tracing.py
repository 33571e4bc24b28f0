"""Traced in-process runs: per-layer self time, call counts and allocations.

Tracing wraps, from outside the program, every public function that a layer
module (iwaspectra.padic, iwalg, spectra, k1, asymptotics, imc, cli) defines
in its own file.  Functions such as sphere_order and graded_average are
imported by name into several modules, so every module binding of a wrapped
function is replaced, and put back afterwards.  Each wrapped call is a span
(name, start, end, parent, call id); a span's self time is its duration
minus the durations of its child spans.  Totals are kept exactly for every
span; the span records themselves are kept in memory up to SPAN_CAP and
written out when the run ends.  Constructions of the three validated value
types are counted, not timed.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("padic", "iwalg", "spectra", "k1", "asymptotics", "imc", "cli")

# Value types whose constructions are counted: (layer, class name).
ALLOCATED = (("spectra", "FiniteSpectrumData"), ("iwalg", "CharPoly"), ("padic", "PadicValuation"))

# Work counted at a span: the name of the count and how to read it off a call.
WORK = {
    "asymptotics.graded_average": (
        "cell_degrees", lambda args, result: result.length * len(args[0].betti)),
    "imc.verify_weak_imc": ("records", lambda args, result: len(result.records)),
}

RENDER = ("cli.render_table", "cli.render_csv", "cli.render_json")

SPAN_CAP = 200_000

# (name, unit).  Times and counts are per pass over the workload's calls.
PER_LAYER = [("cli.import_s", "s")]
for _name, _fields in (
        ("cli.load_spectrum_file", ("calls", "self_s")),
        ("cli.render", ("calls", "self_s")),
        ("asymptotics.graded_average", ("calls", "self_s", "cell_degrees")),
        ("asymptotics.growth_ratio", ("calls", "self_s")),
        ("k1.sphere_order", ("calls", "self_s")),
        ("k1.k1_order_of_dual_replacement", ("calls", "self_s")),
        ("k1.wedge_order", ("calls", "self_s")),
        ("imc.verify_weak_imc", ("calls", "self_s", "records")),
        ("spectra.eigenspace_charpoly", ("calls", "self_s")),
        ("spectra.total_lambda", ("calls", "self_s")),
        ("spectra.FiniteSpectrumData", ("allocs",)),
        ("iwalg.evaluate_valuation", ("calls", "self_s")),
        ("iwalg.coefficients_mod", ("calls", "self_s")),
        ("iwalg.format_charpoly", ("calls", "self_s")),
        ("iwalg.CharPoly", ("allocs",)),
        ("padic.one_plus_p_pow_minus_one_valuation", ("calls", "self_s")),
        ("padic.PadicValuation", ("allocs",)),
        ("padic.is_odd_prime", ("calls", "self_s"))):
    PER_LAYER += [(f"{_name}.{f}", "s" if f == "self_s" else "count") for f in _fields]
PER_LAYER += [(f"{layer}.self_s", "s") for layer in LAYERS]
PER_LAYER += [
    ("trace.overhead", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("roadmap.graded_average_us_per_cell_degree", "us"),
    ("roadmap.verify_weak_imc_300x31_s", "s"),
    ("roadmap.total_lambda_p10007_s", "s"),
]


class Tracer:
    """Spans and counts for one traced run.  Use as a context manager: the
    wrappers are installed on entry and the original bindings restored on
    exit.  only, when given, limits the wrapped functions to those names."""

    def __init__(self, only=None):
        self.only = only
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds, total seconds]
        self.counts: dict[str, int] = {}
        self.call_id = 0
        self._stack: list = []
        self._next_span = 0
        self._names: list[str] = []
        self._ids = array("q")               # span id, parent id, call id, name index
        self._times = array("d")             # start, end
        self.dropped = 0
        self._restore: list = []

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        work = WORK.get(name)
        if work:
            self.counts.setdefault(f"{name}.{work[0]}", 0)
        name_index = len(self._names)
        self._names.append(name)
        stack, clock, ids, times = self._stack, time.perf_counter, self._ids, self._times

        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(times) < 2 * SPAN_CAP:
                    ids.extend((span, parent[0] if parent is not None else -1,
                                self.call_id, name_index))
                    times.extend((start, end))
                else:
                    self.dropped += 1
            if work:
                self.counts[f"{name}.{work[0]}"] += work[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_allocs(self, name, cls):
        original = cls.__dict__["__post_init__"]
        self.counts[f"{name}.allocs"] = 0
        counts = self.counts

        def counted(obj):
            counts[f"{name}.allocs"] += 1
            original(obj)

        cls.__post_init__ = counted
        self._restore.append((cls, "__post_init__", original))

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"iwaspectra.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and (self.only is None or name in self.only)):
                    wrappers[value] = self._wrap(name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name != "iwaspectra" and not module_name.startswith("iwaspectra."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        if self.only is None:
            for layer, cls_name in ALLOCATED:
                module = importlib.import_module(f"iwaspectra.{layer}")
                self._count_allocs(f"{layer}.{cls_name}", getattr(module, cls_name))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # ------------------------------------------------------------ results

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tcall\tname\tstart_s\tend_s\n")
            ids, times, names = self._ids, self._times, self._names
            for k in range(self.spans_kept):
                span, parent, call, name = ids[4 * k: 4 * k + 4]
                fh.write(f"{span}\t{parent}\t{call}\t{names[name]}\t"
                         f"{times[2 * k]:.9f}\t{times[2 * k + 1]:.9f}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans not kept (cap {SPAN_CAP})\n")

    @property
    def spans_kept(self) -> int:
        return len(self._times) // 2

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s, _) in self.stats.items():
            totals[name.split(".", 1)[0]] += self_s
        return totals


# ---------------------------------------------------------- in-process runs

def run_inprocess(cli, call):
    """cli.main on one call with stdout and stderr captured, as the
    subprocess would see them: (seconds, exit code, stdout bytes, stderr bytes)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(call.argv))
        except SystemExit as exc:   # argparse errors exit directly
            code = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter() - start, code, out.getvalue().encode(), err.getvalue().encode()


def measure_import(python_env, root: Path, samples: int = 5) -> float:
    """Median time of `import iwaspectra.cli` inside fresh interpreters,
    interpreter start excluded."""
    code = ("import time; t = time.perf_counter(); import iwaspectra.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=python_env,
                             capture_output=True, check=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def roadmap_figures(oracles, window=2 * 2 * 3 ** 12, spectra_per_prime=100, wide_prime=10007):
    """The three baseline figures ROADMAP.md quotes, each timed by a span
    around the one layer function and nothing inside it: graded_average on
    the S^0 window of acceptance check 7 (p = 3, 2,125,764 degrees),
    verify_weak_imc on the 300 random spectra x 31 m of acceptance check 4,
    and total_lambda of a CP^2-type spectrum at p = 10007."""
    from iwaspectra import asymptotics, imc, spectra

    names = {"asymptotics.graded_average", "imc.verify_weak_imc", "spectra.total_lambda"}
    with Tracer(only=names) as tracer:
        asymptotics.graded_average(spectra.FiniteSpectrumData(3, {0: 1}), 0, window)
        rng = random.Random(41)
        for p in (3, 5, 7):
            for _ in range(spectra_per_prime):
                imc.verify_weak_imc(oracles.random_spectrum(rng, p, torsion_prob=0.6),
                                    range(-15, 16))
        spectra.total_lambda(spectra.FiniteSpectrumData(wide_prime, {0: 1, 2: 1, 4: 1}))
    total = {name: stats[2] for name, stats in tracer.stats.items()}
    return {
        "roadmap.graded_average_us_per_cell_degree":
            total["asymptotics.graded_average"] / window * 1e6,
        "roadmap.verify_weak_imc_300x31_s": total["imc.verify_weak_imc"],
        "roadmap.total_lambda_p10007_s": total["spectra.total_lambda"],
    }


def per_layer_metrics(tracer: Tracer, passes: int, import_s: float,
                      untraced_wall: float, traced_wall: float, roadmap: dict) -> dict:
    """Every PER_LAYER value; times and counts are per traced pass."""
    values = {"cli.import_s": import_s}
    for name, (calls, self_s, _) in tracer.stats.items():
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_s"] = self_s / passes
    for name, count in tracer.counts.items():
        values[name] = count / passes
    values["cli.render.calls"] = sum(tracer.stats[n][0] for n in RENDER) / passes
    values["cli.render.self_s"] = sum(tracer.stats[n][1] for n in RENDER) / passes
    for layer, self_s in tracer.layer_self().items():
        values[f"{layer}.self_s"] = self_s / passes
    values["trace.overhead"] = traced_wall / untraced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values.update(roadmap)
    return {name: values[name] for name, _ in PER_LAYER}
