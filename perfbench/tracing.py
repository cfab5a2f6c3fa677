"""Spans around cohomix's public names, recorded from outside the program.

`Tracer.install` wraps each name in TRACED and rebinds every alias of it
across the loaded `cohomix` modules (modules that imported the name with
`from .x import name` hold their own reference), or replaces the method on
its class.  A name that no longer exists is reported in `absent` and skipped,
so the benchmark keeps working when a later change removes or renames it.

Spans live in flat arrays while the run lasts and are written out once, at
the end.  Every span records its name, start, end, parent span and job id,
plus two integers that some names use for counts (see MEASURES).  The clock
is CLOCK_MONOTONIC, shared by all processes on the machine, so spans recorded
in a child process fit inside the parent's job span.
"""

import functools
import importlib
import sys
from array import array
from time import monotonic as clock

MODULES = ("algebra", "grassmann", "gotzmann", "filtration", "equivariant", "cli")

# (module, qualified name) of every traced public object.
TRACED = (
    ("algebra", "schur_evaluate"),
    ("algebra", "RowSpace.add"),
    ("algebra", "matrix_rank"),
    ("algebra", "RationalMatrix.mul"),
    ("algebra", "jordan_type"),
    ("algebra", "strip_cyclotomic_factors"),
    ("algebra", "partitions_in_box"),
    ("grassmann", "graded_dimension"),
    ("grassmann", "poincare_from_cells"),
    ("gotzmann", "enumerate_hilb_fixed_points"),
    ("gotzmann", "degree_k_part"),
    ("gotzmann", "hilb_minus_cell_dimension"),
    ("gotzmann", "nilpotent_matrix_on_Rk"),
    ("gotzmann", "jordan_regularity_check"),
    ("filtration", "filtration_betti"),
    ("filtration", "select_schur_basis"),
    ("filtration", "poincare_of_hilb"),
    ("filtration", "b2_regularity_verdict"),
    ("equivariant", "localization_rank_check"),
    ("cli", "main"),
)

JOB = "job"  # the span the benchmark puts around each job
JOB_ID = 0


def _schur_bits(args, result):
    # Bit length of the returned numerator: how large Schur values grow.
    return abs(result.numerator).bit_length(), 0


def _row_kept(args, result):
    # (1 if the row grew the rank, row width).
    return int(bool(result)), args[0].width


MEASURES = {
    "algebra.schur_evaluate": _schur_bits,
    "algebra.RowSpace.add": _row_kept,
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = [JOB]
        self._ids = {JOB: JOB_ID}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.a = array("q")
        self.b = array("q")
        self._stack = []
        self.job_id = -1
        self.absent = []
        self._undo = []

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.a.append(0)
        self.b.append(0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def leave(self, idx, a=0, b=0):
        self.end[idx] = clock()
        self._stack.pop()
        self.a[idx] = a
        self.b[idx] = b

    def adopt(self, rows):
        """Append spans recorded in a child process (rows as read_spans gives
        them) under the innermost open span, in the current job."""
        base = len(self.name)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _job, a, b in rows:
            self.name.append(self.name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(base + parent if parent >= 0 else top)
            self.job.append(self.job_id)
            self.a.append(a)
            self.b.append(b)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        measure = MEASURES.get(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            idx = enter(nid)
            a = b = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    a, b = measure(args, result)
                return result
            finally:
                leave(idx, a, b)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every name in TRACED that exists; list the rest in `absent`."""
        loaded = {}
        for mod in MODULES:
            try:
                loaded[mod] = importlib.import_module("cohomix." + mod)
            except ImportError:
                pass
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cohomix" or key.startswith("cohomix."))
        ]
        self.absent = []
        for mod, qual in TRACED:
            name = "%s.%s" % (mod, qual)
            module = loaded.get(mod)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if isinstance(cls, type) else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, qual, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._undo.append((ns, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write every span, one tab-separated line each."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\ta\tb\n")
            for i in range(len(self.name)):
                fh.write("%s\t%r\t%r\t%d\t%d\t%d\t%d\n" % (
                    self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.job[i], self.a[i], self.b[i]))


def read_spans(path):
    """Inverse of Tracer.write."""
    out = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            name, start, end, parent, job, a, b = line.rstrip("\n").split("\t")
            out.append((name, float(start), float(end), int(parent), int(job), int(a), int(b)))
    return out


def layer_totals(tracer, spans):
    """Per-name totals over a range of span indices that holds whole jobs.

    Returns ({name: {"calls", "self_s", "a_sum", "a_max", "b_sum"}}, errors).
    Self time is a span's duration minus the durations of its direct
    children.  `errors` lists every span that does not nest inside its
    parent in the same job, and every job whose self times fail to add up
    to the job's traced time.
    """
    eps = 1e-6
    dur = {i: tracer.end[i] - tracer.start[i] for i in spans}
    child = dict.fromkeys(spans, 0.0)
    errors = []
    for i in spans:
        p = tracer.parent[i]
        if p < 0:
            continue
        if p not in child or tracer.job[p] != tracer.job[i]:
            errors.append("span %d has a parent outside its job" % i)
            continue
        if tracer.start[i] < tracer.start[p] - eps or tracer.end[i] > tracer.end[p] + eps:
            errors.append("span %d (%s) lies outside its parent" % (i, tracer.names[tracer.name[i]]))
        child[p] += dur[i]
    totals = {}
    job_self = {}
    job_time = {}
    for i in spans:
        name = tracer.names[tracer.name[i]]
        self_s = dur[i] - child[i]
        j = tracer.job[i]
        job_self[j] = job_self.get(j, 0.0) + self_s
        if name == JOB:
            job_time[j] = dur[i]
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "a_sum": 0, "a_max": 0, "b_sum": 0})
        t["calls"] += 1
        t["self_s"] += self_s
        t["a_sum"] += tracer.a[i]
        t["a_max"] = max(t["a_max"], tracer.a[i])
        t["b_sum"] += tracer.b[i]
    for j, total in job_self.items():
        if abs(total - job_time.get(j, 0.0)) > eps * max(1.0, total):
            errors.append("job %d: self times sum to %.9f s, job took %.9f s"
                          % (j, total, job_time.get(j, 0.0)))
    return totals, errors
