"""Spans around the public functions of each qmodw layer.

``Tracer.install`` replaces the functions below with timing wrappers and
``Tracer.remove`` puts every original back.  Spans are kept in memory
(name, start, end, parent, cell and input id) and written when the run
ends.  A span's self time is its duration minus the time its child spans
cover.  What a kept span costs the tracer after its call returns
(recording it, hashing a result) is subtracted from the durations of the
spans around it.

AlgebraicNumber arithmetic is called far too often to keep a span per
call, so its calls are only counted and timed; their time still counts
as child time of the span that made them.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

from qmodw import algebra, hamming_mod, linalg, oracle, polymethod, sweep

_A = algebra.AlgebraicNumber
_M = linalg.SquareMatrix
_O = oracle.CountingOracle


def _result_key(args, result):
    return id(args[0]), hash(result)


def _argument_key(args, result):
    return id(args[0]), hash(args[1])


def _cell_label(n, m, *args, **kwargs):
    return f"{n}_{m}"


# (owner, attribute, span name, kind, helper).  kind "count" only counts
# and times calls, "distinct" also counts distinct keys made by helper,
# "cell" opens a cell labelled by helper, "span" keeps a plain span.
TARGETS = (
    (sweep, "verify_cell", "sweep.verify_cell", "cell", _cell_label),
    (sweep, "audit_partition", "sweep.audit_partition", "span", None),
    # verify_cell calls partition_weight through sweep's own import; the
    # recursion goes through hamming_mod's.
    (sweep, "partition_weight", "hamming_mod.partition_weight", "span", None),
    (hamming_mod, "partition_weight", "hamming_mod.partition_weight",
     "span", None),
    (hamming_mod, "deutsch", "subroutines.deutsch", "span", None),
    (hamming_mod, "mod3", "subroutines.mod3", "span", None),
    (_O, "phase_apply", "oracle.phase_apply", "span", None),
    (_O, "query_bit", "oracle.query_bit", "span", None),
    (_M, "apply", "linalg.apply", "distinct", _result_key),
    (_M, "matmul", "linalg.matmul", "span", None),
    (_M, "__matmul__", "linalg.matmul", "span", None),
    (linalg.Projector, "mass", "linalg.mass", "distinct", _argument_key),
    (polymethod, "is_nondeterministic_poly",
     "polymethod.is_nondeterministic_poly", "span", None),
    (polymethod, "symmetrize", "polymethod.symmetrize", "span", None),
    (polymethod, "symmetrize_bruteforce", "polymethod.bruteforce",
     "span", None),
    (polymethod, "certificate_roundtrip",
     "polymethod.certificate_roundtrip", "span", None),
    (_A, "__mul__", "algebra.mul", "count", None),
    (_A, "__rmul__", "algebra.mul", "count", None),
    (_A, "__add__", "algebra.add", "count", None),
    (_A, "__radd__", "algebra.add", "count", None),
)

# Frame fields of an open span.
_IDX, _CELL, _INPUT, _NAME, _CHILD, _LOST = range(6)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.labels = []
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.input = array("i")
        self.start = array("d")
        self.end = array("d")
        self.net = array("d")
        self.self_time = array("d")
        self.inputs = 0
        self.counted = {}       # name -> [calls, seconds]
        self.distinct = {}      # name -> set of keys
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, kind="span", helper=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        stack = self._stack
        if kind == "count":
            stat = self.counted.setdefault(name, [0, 0.0])

            def counted(*args):
                t0 = perf_counter()
                result = fn(*args)
                t = perf_counter() - t0
                stat[0] += 1
                stat[1] += t
                if stack:
                    stack[-1][_CHILD] += t
                return result
            return counted

        nid = self._name_id(name)
        label = helper if kind == "cell" else None
        key = helper if kind == "distinct" else None
        seen = self.distinct.setdefault(name, set()) if key else None
        opens_input = name == "hamming_mod.partition_weight"
        cell_nid = self._name_id("sweep.verify_cell")
        names, parents, cells, inputs = (self.name, self.parent, self.cell,
                                         self.input)
        starts, ends, nets, selfs = (self.start, self.end, self.net,
                                     self.self_time)

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            if parent is None:
                pidx, cell, inp = -1, -1, -1
            else:
                pidx, cell, inp = parent[_IDX], parent[_CELL], parent[_INPUT]
            if label is not None:
                self.labels.append(label(*args, **kwargs))
                cell = len(self.labels) - 1
            if (opens_input and parent is not None
                    and parent[_NAME] == cell_nid):
                inp = self.inputs
                self.inputs += 1
            names.append(nid)
            parents.append(pidx)
            cells.append(cell)
            inputs.append(inp)
            starts.append(0.0)
            ends.append(0.0)
            nets.append(0.0)
            selfs.append(0.0)
            frame = [idx, cell, inp, nid, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if key is not None:
                seen.add(key(args, result))
            net = t1 - t0 - frame[_LOST]
            starts[idx] = t0
            ends[idx] = t1
            nets[idx] = net
            selfs[idx] = net - frame[_CHILD]
            if parent is not None:
                parent[_CHILD] += net
                parent[_LOST] += frame[_LOST] + perf_counter() - t1
            return result
        return spanned

    def install(self):
        for owner, attr, name, kind, helper in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, kind, helper))

    def remove(self):
        """Restore every patched attribute; return those left patched."""
        left = []
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                left.append(f"{owner.__name__}.{attr}")
        return left

    def totals(self):
        """name -> [calls, seconds, self seconds] over all kept spans."""
        out = {}
        for nid, net, own in zip(self.name, self.net, self.self_time):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += net
            row[2] += own
        for name, (calls, seconds) in self.counted.items():
            out[name] = [calls, seconds, seconds]
        return out

    def top_level_seconds(self, name, parent_name):
        """Total time of ``name`` spans whose parent is ``parent_name``."""
        nid = self._name_ids.get(name)
        pid = self._name_ids.get(parent_name)
        return sum(net for n, p, net in zip(self.name, self.parent, self.net)
                   if n == nid and p >= 0 and self.name[p] == pid)

    def write(self, path):
        """Write every kept span as gzipped tab-separated text."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tself_us\tparent\tcell"
                     "\tinput\n")
            for i, nid in enumerate(self.name):
                cell = self.cell[i]
                fh.write(f"{i}\t{self.names[nid]}\t"
                         f"{(self.start[i] - origin) * 1e6:.1f}\t"
                         f"{(self.end[i] - origin) * 1e6:.1f}\t"
                         f"{self.self_time[i] * 1e6:.1f}\t{self.parent[i]}\t"
                         f"{self.labels[cell] if cell >= 0 else '-'}\t"
                         f"{self.input[i]}\n")
