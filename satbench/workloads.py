"""The four benchmark workloads and their independent correctness checks.

Each workload generates every input from its seed when it is constructed,
before any timing.  ``call`` is the only code that the clock measures; it
goes through ``repro``'s public entry points, looked up at call time so the
traced run's wrappers see every call.  ``check`` compares the output with
references this file computes itself with NumPy, never with the path under
test: integer results must match exactly, float results are held to the
proven rounding budget of ``repro.analysis.tolerances``.

Why each workload exists, and which layers it exercises, is written in
``METRICS.md``.
"""

from __future__ import annotations

import importlib
import os
import shutil
import zlib

import numpy as np

import repro
from repro.gpusim.kernel import GPU

#: Paper algorithm behind the wavefront and simulator requests.
ALGORITHM = "1R1W-SKSS-LB"

#: Inputs per workload, cycled through.  Odd, so that the alternating
#: untraced and traced cycles of a traced run both visit every input.
POOL = 3


def reference_sat(a: np.ndarray, dtype) -> np.ndarray:
    """Plain NumPy double prefix sum in ``dtype``."""
    return a.astype(dtype).cumsum(axis=0).cumsum(axis=1)


def row_bands(rows: int, parts: int) -> list[tuple[int, int]]:
    """Near-equal contiguous half-open row bands, the first ones larger."""
    base, extra = divmod(rows, parts)
    bands, lo = [], 0
    for k in range(parts):
        hi = lo + base + (1 if k < extra else 0)
        bands.append((lo, hi))
        lo = hi
    return bands


def rect_total(sat: np.ndarray, top: int, left: int, bottom: int,
               right: int) -> int:
    """Inclusive rectangle sum from a reference SAT."""
    total = int(sat[bottom, right])
    if top > 0:
        total -= int(sat[top - 1, right])
    if left > 0:
        total -= int(sat[bottom, left - 1])
    if top > 0 and left > 0:
        total += int(sat[top - 1, left - 1])
    return total


class Workload:
    """Interface shared by the four workloads (see ``run_cycles``)."""

    name = ""
    kinds: tuple[str, ...] = ()
    #: Library modules beyond ``repro`` itself that the calls need; their
    #: import is part of ``setup`` and so of ``setup_s``.
    modules: tuple[str, ...] = ()

    def __init__(self, *, workers: int, workdir: str) -> None:
        self.workers = workers
        self.workdir = workdir
        self._owned = 0

    def prepare_checks(self) -> None:
        """Compute the references (untimed, parent process only)."""

    def setup(self) -> None:
        """Import the library modules; build engines, pools and state."""
        for module in self.modules:
            importlib.import_module(module)

    def warm(self) -> None:
        """One untimed call of each kind."""
        for kind in self.kinds:
            self.call(kind, -1)
            self.after_request(kind, -1)

    def call(self, kind: str, cycle: int):
        raise NotImplementedError

    def check(self, kind: str, cycle: int, out) -> bool:
        raise NotImplementedError

    def after_request(self, kind: str, cycle: int) -> None:
        """Untimed clean-up after each request."""

    def pixels(self, kind: str) -> int:
        raise NotImplementedError

    def io_bytes(self, kind: str) -> tuple[int, int]:
        """(input bytes read once, output bytes written once)."""
        raise NotImplementedError

    def floor_bytes(self, kind: str) -> int:
        """The request's computed minimum bytes (the 1R1W bound)."""
        return sum(self.io_bytes(kind))

    def owned_bytes(self) -> int:
        """Resident bytes of the references, kept out of ``peak_rss_mb``."""
        return self._owned

    def reference_image(self, cycle: int) -> np.ndarray:
        """The image ``baseline.reference_ms`` times ``sat_reference`` on."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class OneShot(Workload):
    """Independent float32 images, alternating the two whole-matrix paths."""

    name = "oneshot"
    kinds = ("parallel", "wavefront")
    n = 768

    def __init__(self, seed: int, *, workers: int, workdir: str) -> None:
        super().__init__(workers=workers, workdir=workdir)
        rng = np.random.default_rng([seed, 1])
        n = self.n
        self.images = [rng.random((n, n), dtype=np.float32)
                       for _ in range(POOL)]

    def image(self, cycle: int) -> np.ndarray:
        return self.images[cycle % len(self.images)]

    def prepare_checks(self) -> None:
        from repro.analysis.tolerances import derived_tolerance, sat_close
        self.sat_close = sat_close
        # float64 sums of float32 inputs: the "exact" oracle.
        self.refs = [reference_sat(a, np.float64) for a in self.images]
        self._owned = sum(r.nbytes for r in self.refs)
        shape = (self.n, self.n)
        # The parallel backend is algorithm-agnostic, so it is held to the
        # worst case over the Table I algorithms.
        self.tolerances = {
            "parallel": derived_tolerance(None, shape, np.float32,
                                          oracle="exact"),
            "wavefront": derived_tolerance(ALGORITHM, shape, np.float32,
                                           oracle="exact"),
        }

    def call(self, kind: str, cycle: int):
        a = self.image(cycle)
        if kind == "parallel":
            return repro.compute_sat(a, engine="parallel",
                                     workers=self.workers)
        return repro.compute_sat(a, engine="wavefront", algorithm=ALGORITHM,
                                 workers=self.workers)

    def check(self, kind: str, cycle: int, out) -> bool:
        # With the input passed, the budget is elementwise (SAT of |a|);
        # without it, it scales with the largest entry and misses small
        # errors near the origin.
        sat = out.sat
        ref = self.refs[cycle % len(self.refs)]
        return sat.dtype == np.float32 and \
            self.sat_close(sat, ref, self.tolerances[kind],
                           abs_input=self.image(cycle))

    def pixels(self, kind: str) -> int:
        return self.n * self.n

    def io_bytes(self, kind: str) -> tuple[int, int]:
        return 4 * self.n * self.n, 4 * self.n * self.n

    def reference_image(self, cycle: int) -> np.ndarray:
        return self.image(cycle)


class Video(Workload):
    """A uint8 stream with moving objects, scene cuts and box filters.

    Every cycle starts on a new background (the cut), then moves the
    objects a few pixels (the delta repair) and box-filters that frame
    from the resident table.  ROI sums are read on every frame.
    """

    name = "video"
    kinds = ("cut", "repair", "box")
    modules = ("repro.apps.video",)

    shape = (360, 640)
    scene_count = 5     #: odd, like POOL
    objects = 3
    radius = 4      #: box-filter radius
    roi_count = 4

    def __init__(self, seed: int, *, workers: int, workdir: str) -> None:
        super().__init__(workers=workers, workdir=workdir)
        rng = np.random.default_rng([seed, 2])
        shape = self.shape
        rows, cols = shape
        scenes, objects = self.scene_count, self.objects
        # One background per scene plus one for the frame built in setup.
        backgrounds = [rng.integers(0, 200, size=shape, dtype=np.uint8)
                       for _ in range(scenes + 1)]
        side = rng.integers(16, 48, size=objects)
        start = rng.integers(0, min(rows, cols) - 48, size=(objects, 2))
        step = rng.integers(2, 7, size=(objects, 2)) \
            * rng.choice((-1, 1), size=(objects, 2))

        def frame(bg: np.ndarray, t: int) -> np.ndarray:
            f = bg.copy()
            for k in range(objects):
                s = int(side[k])
                r = int((start[k, 0] + step[k, 0] * t) % (rows - s))
                c = int((start[k, 1] + step[k, 1] * t) % (cols - s))
                f[r:r + s, c:c + s] = 230 + k
            return f

        self.scenes = [(frame(bg, 2 * i), frame(bg, 2 * i + 1))
                       for i, bg in enumerate(backgrounds[:scenes])]
        self.first = frame(backgrounds[scenes], 0)
        self.rois = []
        for _ in range(self.roi_count):
            r0, r1 = sorted(int(x) for x in rng.integers(0, rows, size=2))
            c0, c1 = sorted(int(x) for x in rng.integers(0, cols, size=2))
            self.rois.append((r0, c0, r1, c1))
        self.box_rows = sorted({0, rows - 1,
                                *(int(x) for x in
                                  rng.integers(0, rows, size=8))})
        self.video = None

    def frame(self, kind: str, cycle: int) -> np.ndarray:
        cut, repair = self.scenes[cycle % len(self.scenes)]
        return cut if kind == "cut" else repair

    def prepare_checks(self) -> None:
        rows, cols = self.shape

        def stats(f):
            sums = tuple(float(f[r0:r1 + 1, c0:c1 + 1].sum(dtype=np.int64))
                         for r0, c0, r1, c1 in self.rois)
            return sums, float(f.sum(dtype=np.int64)) / (rows * cols)

        self.ref_stats = [(stats(c), stats(r)) for c, r in self.scenes]
        self.ref_box = [self._box_rows(r) for _, r in self.scenes]
        self._owned = sum(b.nbytes for b in self.ref_box)

    def _box_rows(self, f: np.ndarray) -> np.ndarray:
        """Clamped-window means of the sampled rows, straight from pixels."""
        rows, cols = self.shape
        R = self.radius
        j = np.arange(cols)
        left, right = np.maximum(j - R, 0), np.minimum(j + R, cols - 1)
        out = np.empty((len(self.box_rows), cols))
        for i, r in enumerate(self.box_rows):
            top, bottom = max(r - R, 0), min(r + R, rows - 1)
            col = f[top:bottom + 1].sum(axis=0, dtype=np.int64)
            prefix = np.concatenate(([0], np.cumsum(col)))
            sums = prefix[right + 1] - prefix[left]
            areas = ((bottom - top + 1) * (right - left + 1)) \
                .astype(np.float64)
            out[i] = sums / areas
        return out

    def setup(self) -> None:
        super().setup()
        self.video = repro.apps.video.VideoSAT(
            self.first, rois=self.rois, workers=self.workers)

    def warm(self) -> None:
        self.video.process(self.first)
        self.video.process(self.scenes[-1][0])
        self.video.box_filter(self.radius)

    def call(self, kind: str, cycle: int):
        if kind == "box":
            return self.video.box_filter(self.radius)
        return self.video.process(self.frame(kind, cycle))

    def check(self, kind: str, cycle: int, out) -> bool:
        scene = cycle % len(self.scenes)
        if kind == "box":
            return out.shape == self.shape and \
                np.array_equal(out[self.box_rows], self.ref_box[scene])
        sums, mean = self.ref_stats[scene][0 if kind == "cut" else 1]
        return tuple(out.roi_sums) == sums and out.mean == mean

    def pixels(self, kind: str) -> int:
        return self.shape[0] * self.shape[1]

    def io_bytes(self, kind: str) -> tuple[int, int]:
        px = self.pixels(kind)
        if kind == "box":
            return 8 * px, 8 * px       # int64 SAT in, float64 means out
        return px, 8 * px               # uint8 frame in, int64 SAT out

    def reference_image(self, cycle: int) -> np.ndarray:
        return self.frame("repair", cycle)

    def close(self) -> None:
        if self.video is not None:
            self.video.close()


class Shards(Workload):
    """distsat jobs on the inline transport: collect, digest, faulted digest.

    Four band shards each; the digest jobs stream a seeded
    ``SyntheticSource`` and persist carries in a fresh checkpoint directory
    per job.  Each faulted job kills one shard attempt and corrupts one.
    """

    name = "shards"
    kinds = ("collect", "digest", "faulted")
    modules = ("repro.distsat",)
    shards = 4
    collect_n = 192
    digest_n = 384
    chunk_rows = 48

    def __init__(self, seed: int, *, workers: int, workdir: str) -> None:
        super().__init__(workers=workers, workdir=workdir)
        rng = np.random.default_rng([seed, 3])
        collect_n, digest_n = self.collect_n, self.digest_n
        shards = self.shards
        self.images = [rng.integers(0, 256, size=(collect_n, collect_n),
                                    dtype=np.uint8) for _ in range(POOL)]
        # SyntheticSource coefficients a[i, j] = (ci*i + cj*j + c0) % 251.
        self.coefficients = [tuple(int(x) for x in rng.integers(1, 251,
                                                                size=3))
                             for _ in range(POOL)]
        # (kill shard, kill phase, corrupt shard, corrupt phase) per job.
        self.faults = []
        for _ in range(POOL):
            kill, corrupt = rng.choice(shards, size=2, replace=False)
            phases = rng.choice(("reduce", "apply"), size=2)
            self.faults.append((int(kill), str(phases[0]),
                                int(corrupt), str(phases[1])))
        # Edge-aligned spot rectangles: top-1 and bottom are shard edges.
        edges = [hi - 1 for _, hi in row_bands(digest_n, shards)]
        self.spots = []
        for _ in range(4):
            i, j = sorted(int(x) for x in rng.integers(0, shards, size=2))
            top = 0 if i == j else edges[i] + 1
            left, right = sorted(int(x) for x in
                                 rng.integers(0, digest_n, size=2))
            self.spots.append((top, left, edges[j], right))

    def slot(self, cycle: int) -> int:
        return cycle % len(self.images)

    def ckpt_dir(self, kind: str, cycle: int) -> str:
        return os.path.join(self.workdir, f"ckpt-{kind}-{cycle}")

    def setup(self) -> None:
        super().setup()
        from repro.distsat import FaultAction, FaultPlan, SyntheticSource
        n = self.digest_n
        self.sources = [SyntheticSource(n, n, ci=ci, cj=cj, c0=c0)
                        for ci, cj, c0 in self.coefficients]
        self.plans = [FaultPlan(actions=(
            FaultAction("kill", shard=kill, phase=kill_phase),
            FaultAction("corrupt", shard=corrupt, phase=corrupt_phase)))
            for kill, kill_phase, corrupt, corrupt_phase in self.faults]

    def prepare_checks(self) -> None:
        self.ref_collect = [reference_sat(a, np.int64) for a in self.images]
        self.ref_digest = []
        i = np.arange(self.digest_n, dtype=np.int64)
        for ci, cj, c0 in self.coefficients:
            a = ((ci * i[:, None] + cj * i[None, :] + c0) % 251) \
                .astype(np.uint8)
            sat = reference_sat(a, np.int64)
            crcs = [zlib.crc32(sat[lo:hi].tobytes()) & 0xFFFFFFFF
                    for lo, hi in row_bands(self.digest_n, self.shards)]
            spots = [rect_total(sat, *s) for s in self.spots]
            self.ref_digest.append((crcs, spots))
        self._owned = sum(r.nbytes for r in self.ref_collect)

    def call(self, kind: str, cycle: int):
        k = self.slot(cycle)
        if kind == "collect":
            return repro.compute_sat(self.images[k], engine="distributed",
                                     shards=self.shards)
        return repro.distsat.distributed_sat(
            self.sources[k], shards=self.shards, collect=False,
            chunk_rows=self.chunk_rows, transport="inline",
            checkpoint_dir=self.ckpt_dir(kind, cycle),
            fault_plan=self.plans[k] if kind == "faulted" else None)

    def check(self, kind: str, cycle: int, out) -> bool:
        k = self.slot(cycle)
        if kind == "collect":
            return out.sat.dtype == np.int64 and \
                np.array_equal(out.sat, self.ref_collect[k])
        crcs, spots = self.ref_digest[k]
        if list(out.bounds) != row_bands(self.digest_n, self.shards):
            return False
        if [out.digests.get(s) for s in range(self.shards)] != crcs:
            return False
        if [int(out.rect_sum(*s)) for s in self.spots] != spots:
            return False
        if kind == "faulted":
            plan, ledger = self.plans[k], out.stats["attempts"]
            return all(ledger[phase][s] == plan.expected_attempts(s, phase)
                       for phase in ("reduce", "apply")
                       for s in range(self.shards))
        return True

    def after_request(self, kind: str, cycle: int) -> None:
        if kind != "collect":
            shutil.rmtree(self.ckpt_dir(kind, cycle), ignore_errors=True)

    def pixels(self, kind: str) -> int:
        n = self.collect_n if kind == "collect" else self.digest_n
        return n * n

    def io_bytes(self, kind: str) -> tuple[int, int]:
        # Digest jobs keep only CRCs and edge rows, but every stitched SAT
        # row is still produced once, so it counts as output.
        px = self.pixels(kind)
        return px, 8 * px

    def reference_image(self, cycle: int) -> np.ndarray:
        return self.images[self.slot(cycle)]


class Simulate(Workload):
    """Small uint8 images through the functional GPU simulator."""

    name = "simulate"
    kinds = ("simulate",)
    n = 64

    def __init__(self, seed: int, *, workers: int, workdir: str) -> None:
        super().__init__(workers=workers, workdir=workdir)
        rng = np.random.default_rng([seed, 4])
        n = self.n
        self.images = [rng.integers(0, 256, size=(n, n), dtype=np.uint8)
                       for _ in range(POOL)]
        # One simulator seed per run: the simulated traffic counts then
        # repeat exactly from request to request.
        self.gpu_seed = int(rng.integers(0, 2**31))

    def image(self, cycle: int) -> np.ndarray:
        return self.images[cycle % len(self.images)]

    def prepare_checks(self) -> None:
        self.refs = [reference_sat(a, np.int64) for a in self.images]
        self._owned = sum(r.nbytes for r in self.refs)

    def call(self, kind: str, cycle: int):
        return repro.compute_sat(self.image(cycle), algorithm=ALGORITHM,
                                 gpu=GPU(seed=self.gpu_seed))

    def check(self, kind: str, cycle: int, out) -> bool:
        ref = self.refs[cycle % len(self.refs)]
        return out.sat.dtype == np.int64 and np.array_equal(out.sat, ref)

    def pixels(self, kind: str) -> int:
        return self.n * self.n

    def io_bytes(self, kind: str) -> tuple[int, int]:
        return self.n * self.n, 8 * self.n * self.n

    def reference_image(self, cycle: int) -> np.ndarray:
        return self.image(cycle)


WORKLOADS = {w.name: w for w in (OneShot, Video, Shards, Simulate)}


def make(name: str, seed: int, *, workers: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workers=workers, workdir=workdir)
