"""Instrumentation applied from outside the program under test.

Every number comes from wrappers that replace the names the apromfl modules
import from each other (``federation.forward_map``, ``prototypes.kmeans``,
...). Nothing under ``src/`` is edited; :class:`Patcher` restores every name
it replaced.

Two instruments:

* :class:`Probe` - the end-to-end clock. It records a timestamp at one
  public call made once per round (``ClientRoundConfig.from_experiment``)
  and times ``setup_experiment`` and ``run_training``. It is installed for
  traced and untraced runs alike and costs a few calls per round.
* :class:`Tracer` - per-layer busy time, self time, call counts and
  computed counters, installed only for traced runs. Spans are aggregated
  by name in memory as they close (self time = duration minus the time of
  the spans nested inside). Client rounds that run in pool workers are
  traced in the worker and their totals are shipped back with the result.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

from apromfl import federation, harness, prototypes
from apromfl.federation import ClientRoundConfig

clock = time.perf_counter

BYTES_PER_FLOAT = 8  # every payload is float64

#: Spans whose sum is the server phase of a round.
SERVER_SPANS = (
    "prototypes.complete",
    "prototypes.global",
    "federation.relationship_weights",
    "federation.aggregate_modules",
    "federation.fediot_aggregate",
)

CLIENT_SPANS = ("federation.multimodal_client_round", "federation.unimodal_client_round")


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, make_wrapper) -> None:
        self.replace(owner, name, make_wrapper(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# -- end-to-end probe -------------------------------------------------------------


class Probe:
    """Timestamps of one run, taken at public calls into the program."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.setup_s: float | None = None
        self.round_starts: list[float] = []
        self.training_start: float | None = None
        self.training_end: float | None = None

    @property
    def round_times(self) -> list[float]:
        """Round r lasts from its from_experiment call to the next one; the
        last round ends when run_training returns."""
        if self.training_end is None:
            return []
        marks = self.round_starts + [self.training_end]
        return [b - a for a, b in zip(marks[:-1], marks[1:])]

    def install(self, patcher: Patcher) -> None:
        def setup_wrapper(fn):
            @functools.wraps(fn)
            def setup_experiment(config):
                start = clock()
                experiment = fn(config)
                self.setup_s = clock() - start
                return experiment

            return setup_experiment

        def training_wrapper(fn):
            @functools.wraps(fn)
            def run_training(config):
                self.training_start = clock()
                result = fn(config)
                self.training_end = clock()
                return result

            return run_training

        original = ClientRoundConfig.__dict__["from_experiment"].__func__

        def from_experiment(cls, config, round_index):
            self.round_starts.append(clock())
            return original(cls, config, round_index)

        patcher.wrap(federation, "setup_experiment", setup_wrapper)
        patcher.wrap(harness, "run_training", training_wrapper)
        patcher.replace(ClientRoundConfig, "from_experiment", classmethod(from_experiment))


# -- per-layer tracer ---------------------------------------------------------------


def module_floats(module) -> int:
    return sum(w.size for w in module.weights) + sum(b.size for b in module.biases)


def message_bytes(message) -> int:
    """float64 payload of one RoundMessage: module parameters and prototypes."""
    floats = sum(flat.size for flat in message.module_params.values())
    for proto in message.label_prototypes or ():
        floats += proto.vector.size
    for pair in message.pair_prototypes or ():
        floats += pair.image_vec.size + pair.text_vec.size
    return BYTES_PER_FLOAT * floats


def message_prototypes(message) -> int:
    return len(message.label_prototypes or ()) + len(message.pair_prototypes or ())


class Tracer:
    """Busy seconds, self seconds and calls per span name, plus counters."""

    def __init__(self):
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child seconds of each open span
        self.client_depth = 0
        self.num_clients = 0

    def reset(self) -> None:
        for table in (self.busy, self.self_s, self.calls, self.counters):
            table.clear()
        self._open.clear()
        self.client_depth = 0

    def snapshot(self) -> dict:
        return {
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        for key in ("busy", "self_s", "calls", "counters"):
            table = getattr(self, key)
            for name, value in snap[key].items():
                table[name] += value

    def timed(self, name, count=None):
        """Decorator factory: time ``fn`` under ``name`` (a string, or a
        zero-argument callable evaluated per call). ``count(args, result)``
        runs after the span closes, so its cost is outside the span."""
        busy, self_s, calls, open_spans = self.busy, self.self_s, self.calls, self._open

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = name if isinstance(name, str) else name()
                open_spans.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = open_spans.pop()
                    busy[span] += elapsed
                    self_s[span] += elapsed - child
                    calls[span] += 1
                    if open_spans:
                        open_spans[-1] += elapsed
                if count is not None:
                    count(args, result)
                return result

            return wrapper

        return decorate

    # counters ----------------------------------------------------------------

    def _count_kmeans(self, args, result):
        points, k = args[0], args[1]
        n, d = points.shape
        self.counters["numerics.kmeans.work"] += n * k * d

    def _count_rows(self, args, result):
        self.counters["nn.forward.rows"] += len(args[1])

    def _count_queries(self, args, result):
        self.counters["metrics.retrieval.queries"] += 2 * len(args[0])

    def _count_client(self, args, result):
        message = result[1]
        self.counters["federation.comm.upload_bytes"] += message_bytes(message)
        self.counters["prototypes.built"] += message_prototypes(message)

    def _count_global(self, args, result):
        all_pairs = args[0]
        self.counters["prototypes.consumed"] += len(all_pairs)
        floats = sum(p.image_vec.size + p.text_vec.size for p in result.pairs)
        self.counters["federation.comm.download_bytes"] += (
            BYTES_PER_FLOAT * floats * self.num_clients
        )

    def _count_personalised(self, args, result):
        floats = sum(module_floats(m) for m in result)
        self.counters["federation.comm.download_bytes"] += BYTES_PER_FLOAT * floats

    def _count_shared(self, args, result):
        modules = args[0]
        self.counters["federation.comm.download_bytes"] += (
            BYTES_PER_FLOAT * module_floats(result) * len(modules)
        )

    def _count_setup(self, args, result):
        self.num_clients = len(result.clients)

    def _kmeans_span(self) -> str:
        return "numerics.kmeans.client" if self.client_depth else "numerics.kmeans.server"

    def _client_round(self, name):
        timed = self.timed(name, count=self._count_client)

        def decorate(fn):
            inner = timed(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.client_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.client_depth -= 1

            return wrapper

        return decorate

    # installation ------------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        """Wrap every layer call made by federation and prototypes."""
        t = self.timed
        fed = {
            "generate": t("data.generate"),
            "train_eval_split": t("data.partition"),
            "role_partition": t("data.partition"),
            "assign_roles": t("data.partition"),
            "encode": t("nn.encode"),
            "setup_experiment": t("federation.setup_experiment", count=self._count_setup),
            "forward_map": t("nn.forward", count=self._count_rows),
            "forward_map_trace": t("nn.forward", count=self._count_rows),
            "forward_head": t("nn.forward", count=self._count_rows),
            "backward": t("nn.backward"),
            "backward_head": t("nn.backward"),
            "sgd_step": t("nn.sgd_step"),
            "sgd_step_head": t("nn.sgd_step"),
            "flatten_module": t("nn.flatten"),
            "unflatten_module": t("nn.flatten"),
            "cross_entropy_batch": t("losses.task"),
            "retrieval_task_loss": t("losses.task"),
            "clustering_total_loss": t("losses.clustering"),
            "gpt_loss_batch": t("losses.gpt"),
            "gpt_loss_paired_batch": t("losses.gpt"),
            "gmt_loss_batch": t("losses.gmt"),
            "lmr_loss": t("losses.lmr"),
            "kmeans": t(self._kmeans_span, count=self._count_kmeans),
            "label_guided_prototypes": t("prototypes.extract"),
            "clustering_prototype_pairs": t("prototypes.extract"),
            "semantic_complete": t("prototypes.complete"),
            "build_global_prototypes": t("prototypes.global", count=self._count_global),
            "relationship_weights": t("federation.relationship_weights"),
            "aggregate_modules": t(
                "federation.aggregate_modules", count=self._count_personalised
            ),
            "fediot_aggregate": t("federation.fediot_aggregate", count=self._count_shared),
            "classification_report": t("metrics.classification"),
            "retrieval_report": t("metrics.retrieval", count=self._count_queries),
            "evaluate_client": t("federation.evaluate_client"),
            "multimodal_client_round": self._client_round("federation.multimodal_client_round"),
            "unimodal_client_round": self._client_round("federation.unimodal_client_round"),
        }
        for name, decorate in fed.items():
            patcher.wrap(federation, name, decorate)
        patcher.wrap(prototypes, "kmeans", t(self._kmeans_span, count=self._count_kmeans))
        patcher.replace(federation, "ProcessPoolExecutor", functools.partial(TracedPool, self))
        patcher.replace(sys.modules[__name__], "_WORKER_TRACER", self)


def wrapper_cost(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds one timed wrapper adds to a call, measured on a no-op
    (best of ``repeats``, so a slow phase of the machine does not count)."""

    def noop():
        return None

    wrapped = Tracer().timed("noop")(noop)
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        best = min(best, clock() - start - bare)
    return max(best, 0.0) / calls


# -- process pool --------------------------------------------------------------------

#: The installed tracer of this process, so that a pool worker can find it.
#: A forked worker inherits the parent's and resets it per task; a spawned
#: worker installs a fresh one on its first task.
_WORKER_TRACER: Tracer | None = None


def _worker_tracer() -> Tracer:
    global _WORKER_TRACER
    if _WORKER_TRACER is None:
        _WORKER_TRACER = Tracer()
        _WORKER_TRACER.install(Patcher())
    return _WORKER_TRACER


def _traced_task(fn, task):
    tracer = _worker_tracer()
    tracer.reset()
    start = clock()
    result = fn(task)
    busy = clock() - start
    return result, tracer.snapshot(), len(pickle.dumps(result)), busy


class TracedPool(ProcessPoolExecutor):
    """Process pool that times the parent's wait for each round's client
    tasks, measures pickled task and result sizes, and folds the workers'
    layer totals into the parent's tracer."""

    def __init__(self, tracer: Tracer, max_workers: int):
        super().__init__(max_workers=max_workers)
        self._tracer = tracer
        self._workers = max_workers

    def map(self, fn, tasks):
        tasks = list(tasks)
        counters = self._tracer.counters
        counters["federation.pool.task_bytes"] += sum(len(pickle.dumps((fn, t))) for t in tasks)
        start = clock()
        outputs = list(super().map(_traced_task, [fn] * len(tasks), tasks))
        wait = clock() - start
        results = []
        for result, snap, result_bytes, busy in outputs:
            self._tracer.merge(snap)
            counters["federation.pool.result_bytes"] += result_bytes
            counters["federation.pool.busy_s"] += busy
            results.append(result)
        counters["federation.pool.wait_s"] += wait
        counters["federation.pool.capacity_s"] += wait * self._workers
        return iter(results)
