"""The benchmark's one pipeline, run on every workload.

Each workload runs the same user flow on its own inputs and traffic:

1. write seeded inputs as TUDataset files (untimed);
2. set up ``SETUPS`` times: read the files through ``repro.datasets``, build
   a model per backend and warm the first-call paths;
3. ``fit`` and batch ``predict`` on each backend, a loop of single-graph
   ``predict`` calls, and 10-fold ``cross_validate`` with ``n_jobs=2``;
4. save the packed model, start ``repro serve`` on it ``SETUPS`` times and
   drive closed-loop traffic at the last one;
5. check every output against the reference (untimed).

Every timed call works on ``Graph`` objects no earlier call touched: ``Graph``
caches its adjacency matrix and edge arrays on first use, so each call gets
copies rebuilt from untouched templates through the public constructor.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks, inputs, reference, serving, tracing

from repro.core import GraphHDClassifier, GraphHDConfig
from repro.datasets import tudataset
from repro.datasets.dataset import GraphDataset
from repro.eval.cross_validation import cross_validate
from repro.graphs.centrality import pagerank_matrix
from repro.graphs.graph import Graph
from repro.serve.schemas import parse_predict_request, prediction_payload

BACKENDS = ("dense", "packed")
SETUPS = 3
CV_FOLDS = 10
CV_REPETITIONS = 3
CV_JOBS = 2
TOP_K = 2
BULK_SIZE = 32
DATASET = "BENCH"
GRAPHS = 1000
TEST_GRAPHS = 200
#: Offline rounds: each fits and batch-predicts once per backend.
REPEATS = 11
CV_RUNS = 5
#: In-process single-graph predict calls.
ONE_CALLS = 600
CONNECTIONS = 2
#: Held-out graphs whose encodings are checked against the reference encoder.
CHECK_SAMPLE = 32

#: The loop lengths below are sized for this many measured seconds; the
#: ``--seconds`` argument scales them (never the inputs).
DESIGN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    """Served traffic of one workload; the offline phases are the same."""

    name: str
    why: str
    singles: int
    bulks: int = 0


WORKLOADS = {
    spec.name: spec
    for spec in (
        Workload(
            "molecules",
            "NCI1-shaped graphs: per-call fixed costs and the rank-pair table "
            "route offline; wire, JSON and batcher wait for one-graph requests",
            singles=1000,
        ),
        Workload(
            "serve-mixed",
            "one connection of one-graph and one of 32-graph requests: the "
            "batcher coalesces both, so batched encode and similarity work",
            singles=450, bulks=345,
        ),
    )
}

#: A three-vertex path: warms first-call paths at negligible cost.
WARM_GRAPH = {"num_vertices": 3, "edges": [[0, 1], [1, 2]]}


def fresh(graphs: list[Graph]) -> list[Graph]:
    """Copies of ``graphs`` with empty caches, built by the public constructor."""
    return [
        Graph(
            graph.num_vertices,
            graph.edges(),
            vertex_labels=graph.vertex_labels,
            graph_label=graph.graph_label,
        )
        for graph in graphs
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


@dataclass
class Phase:
    """Timed calls of one phase: untraced and traced walls, failures, roots."""

    attempted: int = 0
    failed: int = 0
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    roots: list[tuple[int, int]] = field(default_factory=list)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, spec: Workload, seed: int, seconds: int, traced: bool,
                 root: str, workdir: str) -> None:
        self.seed = seed
        self.traced = traced
        self.root = root
        self.workdir = workdir
        self.tracer = tracing.Tracer()
        self.phases: dict[str, Phase] = {}
        self.notes: dict[str, int] = {}
        scale = seconds / DESIGN_SECONDS
        self.one_calls = max(1, round(ONE_CALLS * scale))
        self.singles = max(1, round(spec.singles * scale))
        self.bulks = round(spec.bulks * scale)
        self.samples: dict[str, list[float]] = {}
        self.last_wall = 0.0

    # ------------------------------------------------------------- timing
    def call(self, phase: str, function, *, traced: bool = False, size: int = 1,
             collect: bool = True):
        """Time ``function()`` as one operation of ``phase``; None if it raised.

        With ``collect``, a full garbage collection runs first, outside the
        timed region, so that no call inherits a collection that earlier
        allocations made due.
        """
        record = self.phases.setdefault(phase, Phase())
        record.attempted += 1
        if collect:
            gc.collect()
        uninstall = None
        if traced:
            uninstall = tracing.install(self.tracer)
            self.tracer.phase = phase
            root = self.tracer.open(phase)
        began = time.perf_counter()
        try:
            result = function()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            record.failed += 1
            return None
        finally:
            elapsed = self.last_wall = time.perf_counter() - began
            if uninstall is not None:
                self.tracer.close(root)
                uninstall()
        if traced:
            record.traced_walls.append(elapsed)
            record.roots.append((root, size))
        else:
            record.walls.append(elapsed)
        return result

    def _rounds(self, count: int):
        """Round indices and whether each is traced (every second one, traced runs)."""
        total = count * (2 if self.traced else 1)
        return [(index, self.traced and index % 2 == 1) for index in range(total)]

    # ------------------------------------------------------------- phases
    def run(self) -> None:
        generated, labels = inputs.make_graphs(GRAPHS, self.seed)
        data_dir = os.path.join(self.workdir, DATASET)
        inputs.write_tudataset(data_dir, DATASET, generated, labels)
        self.setup(data_dir)
        self.offline()
        self.samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ]
        self.serve()
        self.check()

    def setup(self, data_dir: str) -> None:
        loads, setups = [], []
        for _ in range(SETUPS):
            began = time.perf_counter()
            dataset = self.call(
                "setup", lambda: tudataset.load_tudataset(data_dir, DATASET), collect=False
            )
            loaded = time.perf_counter()
            self.warm_up(dataset.graphs)
            setups.append(time.perf_counter() - began)
            loads.append(loaded - began)
        self.samples["setup.offline_s"] = setups
        self.samples["datasets.load_s"] = loads
        self.templates = dataset.graphs
        # The templates live for the whole run; freezing them keeps the
        # collections inside timed calls from walking the benchmark's own data.
        gc.freeze()
        self.train = self.templates[:-TEST_GRAPHS]
        self.test = self.templates[-TEST_GRAPHS:]
        self.train_labels = [graph.graph_label for graph in self.train]

    def warm_up(self, graphs: list[Graph]) -> None:
        """Pay the first-call costs of fit and predict on every backend."""
        for backend in BACKENDS:
            model = GraphHDClassifier(GraphHDConfig(backend=backend))
            model.fit(fresh(graphs[:1]), [graphs[0].graph_label])
            model.predict([Graph(WARM_GRAPH["num_vertices"], WARM_GRAPH["edges"])])

    def offline(self) -> None:
        self.models: dict[str, GraphHDClassifier] = {}
        self.predictions: dict[str, list] = {}
        for _, traced in self._rounds(REPEATS):
            for backend in BACKENDS:
                graphs = fresh(self.train)
                model = GraphHDClassifier(GraphHDConfig(backend=backend))
                if self.call(f"fit.{backend}", lambda: model.fit(graphs, self.train_labels),
                             traced=traced, size=len(graphs)) is not None:
                    self.models[backend] = model
            for backend in BACKENDS:
                graphs = fresh(self.test)
                predicted = self.call(
                    f"predict.{backend}",
                    lambda: self.models[backend].predict(graphs),
                    traced=traced, size=len(graphs),
                )
                if predicted is not None:
                    self.predictions[backend] = predicted

        rounds = self._rounds(self.one_calls)
        queries = fresh([self.test[i % len(self.test)] for i in range(len(rounds))])
        for index, traced in rounds:
            graph = queries[index]
            self.call("predict_one", lambda: self.models["dense"].predict([graph]),
                      traced=traced, collect=False)

        self.cv_results = []
        for _, traced in self._rounds(CV_RUNS):
            dataset = GraphDataset(DATASET, fresh(self.templates))
            result = self.call(
                "cv",
                lambda: cross_validate(
                    GraphHDClassifier, dataset, n_splits=CV_FOLDS,
                    repetitions=CV_REPETITIONS, seed=self.seed, n_jobs=CV_JOBS,
                ),
                traced=traced, size=len(dataset),
            )
            if result is not None:
                checks.check_cv_coverage(result.folds, len(dataset))
                self.cv_results.append((result, self.last_wall))

    def serve(self) -> None:
        model_path = os.path.join(self.workdir, "model.npz")
        self.models["packed"].save(model_path)
        offline = GraphHDClassifier.load(model_path)
        expected = offline.predict_topk(self.test, k=TOP_K)
        trained = set(offline.classes)

        payloads = [_payload(graph) for graph in self.test]
        singles = [
            (json.dumps({"graphs": [payloads[i]], "top_k": TOP_K}).encode(), (i,))
            for i in range(len(payloads))
        ]
        bulks = []
        for start in range(0, len(payloads), BULK_SIZE):
            rows = tuple((start + offset) % len(payloads) for offset in range(BULK_SIZE))
            body = {"graphs": [payloads[i] for i in rows], "top_k": TOP_K}
            bulks.append((json.dumps(body).encode(), rows))
        if self.bulks:
            streams = [
                [singles[i % len(singles)] for i in range(self.singles)],
                [bulks[i % len(bulks)] for i in range(self.bulks)],
            ]
        else:
            streams = [
                [singles[i % len(singles)] for i in range(first, self.singles, CONNECTIONS)]
                for first in range(CONNECTIONS)
            ]
        self.serve_bodies = singles + (bulks if self.bulks else [])
        warm_body = json.dumps({"graphs": [WARM_GRAPH], "top_k": TOP_K}).encode()
        self.expected = expected

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        ready, starts = [], []
        server = None
        try:
            for _ in range(SETUPS):
                if server is not None:
                    server.stop()
                began = time.perf_counter()
                server = serving.Server(model_path, cwd=self.root, env=env)
                self.phases.setdefault("serve.start", Phase()).attempted += 1
                server.wait_ready()
                ready.append(time.perf_counter() - began)
                # First-call warm-up belongs to set-up, not to the traffic.
                warm, _ = serving.drive(server.port, [[(warm_body, ())]])
                if any(data is None for stream in warm for _, _, data in stream):
                    raise serving.ServerError("repro serve failed a warm-up request")
                starts.append(time.perf_counter() - began)
            before = server.get("/stats")
            records, wall = serving.drive(server.port, streams)
            after = server.get("/stats")
            self.samples["serve.rss_mb"] = [server.peak_rss_mb()]
        finally:
            if server is not None:
                server.stop()
        self.samples["serve.ready_s"] = ready
        self.samples["setup.serve_s"] = starts

        graphs_answered = 0
        phases = ("serve.single", "serve.bulk" if self.bulks else "serve.single")
        for stream, phase in zip(records, phases):
            record = self.phases.setdefault(phase, Phase())
            for rows, seconds, data in stream:
                record.attempted += 1
                if data is None:
                    record.failed += 1
                    seconds = serving.REQUEST_TIMEOUT
                else:
                    answers = json.loads(data)["predictions"]
                    if len(answers) != len(rows):
                        raise checks.CheckFailed(
                            f"{len(answers)} served answers for {len(rows)} graphs"
                        )
                    for row, answer in zip(rows, answers):
                        checks.check_served_answer(
                            answer, expected[row], k=TOP_K, trained=trained
                        )
                    graphs_answered += len(rows)
                record.walls.append(seconds)
        self.samples["serve.graphs_per_s"] = [graphs_answered / wall]
        self.stats = (before, after)

    def check(self) -> None:
        # Untimed from here on, so the templates themselves may fill their caches.
        dense, packed = self.models["dense"], self.models["packed"]
        config = dense.config
        test_encodings = dense.encode(self.test)
        # The program's own PageRank, over the same batch its encoder saw.
        centralities = pagerank_matrix(
            self.test, damping=config.pagerank_damping,
            iterations=config.pagerank_iterations,
            batch_size=config.pagerank_batch_size,
        )
        sample = self.test[:CHECK_SAMPLE]
        self.notes["tie_reordered_graphs"] = checks.check_encodings(
            [(g.num_vertices, *g.edge_arrays()) for g in sample],
            test_encodings[: len(sample)],
            packed.encode(sample),
            centralities[: len(sample)],
            dimension=config.dimension,
            seed=config.seed,
        )
        self.notes["ambiguous_queries"] = checks.check_predictions(
            dense.encode(self.train),
            self.train_labels,
            test_encodings,
            self.predictions["dense"],
        )
        self.notes["ambiguous_packed_queries"] = checks.check_packed_predictions(
            reference.unpack_bits(packed.encode(self.train), config.dimension),
            self.train_labels,
            reference.unpack_bits(packed.encode(self.test), config.dimension),
            self.predictions["packed"],
        )

    # ------------------------------------------------------------ results
    def phase_samples(self) -> None:
        """Derive per-phase metric samples from the untraced walls."""
        for backend in BACKENDS:
            for kind, size in (("fit", len(self.train)), ("predict", len(self.test))):
                walls = self.phases[f"{kind}.{backend}"].walls
                self.samples[f"{kind}.{backend}.graphs_per_s"] = [size / w for w in walls]
        self.samples["predict_one.p50_ms"] = [w * 1000 for w in self.phases["predict_one"].walls]
        self.samples["cv_s"] = list(self.phases["cv"].walls)
        self.samples["serve.single.ms"] = [w * 1000 for w in self.phases["serve.single"].walls]
        if "serve.bulk" in self.phases:
            self.samples["serve.bulk.ms"] = [w * 1000 for w in self.phases["serve.bulk"].walls]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The gated metrics: those that stayed steady from run to run."""
        self.phase_samples()
        median = lambda name: quartiles(self.samples[name])[1]  # noqa: E731
        return {
            "setup_s": (median("setup.offline_s") + median("setup.serve_s"), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MB"),
            "serve.rss_mb": (median("serve.rss_mb"), "MB"),
            "predict.packed.graphs_per_s": (median("predict.packed.graphs_per_s"), "graphs/s"),
            "serve.single.p50_ms": (median("serve.single.ms"), "ms"),
            "serve.graphs_per_s": (median("serve.graphs_per_s"), "graphs/s"),
        }

    def extra(self) -> dict[str, tuple[float, str]]:
        """Reported and not gated: host drift moves them by 15-25% between runs,
        or not every workload's traffic can carry them."""
        median = lambda name: quartiles(self.samples[name])[1]  # noqa: E731
        extra = {}
        for name in ("fit.dense.graphs_per_s", "fit.packed.graphs_per_s",
                     "predict.dense.graphs_per_s"):
            extra[name] = (median(name), "graphs/s")
        extra["predict_one.p50_ms"] = (median("predict_one.p50_ms"), "ms")
        extra["cv_s"] = (median("cv_s"), "s")
        single = self.samples["serve.single.ms"]
        # The highest percentile with at least ten samples beyond it.
        for percentile in (99, 98, 95, 90):
            if len(single) * (100 - percentile) / 100 >= 10:
                extra[f"serve.single.p{percentile}_ms"] = (
                    float(np.percentile(single, percentile)), "ms")
                break
        if "serve.bulk.ms" in self.samples:
            extra["serve.bulk.p50_ms"] = (median("serve.bulk.ms"), "ms")
        return extra

    def per_layer(self) -> dict[str, tuple[float, str]]:
        self.phase_samples()
        by_root = self.tracer.breakdown()
        median = lambda values: quartiles(values)[1]  # noqa: E731

        def layer(phase: str, name: str) -> list[tuple[float, int]]:
            return [
                (by_root[root].get(name, 0.0), size)
                for root, size in self.phases[phase].roots
            ]

        def per_graph(phases: list[str], name: str, scale: float) -> float:
            pairs = [pair for phase in phases for pair in layer(phase, name)]
            return sum(t for t, _ in pairs) / sum(n for _, n in pairs) * scale

        metrics = {"datasets.load_s": (median(self.samples["datasets.load_s"]), "s")}
        offline = [f"{kind}.{backend}" for kind in ("fit", "predict") for backend in BACKENDS]
        metrics["centrality.ms_per_graph"] = (per_graph(offline, "centrality", 1e3), "ms")
        for backend in BACKENDS:
            metrics[f"encode.{backend}.ms_per_graph"] = (
                per_graph([f"fit.{backend}", f"predict.{backend}"], f"encode.{backend}", 1e3), "ms")
        for backend in BACKENDS:
            metrics[f"accumulate.{backend}.ms"] = (
                median([t * 1e3 for t, _ in layer(f"fit.{backend}", f"accumulate.{backend}")]), "ms")
        for backend in BACKENDS:
            metrics[f"similarity.{backend}.us_per_graph"] = (
                per_graph([f"predict.{backend}"], f"similarity.{backend}", 1e6), "us")
        for part, name in (("centrality", "centrality"), ("encode", "encode.dense"),
                           ("similarity", "similarity.dense")):
            metrics[f"predict_one.{part}_ms"] = (
                median([t * 1e3 for t, _ in layer("predict_one", name)]), "ms")

        encode = [result.encoding_seconds for result, _ in self.cv_results]
        work = [
            sum(fold.train_seconds + fold.test_seconds for fold in result.folds)
            for result, _ in self.cv_results
        ]
        walls = [wall for _, wall in self.cv_results]
        metrics["cv.encode_s"] = (median(encode), "s")
        metrics["cv.fold_work_s"] = (median(work), "s")
        metrics["cv.other_s"] = (
            median([w - e - f / CV_JOBS for w, e, f in zip(walls, encode, work)]), "s")

        before, after = self.stats
        batches = after["batches_total"] - before["batches_total"]
        request_p50 = after["request_latency"]["p50_ms"]
        batch_p50 = after["batch_latency"]["p50_ms"]
        metrics["serve.ready_s"] = (median(self.samples["serve.ready_s"]), "s")
        metrics["serve.wire_ms"] = (median(self.samples["serve.single.ms"]) - request_p50, "ms")
        metrics["serve.queue_ms"] = (request_p50 - batch_p50, "ms")
        metrics["serve.batch_ms"] = (batch_p50, "ms")
        for part in ("encode", "similarity"):
            seconds = after[f"{part}_seconds_total"] - before[f"{part}_seconds_total"]
            metrics[f"serve.{part}_ms_per_batch"] = (seconds / batches * 1e3, "ms")
        metrics["serve.graphs_per_batch"] = (
            (after["graphs_total"] - before["graphs_total"]) / batches, "graphs")
        metrics["serve.parse_ms"] = (self._time_each(
            lambda body: parse_predict_request(body), [b for b, _ in self.serve_bodies]), "ms")
        metrics["serve.serialize_ms"] = (self._time_each(
            lambda rows: json.dumps({
                "model_version": 1, "metric": "cosine", "batch_size": len(rows),
                "predictions": [prediction_payload(self.expected[row]) for row in rows],
            }),
            [rows for _, rows in self.serve_bodies]), "ms")

        untraced = traced = 0.0
        for phase in offline + ["predict_one"]:
            roots = self.phases[phase].roots
            unexplained = [by_root[root].get(phase, 0.0) * 1e3 for root, _ in roots]
            metrics[f"{phase}.unexplained_ms"] = (median(unexplained), "ms")
            untraced += median(self.phases[phase].walls)
            traced += median(self.phases[phase].traced_walls)
        metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
        return metrics

    def report_lines(self, metrics: dict[str, tuple[float, str]]) -> list[str]:
        """Each measured series with quartiles and count, then every metric."""
        lines = [f"{'series':<34}{'q1':>12}{'median':>12}{'q3':>12}{'n':>7}"]
        for name, values in sorted(self.samples.items()):
            low, median, high = quartiles(values)
            lines.append(f"{name:<34}{low:>12.4f}{median:>12.4f}{high:>12.4f}{len(values):>7}")
        for name, (value, unit) in {**metrics, **self.extra()}.items():
            lines.append(f"metric {name} = {value:.6g} {unit}")
        return lines

    def trace_table(self) -> list[str]:
        """Per offline phase: wall, layer self-time sum, remainder, overhead."""
        by_root = self.tracer.breakdown()
        lines = [f"{'phase (traced, median ms)':<28}{'wall':>10}{'layers':>10}"
                 f"{'remainder':>11}{'untraced':>10}{'overhead':>10}"]
        for phase in [f"{k}.{b}" for k in ("fit", "predict") for b in BACKENDS] + ["predict_one", "cv"]:
            record = self.phases[phase]
            walls, layers = [], []
            for (root, _), wall in zip(record.roots, record.traced_walls):
                walls.append(wall * 1e3)
                layers.append(sum(t for name, t in by_root[root].items() if name != phase) * 1e3)
            wall = quartiles(walls)[1]
            layer_sum = quartiles(layers)[1]
            untraced = quartiles(record.walls)[1] * 1e3
            lines.append(f"{phase:<28}{wall:>10.3f}{layer_sum:>10.3f}{wall - layer_sum:>11.3f}"
                         f"{untraced:>10.3f}{wall - untraced:>10.3f}")
        return lines

    @staticmethod
    def _time_each(function, items) -> float:
        """Median milliseconds of ``function`` over ``items``."""
        walls = []
        for item in items:
            began = time.perf_counter()
            function(item)
            walls.append((time.perf_counter() - began) * 1e3)
        return quartiles(walls)[1]


def _payload(graph: Graph) -> dict:
    """The /predict JSON form of one graph, as a client would build it."""
    payload = {
        "num_vertices": graph.num_vertices,
        "edges": [list(edge) for edge in graph.edges()],
    }
    if graph.vertex_labels is not None:
        payload["vertex_labels"] = [int(label) for label in graph.vertex_labels]
    return payload
