package adabench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.BenchBus
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.SparkSession

final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                         cores: Int, out: File, workDir: File)

object Options {
  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1",
      get("cores").toInt, new File(get("out")), new File(get("work-dir")))
  }
}

/** The outcome of one call of a rep. */
final case class CallOutcome(rows: Int, startMs: Long, endMs: Long, labelHash: Long,
                             maxLabel: Int, ami: Double, kFound: Int, trueClasses: Int,
                             error: Option[String])

/** One rep: its calls, wall time and resource deltas. */
final case class Rep(index: Int, phase: String, wallNs: Long, allocBytes: Long, gcMs: Long,
                     codegenCompiles: Long, heapAfterGcPeak: Long, calls: Seq[CallOutcome],
                     layer: Map[String, Double] = Map.empty) {
  def ok: Boolean = calls.forall(_.error.isEmpty)
  def rows: Int = calls.map(_.rows).sum
  def wallS: Double = wallNs / 1e9
}

/** The benchmark program: one process, one caller, a closed loop with one
  * call in flight. Sets up Spark several times (the median is `setup_s`),
  * runs the workload's warm-up reps, then timed reps while the next is
  * expected to end within the time budget, each on fresh inputs drawn
  * outside the timer. With tracing,
  * timed reps alternate between untraced and traced; traced reps are also
  * replayed stage by stage.
  */
object Main {

  val SetupRounds = 5
  /** Timed reps that run whatever the time budget: a traced run needs an
    * untraced and a traced one.
    */
  val MinReps = 2
  val ProtocolRep = -1
  val ShufflePartitions = 64
  /** Writes the result lines and the trace file. */
  val Json: ObjectMapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def main(args: Array[String]): Unit = {
    val opts = Options.parse(args)
    val wl = Workloads.byName(opts.workload)
    val result = new Bench(opts, wl).run()
    val pw = new PrintWriter(opts.out, "UTF-8")
    try pw.println(result) finally pw.close()
    System.exit(0)
  }
}

final class Bench(opts: Options, wl: Workload) {
  import Main._

  private val caller = Thread.currentThread()
  private val inputs = mutable.HashMap.empty[Int, Seq[Call]]
  private val notes = mutable.ArrayBuffer.empty[String]
  private val allSpans = mutable.ArrayBuffer.empty[Span]
  private var spark: SparkSession = _

  /** Inputs of timed rep `rep` (0, 1, …) or warm-up rep -1, -2, …; rep -1
    * is the protocol rep.
    */
  private def input(rep: Int): Seq[Call] =
    inputs.getOrElseUpdate(rep,
      if (rep == ProtocolRep) wl.protocol() else wl.generate(Seeds.rep(opts.seed, rep)))

  private def session(): SparkSession = {
    val local = new File(opts.workDir, "spark-local")
    local.mkdirs()
    SparkSession.builder
      .master(s"local[${opts.cores}]")
      .appName(s"adabench-${wl.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(opts.workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
  }

  /** Session creation, its first action, and one rep's input generation
    * (the protocol rep, then timed reps 0, 1, …).
    */
  private def setUp(round: Int): Double = {
    if (spark != null) { spark.stop(); SparkSession.clearActiveSession(); SparkSession.clearDefaultSession() }
    val t0 = System.nanoTime()
    spark = session()
    spark.range(0, 1000, 1, opts.cores).count()
    input(if (round == 0) ProtocolRep else round - 1)
    (System.nanoTime() - t0) / 1e9
  }

  /** Runs rep `index`: every call timed together, each output checked. */
  private def rep(index: Int, phase: String, tracer: Option[JobTracer]): Rep = {
    val calls = input(index)
    System.gc()
    val alloc0 = Alloc.snapshot()
    val gc0 = GcWatch.collectionMs()
    val cg0 = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    GcWatch.resetPeak()
    tracer.foreach(spark.sparkContext.addSparkListener)
    val outs = mutable.ArrayBuffer.empty[(Long, Long, Either[String, Array[Int]])]
    val t0 = System.nanoTime()
    for (c <- calls) {
      val s = System.currentTimeMillis()
      val r = try Right(wl.invoke(spark, c.x)) catch { case NonFatal(e) => Left(e.toString) }
      outs += ((s, System.currentTimeMillis(), r))
    }
    val wall = System.nanoTime() - t0
    val cg = CodegenMetrics.METRIC_COMPILATION_TIME.getCount - cg0
    val alloc = Alloc.delta(alloc0, Alloc.snapshot())
    val gc = GcWatch.collectionMs() - gc0
    tracer.foreach { t => BenchBus.drain(spark.sparkContext); spark.sparkContext.removeSparkListener(t) }
    // Everything below is outside the timer: checking and scoring.
    val outcomes = calls.zip(outs).map { case (c, (s, e, r)) => outcome(c, s, e, r) }
    Rep(index, phase, wall, alloc, gc, cg, GcWatch.peakBytes, outcomes)
  }

  private def outcome(c: Call, startMs: Long, endMs: Long, r: Either[String, Array[Int]]): CallOutcome = {
    val n = c.x.length
    r match {
      case Left(err) => CallOutcome(n, startMs, endMs, 0L, 0, Double.NaN, 0, c.trueClasses, Some(err))
      case Right(labels) =>
        val err = Check.labels(labels, n, n).orElse(wl.path match {
          case Fixed(cfg) => Check.cellConsistent(c.x, labels, cfg.bins)
          case Auto(noise) => Check.clusterIds(labels, noiseAssigned = noise)
        })
        val ok = err.isEmpty
        CallOutcome(n, startMs, endMs, if (ok) Check.hash(labels) else 0L,
          if (ok) labels.max else 0,
          if (ok) wl.score(c, labels) else Double.NaN,
          if (ok) labels.iterator.filter(_ != 0).distinct.size else 0, c.trueClasses, err)
    }
  }

  def run(): String = {
    GcWatch.install()
    val setups = (0 until SetupRounds).map(setUp)
    val reps = mutable.ArrayBuffer.empty[Rep]
    for (i <- 1 to wl.warmupReps) { reps += rep(-i, "warmup", None); inputs.remove(-i) }

    val tracer = if (opts.trace) Some(new JobTracer(caller.getId)) else None
    // Start another rep only while it is expected to end within the budget.
    val deadline = System.nanoTime() + opts.seconds * 1000000000L
    var lastNs = 0L
    var i = 0
    while (i < MinReps || System.nanoTime() + lastNs <= deadline) {
      val t0 = System.nanoTime()
      // Traced runs alternate untraced and traced reps, starting untraced.
      val traced = tracer.filter(_ => i % 2 == 1)
      val r = rep(i, if (traced.isDefined) "traced" else "timed", traced)
      reps += traced.fold(r)(t => withLayers(r, t, firstTraced = !reps.exists(_.phase == "traced")))
      inputs.remove(i)
      lastNs = System.nanoTime() - t0
      i += 1
    }
    val metrics = if (opts.trace) perLayer(reps.toSeq) else endToEnd(reps.toSeq, setups)
    val stamp = settings()
    spark.stop()
    if (opts.trace) Trace.write(new File(opts.workDir, s"traces/${wl.name}-seed${opts.seed}.jsonl"), allSpans.toSeq)

    val failed = reps.count(!_.ok)
    val correct = failed == 0 && notes.isEmpty
    val info = ListMap(
      "settings" -> stamp,
      "setup_rounds_s" -> setups,
      "reps" -> reps.map(r => ListMap("index" -> r.index, "phase" -> r.phase, "wall_s" -> r.wallS,
        "gc_s" -> r.gcMs / 1e3, "alloc_mb" -> r.allocBytes / 1e6, "ok" -> r.ok,
        "errors" -> r.calls.flatMap(_.error))),
      "label_hashes" -> ListMap.from(reps.filter(_.index < MinReps).sortBy(_.index)
        .map(r => r.index.toString -> r.calls.map(_.labelHash.toString))),
      "notes" -> notes)
    val result = ListMap(
      "correct" -> correct, "attempted" -> reps.size, "failed" -> failed,
      "metrics" -> ListMap.from(metrics.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit))))
    Json.writeValueAsString(info) + "\n" + Json.writeValueAsString(result)
  }

  private def endToEnd(reps: Seq[Rep], setups: Seq[Double]): Seq[Metric] = {
    // A failed rep stays in: it counts in `failed` and `ok_frac`, and makes
    // the result incorrect.
    val timed = reps.filter(_.phase == "timed")
    require(timed.nonEmpty, "no timed rep ran")
    val wall = Stats.median(timed.map(_.wallS))
    val quality = reps.find(_.index == ProtocolRep).get
    val units = Metric.EndToEnd.toMap
    Seq(
      "wall_s" -> wall,
      "points_per_s" -> timed.head.rows / wall,
      "setup_s" -> Stats.median(setups),
      "alloc_mb" -> Stats.median(timed.map(_.allocBytes / 1e6)),
      "ami" -> quality.calls.map(_.ami).sum / quality.calls.size,
      "k_excess" -> quality.calls.map(c => (c.kFound - c.trueClasses).toDouble).sum,
      "ok_frac" -> reps.count(_.ok).toDouble / reps.size
    ).map { case (n, v) => Metric(n, units(n), v) }
  }

  /** Per-layer numbers of one traced rep: Spark jobs and task metrics
    * from the listener, driver-side stage times from a replay of its input.
    */
  private def withLayers(r: Rep, t: JobTracer, firstTraced: Boolean): Rep = {
    val calls = input(r.index)
    val acc = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val spans = mutable.ArrayBuffer.empty[Span]
    val checked = mutable.ArrayBuffer.empty[CallOutcome]
    val repStart = r.calls.head.startMs
    val repEnd = r.calls.last.endMs
    spans += Span(1, 0, r.index, "rep", "rep", repStart, repEnd)
    for (((c, out), ci) <- calls.zip(r.calls).zipWithIndex) {
      val callId = spans.size + 1
      spans += Span(callId, 1, r.index, s"call$ci", "call", out.startMs, out.endMs)
      def child(name: String, layer: String, s: Long, e: Long): Unit =
        spans += Span(spans.size + 1, callId, r.index, name, layer, s, e)
      val js = t.jobsIn(out.startMs, out.endMs)
      val tasks = t.tasksOf(js)
      def taskSum(of: Seq[JobRecord])(f: TaskRecord => Long): Long = t.tasksOf(of).map(f).sum
      js.headOption.foreach(j => child("harness.input", "harness", out.startMs, j.startMs))
      js.foreach(j => child(s"${j.layer}.job ${j.site}", j.layer, j.startMs, j.endMs))
      val grid = js.filter(_.layer == Layers.Grid)
      val harness = js.filter(_.layer == Layers.Harness)
      val adawave = js.filter(_.layer == Layers.AdaWave)
      if (grid.isEmpty || harness.isEmpty) notes += s"rep ${r.index} call $ci: missing grid or harness jobs"
      // A call's first Grid query is the bounds aggregation; the next one
      // is the density groupBy.
      val (bounds, density) = grid.partition(j => grid.headOption.exists(_.executionId == j.executionId))
      acc("harness.input_s") += js.headOption.map(j => (j.startMs - out.startMs) / 1e3).getOrElse(0.0)
      acc("harness.task_deser_s") += tasks.map(_.deserializeMs).sum / 1e3
      harness.headOption.foreach(h => acc("harness.labels_s") += (out.endMs - h.startMs) / 1e3)
      harness.lastOption.foreach(h => child("harness.labels.fill", "harness", h.endMs, out.endMs))
      acc("harness.result_mb") += taskSum(harness)(_.resultBytes) / 1e6
      acc("grid.bounds_s") += bounds.map(j => j.endMs - j.startMs).sum / 1e3
      acc("grid.density_s") += density.map(j => j.endMs - j.startMs).sum / 1e3
      acc("grid.shuffle_write_mb") += taskSum(density)(_.shuffleWriteBytes) / 1e6
      for (last <- grid.lastOption; next <- js.find(_.startMs >= last.endMs)) {
        child("driver.grid", "driver", last.endMs, next.startMs)
        acc("driver.grid_s") += (next.startMs - last.endMs) / 1e3
        acc("driver.alloc_mb") += (next.mainAllocAtStart - last.mainAllocAtEnd) / 1e6
      }
      acc("adawave.noise_assign_s") += adawave.map(j => j.endMs - j.startMs).sum / 1e3
      acc("spark.jobs") += js.size
      acc("spark.tasks") += tasks.size
      acc("spark.executor_run_s") += tasks.map(_.runMs).sum / 1e3
      acc("spark.scheduler_wait_s") +=
        tasks.map(k => t.stageSubmit(k.stageId).map(s => math.max(0L, k.launchMs - s)).getOrElse(0L)).sum / 1e3
      acc("spark.task_gc_s") += tasks.map(_.gcMs).sum / 1e3

      // Replay outside the rep: split the driver-side gap by module.
      val st = Replay.run(spark, c.x, wl.path)
      if (firstTraced) Replay.verify(spark, c.x, wl, st).foreach(e => notes += s"rep ${r.index} call $ci: $e")
      // The replay knows the call's numClusters: its ids must lie in 0..numClusters.
      checked += (if (out.error.isEmpty && out.maxLabel > st.components)
        out.copy(error = Some(s"label ${out.maxLabel} outside 0..${st.components}")) else out)
      acc("grid.cells") += st.cells
      acc("adawave.coarsen_s") += st.coarsenNs / 1e9
      acc("adawave.coarsen_levels") += st.coarsenCalls
      acc("wavelet.transform_s") += st.transformNs / 1e9
      acc("wavelet.cells_out") += st.cellsOut
      acc("elbow.threshold_s") += st.thresholdNs / 1e9
      acc("elbow.positive_cells") += st.positiveCells
      acc("elbow.kept_cells") += st.keptCells
      acc("components.label_s") += st.labelNs / 1e9
      acc("components.count") += st.components
    }
    acc("spark.codegen_compiles") = r.codegenCompiles.toDouble
    acc("jvm.gc_s") = r.gcMs / 1e3
    acc("jvm.heap_after_gc_peak_mb") = r.heapAfterGcPeak / 1e6
    acc("trace.wall_s") = r.wallS
    // Self time of the rep and call spans: the part no child span covers.
    val covered = spans.filter(_.parent > 1).map(s => s.endMs - s.startMs).sum
    val callsMs = spans.filter(_.parent == 1).map(s => s.endMs - s.startMs).sum
    acc("trace.uncovered_s") = (r.wallNs / 1e6 - covered) / 1e3
    if (callsMs - covered < -5) notes += s"rep ${r.index}: child spans overlap (${covered - callsMs} ms)"
    allSpans ++= spans
    r.copy(calls = checked.toSeq, layer = acc.toMap)
  }

  private def perLayer(reps: Seq[Rep]): Seq[Metric] = {
    val traced = reps.filter(_.phase == "traced")
    val untraced = reps.filter(_.phase == "timed")
    require(traced.nonEmpty && untraced.nonEmpty, "need a traced and an untraced rep")
    Metric.PerLayer.map { case (name, unit) =>
      val v =
        if (name == "trace.overhead_s") Stats.median(traced.map(_.wallS)) - Stats.median(untraced.map(_.wallS))
        else Stats.median(traced.map(_.layer.getOrElse(name, 0.0)))
      Metric(name, unit, v)
    }
  }

  /** The run's settings, stamped on every result. */
  private def settings(): ListMap[String, Any] = {
    val rt = ManagementFactory.getRuntimeMXBean
    ListMap(
      "workload" -> wl.name, "seed" -> opts.seed, "seconds" -> opts.seconds, "trace" -> opts.trace,
      "master" -> spark.sparkContext.master, "cores" -> opts.cores,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm_flags" -> rt.getInputArguments.asScala.filter(a => a.startsWith("-X")).toSeq,
      "collectors" -> GcWatch.collectors,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1000000L,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "adaptive" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "java" -> System.getProperty("java.version"),
      "scala" -> scala.util.Properties.versionNumberString,
      "spark" -> spark.version)
  }
}
