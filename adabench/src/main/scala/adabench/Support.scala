package adabench

/** Input seeds. Every rep draws fresh inputs from (workload seed, rep
  * index), so a run is reproducible from its seed while no two reps of a
  * run see the same data (the plan inlines each dataset's bounds as
  * literals, so repeated inputs would let Spark's codegen cache make later
  * reps cheaper than a caller's first call).
  */
object Seeds {

  /** SplitMix64 finalizer over the pair: deterministic, well spread. */
  def rep(workloadSeed: Long, repIndex: Int): Long = mix(mix(workloadSeed) ^ (repIndex.toLong + 1))

  /** Seed of call `call` within a rep that makes several calls. */
  def call(repSeed: Long, call: Int): Long = mix(repSeed + 0x632be59bd9b4e019L * (call + 1))

  private def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}

/** The output check applied to every call of every rep. */
object Check {

  /** None when `labels` is a label array of length `n` whose ids all lie
    * in 0..`maxId`; otherwise a description of the first violation.
    */
  def labels(labels: Array[Int], n: Int, maxId: Int): Option[String] = {
    if (labels == null) return Some("no label array")
    if (labels.length != n) return Some(s"expected $n labels, got ${labels.length}")
    var i = 0
    while (i < n) {
      val l = labels(i)
      if (l < 0 || l > maxId) return Some(s"label $l at row $i outside 0..$maxId")
      i += 1
    }
    None
  }

  /** None when all points of one quantization cell carry the same label.
    * AdaWave labels cells, not points (unless noise is reassigned point by
    * point), and a cell is what `Grid.quantize` computes: `bins`
    * equal-width bins per dimension over the observed range.
    */
  def cellConsistent(x: Array[Array[Double]], labels: Array[Int], bins: Int): Option[String] = {
    if (x.isEmpty) return None
    val d = x(0).length
    require(math.pow(bins, d) < Long.MaxValue, s"$bins^$d cells do not fit a Long key")
    val mins = Array.tabulate(d)(j => x.iterator.map(_(j)).min)
    val widths = Array.tabulate(d) { j =>
      val w = (x.iterator.map(_(j)).max - mins(j)) / bins
      if (w > 0) w else 1.0
    }
    val seen = new java.util.HashMap[Long, Integer]()
    var i = 0
    while (i < x.length) {
      var key = 0L
      var j = 0
      while (j < d) {
        val b = math.min(bins - 1, math.max(0, math.floor((x(i)(j) - mins(j)) / widths(j)).toInt))
        key = key * bins + b
        j += 1
      }
      val prev = seen.putIfAbsent(key, labels(i))
      if (prev != null && prev.intValue != labels(i))
        return Some(s"row $i has label ${labels(i)} but its cell has label $prev")
      i += 1
    }
    None
  }

  /** None when the non-zero ids are exactly 1..k for some k and, if noise
    * was assigned to clusters, no point keeps label 0 once a cluster
    * exists. `clusterAuto` on d > 2 meets this: its Haar transform keeps a
    * cell only when a point lies under it, so every component labels at
    * least one point. Expects ids already checked to be non-negative.
    */
  def clusterIds(labels: Array[Int], noiseAssigned: Boolean): Option[String] = {
    val max = if (labels.isEmpty) 0 else labels.max
    val seen = new java.util.BitSet(max + 1)
    labels.foreach(l => seen.set(l))
    (1 to max).find(id => !seen.get(id)) match {
      case Some(id) => Some(s"cluster id $id of 1..$max labels no point")
      case None if noiseAssigned && max > 0 && seen.get(0) =>
        Some(s"noise was assigned, but a point keeps label 0 beside clusters 1..$max")
      case None => None
    }
  }

  /** Fingerprint of a label array in row order (FNV-1a over the ids). */
  def hash(labels: Array[Int]): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < labels.length) { h = (h ^ labels(i)) * 0x100000001b3L; i += 1 }
    h
  }
}

/** Attribution of a Spark job to one of the program's layers, from the
  * call site in its first stage's name (e.g. `collect at Grid.scala:55`).
  */
object Layers {
  val Grid = "grid"
  val Harness = "harness"
  val AdaWave = "adawave"
  val Other = "other"

  private val bySource = Seq("Grid.scala" -> Grid, "Harness.scala" -> Harness, "AdaWave.scala" -> AdaWave)

  def of(stageName: String): String = {
    val site = Option(stageName).getOrElse("")
    bySource.collectFirst { case (src, layer) if site.contains(s" at $src:") => layer }
      .getOrElse(Other)
  }
}

/** A metric as reported: name, unit, value. */
final case class Metric(name: String, unit: String, value: Double)

object Metric {
  val NamePattern = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"

  /** End-to-end metrics, reported by untraced runs. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "wall_s" -> "s", "points_per_s" -> "1/s", "setup_s" -> "s", "alloc_mb" -> "MB",
    "ami" -> "ami", "k_excess" -> "count", "ok_frac" -> "ratio")

  /** Per-layer metrics, reported by traced runs. */
  val PerLayer: Seq[(String, String)] = Seq(
    "harness.input_s" -> "s", "harness.task_deser_s" -> "s", "harness.labels_s" -> "s",
    "harness.result_mb" -> "MB",
    "grid.bounds_s" -> "s", "grid.density_s" -> "s", "grid.shuffle_write_mb" -> "MB",
    "grid.cells" -> "count",
    "driver.grid_s" -> "s", "driver.alloc_mb" -> "MB",
    "adawave.coarsen_s" -> "s", "adawave.coarsen_levels" -> "count",
    "adawave.noise_assign_s" -> "s",
    "wavelet.transform_s" -> "s", "wavelet.cells_out" -> "count",
    "elbow.threshold_s" -> "s", "elbow.positive_cells" -> "count", "elbow.kept_cells" -> "count",
    "components.label_s" -> "s", "components.count" -> "count",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.codegen_compiles" -> "count",
    "spark.executor_run_s" -> "s", "spark.scheduler_wait_s" -> "s", "spark.task_gc_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.heap_after_gc_peak_mb" -> "MB",
    "trace.wall_s" -> "s", "trace.uncovered_s" -> "s", "trace.overhead_s" -> "s")
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
