package repro.baselines

import scala.collection.mutable.ArrayBuffer

/** SkinnyDip (Maurus & Plant, KDD 2016), our Scala rendering.
  *
  * SkinnyDip finds clusters as intersections of 1-D *modal intervals*
  * extracted per dimension with UniDip: on each coordinate projection it
  * recursively isolates the intervals where the sample is unimodally
  * concentrated, then recurses into the next dimension within each
  * interval; a cluster is a hyperrectangle that survives all dimensions and
  * everything outside is noise. Its documented weakness — inherited here —
  * is the assumption that every cluster projects unimodally onto every
  * coordinate axis.
  *
  * Our UniDip uses the exact dip statistic for the unimodality decision and
  * a histogram-valley split for the recursion (a documented behavioural
  * approximation of the original's modal-interval recursion, see DESIGN.md):
  * while the dip test rejects unimodality, the segment is split at the
  * deepest smoothed-histogram valley; a unimodal segment is trimmed to its
  * modal core (contiguous bins above a fraction of the segment's peak),
  * which is what sheds the uniform noise tails.
  */
object SkinnyDip {

  val Noise = 0

  private val Alpha = 0.05 // dip-test level, the original's default

  def fit(x: Array[Array[Double]]): Array[Int] = {
    val n = x.length
    if (n == 0) return Array.empty
    val d = x(0).length
    val labels = Array.fill(n)(Noise)
    var next = 0

    def recurse(idx: Array[Int], dim: Int): Unit = {
      if (idx.isEmpty) return
      if (dim == d) {
        next += 1
        idx.foreach(labels(_) = next)
        return
      }
      val vals = idx.map(i => x(i)(dim))
      val intervals = uniDip(vals.sorted)
      for ((lo, hi) <- intervals) {
        val sub = idx.filter(i => x(i)(dim) >= lo && x(i)(dim) <= hi)
        // Guard against degenerate slivers.
        if (sub.length >= math.max(4, n / 500)) recurse(sub, dim + 1)
      }
    }

    recurse(x.indices.toArray, 0)
    labels
  }

  /** Modal intervals of a sorted 1-D sample. */
  def uniDip(sorted: Array[Double], depth: Int = 0): List[(Double, Double)] = {
    if (sorted.length < 8 || depth > 6) return List((sorted.head, sorted.last))
    val r = DipTest.test(sorted)
    if (r.pValue >= Alpha) {
      // Unimodal: keep the modal core, shedding flat tails.
      List(modalCore(sorted))
    } else {
      splitAtValley(sorted) match {
        case Some(cut) =>
          val left = sorted.takeWhile(_ <= cut)
          val right = sorted.dropWhile(_ <= cut)
          val l = if (left.length >= 8) uniDip(left, depth + 1) else Nil
          val rr = if (right.length >= 8) uniDip(right, depth + 1) else Nil
          val both = l ++ rr
          if (both.isEmpty) List(modalCore(sorted)) else both
        case None => List(modalCore(sorted))
      }
    }
  }

  /** Contiguous histogram bins around the peak above 10 % of the peak —
    * low enough that a clean unimodal dimension keeps ~96 % of its mass
    * (recursing over many dimensions must not bleed the cluster dry),
    * high enough to shed genuinely flat uniform tails.
    */
  private def modalCore(sorted: Array[Double]): (Double, Double) = {
    val (edges, h) = histogram(sorted)
    if (h.isEmpty || h.max == 0) return (sorted.head, sorted.last)
    val peak = h.indexOf(h.max)
    val cutoff = 0.10 * h.max
    var a = peak
    while (a > 0 && h(a - 1) >= cutoff) a -= 1
    var b = peak
    while (b < h.length - 1 && h(b + 1) >= cutoff) b += 1
    (edges(a), edges(b + 1))
  }

  /** Deepest valley separating the global histogram peak from another
    * distant peak. The dip test has already rejected unimodality when this
    * runs, so the search only needs to find the most convincing cut — the
    * peak pair (global max, candidate ≥ 3 bins away) maximizing the depth
    * `min(peaks) − valley` between them.
    */
  private def splitAtValley(sorted: Array[Double]): Option[Double] = {
    val (edges, h) = histogram(sorted)
    if (h.length < 7) return None
    val peaks = ArrayBuffer.empty[Int]
    for (i <- h.indices)
      if ((i == 0 || h(i) >= h(i - 1)) && (i == h.length - 1 || h(i) >= h(i + 1)) && h(i) > 0)
        peaks += i
    if (peaks.length < 2) return None
    val p1 = peaks.maxBy(h(_))
    val candidates = peaks.filter(q => math.abs(q - p1) >= 3)
    if (candidates.isEmpty) return None
    val scored = candidates.map { q =>
      val (a, b) = (math.min(p1, q), math.max(p1, q))
      val valley = (a + 1 until b).minBy(h(_))
      (valley, math.min(h(p1), h(q)) - h(valley))
    }
    val (valley, depth) = scored.maxBy(_._2)
    if (depth <= 0.05 * h(p1)) None
    else Some((edges(valley) + edges(valley + 1)) / 2.0)
  }

  /** Smoothed histogram (moving average of 3) with value-range edges. */
  private def histogram(sorted: Array[Double]): (Array[Double], Array[Double]) = {
    val n = sorted.length
    val bins = math.max(8, math.min(64, n / 8))
    val lo = sorted.head
    val hi = sorted.last
    if (hi <= lo) return (Array(lo, hi), Array(n.toDouble))
    val w = (hi - lo) / bins
    val counts = Array.ofDim[Double](bins)
    for (v <- sorted) {
      val b = math.min(bins - 1, ((v - lo) / w).toInt)
      counts(b) += 1
    }
    val smooth = Array.tabulate(bins) { i =>
      val a = math.max(0, i - 1)
      val b = math.min(bins - 1, i + 1)
      (a to b).map(counts(_)).sum / (b - a + 1)
    }
    val edges = Array.tabulate(bins + 1)(i => lo + i * w)
    (edges, smooth)
  }
}
