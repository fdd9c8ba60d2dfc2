package repro.baselines

import scala.collection.concurrent.TrieMap
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Hartigan & Hartigan's dip test of unimodality (1985).
  *
  * The dip is the sup-norm distance between the ECDF and the closest
  * unimodal CDF. We compute it from its geometric characterization: for a
  * candidate mode position m, the best unimodal fit is convex (greatest
  * convex minorant) left of m and concave (least concave majorant) right of
  * m, and the attainable sup-distance is half the larger hull/ECDF
  * deviation; the dip is the minimum over modes. ECDF steps are handled by
  * collapsing ties: hull *constraints* sit at the pre-jump value on the
  * convex side and the post-jump value on the concave side, while
  * *deviations* are measured at the opposite corner of each step — this
  * reproduces the known exact values (evenly-spaced sample → 1/(2n),
  * half-mass-at-two-points → 0.25).
  *
  * Inputs larger than 2048 points are order-statistic-thinned first (the
  * ECDF shape is preserved); significance comes from a cached bootstrap of
  * √n-scaled dips of uniform samples, the standard conservative null.
  */
object DipTest {

  /** @param stat dip statistic
    * @param modalLo/modalHi the modal interval (steep region around the
    *   best mode — the hull segments adjacent to it)
    */
  final case class Dip(stat: Double, modalLo: Double, modalHi: Double)
  final case class Result(stat: Double, pValue: Double, modalLo: Double, modalHi: Double)

  private val MaxN = 2048 // larger samples are thinned to this many points
  private val Boot = 100  // uniform samples per size bucket of the bootstrap null

  def test(x: Array[Double]): Result = {
    val d = dip(x)
    Result(d.stat, pValue(d.stat, math.min(x.length, MaxN)), d.modalLo, d.modalHi)
  }

  def dip(x: Array[Double]): Dip = {
    val s = x.sorted
    dipOfSorted(if (s.length > MaxN) thin(s, MaxN) else s)
  }

  /** Dip of an already-sorted sample. */
  def dipOfSorted(xs: Array[Double]): Dip = {
    val n = xs.length
    if (n == 0) return Dip(0.0, 0.0, 0.0)
    if (n == 1) return Dip(0.5, xs(0), xs(0))
    // Collapse ties: unique values with cumulative mass before/after.
    val ux = ArrayBuffer.empty[Double]
    val cum = ArrayBuffer.empty[Int]
    var i = 0
    while (i < n) {
      var j = i
      while (j < n && xs(j) == xs(i)) j += 1
      ux += xs(i)
      cum += j
      i = j
    }
    val u = ux.length
    if (u == 1) return Dip(0.5 / n, ux(0), ux(0))
    val lo = Array.tabulate(u)(k => (if (k == 0) 0 else cum(k - 1)).toDouble / n)
    val hi = Array.tabulate(u)(k => cum(k).toDouble / n)

    val modes: Seq[Int] =
      if (u <= 400) 0 until u
      else (0 until 400).map(t => (t.toLong * (u - 1) / 399).toInt).distinct

    var best = Double.MaxValue
    var bestLo = ux(0)
    var bestHi = ux(u - 1)
    for (m <- modes) {
      val (dL, segLo) = devLeft(ux, lo, hi, m)
      val (dR, segHi) = devRight(ux, lo, hi, m)
      val dm = math.max(dL, dR) / 2.0
      if (dm < best) { best = dm; bestLo = segLo; bestHi = segHi }
    }
    Dip(math.max(best, 0.5 / n), bestLo, bestHi)
  }

  /** Greatest-convex-minorant side: constraints (x_u, lo(u)) for u < m plus
    * the mode at its top corner; deviations measured at the top corners
    * hi(u), u < m. Returns (max deviation, left end of the hull segment
    * entering the mode).
    */
  private def devLeft(ux: ArrayBuffer[Double], lo: Array[Double], hi: Array[Double],
                      m: Int): (Double, Double) = {
    if (m == 0) return (0.0, ux(0))
    val px = Array.tabulate(m + 1)(u => ux(u))
    val py = Array.tabulate(m + 1)(u => if (u == m) hi(u) else lo(u))
    val hull = lowerHull(px, py)
    val yAt = evalHull(px, py, hull)
    var dev = 0.0
    var k = 0
    while (k < m) { val d = hi(k) - yAt(k); if (d > dev) dev = d; k += 1 }
    val segStart = if (hull.length >= 2) px(hull(hull.length - 2)) else px(0)
    (dev, segStart)
  }

  /** Least-concave-majorant side, mirrored. */
  private def devRight(ux: ArrayBuffer[Double], lo: Array[Double], hi: Array[Double],
                       m: Int): (Double, Double) = {
    val u = ux.length
    if (m == u - 1) return (0.0, ux(u - 1))
    val len = u - m
    val px = Array.tabulate(len)(t => ux(m + t))
    val py = Array.tabulate(len)(t => hi(m + t))
    // The upper hull is the lower hull of the mirrored points: negation is
    // exact, so every cross product only flips its sign.
    val hull = lowerHull(px, py.map(-_))
    val yAt = evalHull(px, py, hull)
    var dev = 0.0
    var t = 1
    while (t < len) { val d = yAt(t) - lo(m + t); if (d > dev) dev = d; t += 1 }
    val segEnd = if (hull.length >= 2) px(hull(1)) else px(len - 1)
    (dev, segEnd)
  }

  private def cross(px: Array[Double], py: Array[Double], o: Int, a: Int, b: Int): Double =
    (px(a) - px(o)) * (py(b) - py(o)) - (py(a) - py(o)) * (px(b) - px(o))

  /** Monotone-chain lower hull over points already sorted by x. */
  private def lowerHull(px: Array[Double], py: Array[Double]): Array[Int] = {
    val h = ArrayBuffer.empty[Int]
    for (i <- px.indices) {
      while (h.length >= 2 && cross(px, py, h(h.length - 2), h(h.length - 1), i) <= 0)
        h.remove(h.length - 1)
      h += i
    }
    h.toArray
  }

  /** Piecewise-linear evaluation of a hull polyline at every input x. */
  private def evalHull(px: Array[Double], py: Array[Double], hull: Array[Int]): Array[Double] = {
    val out = Array.ofDim[Double](px.length)
    var seg = 0
    for (i <- px.indices) {
      while (seg < hull.length - 2 && px(hull(seg + 1)) < px(i)) seg += 1
      val a = hull(seg)
      val b = hull(math.min(seg + 1, hull.length - 1))
      if (a == b || px(b) == px(a)) out(i) = py(a)
      else {
        val t = (px(i) - px(a)) / (px(b) - px(a))
        out(i) = py(a) + t * (py(b) - py(a))
      }
    }
    out
  }

  private def thin(sorted: Array[Double], m: Int): Array[Double] =
    Array.tabulate(m)(t => sorted(((t.toLong * (sorted.length - 1)) / (m - 1)).toInt))

  // ---- bootstrap null ------------------------------------------------------

  private val nullCache = TrieMap.empty[Int, Array[Double]]

  private def bucket(n: Int): Int = {
    var b = 8
    while (b < n && b < MaxN) b *= 2
    b
  }

  /** P[dip of a uniform sample ≥ stat], with √n scaling as the pivot. The
    * null is cached by size bucket alone, which is sound only because
    * `Boot` is a constant: a per-call count would read another count's null.
    */
  def pValue(stat: Double, n: Int): Double = {
    if (n < 4) return 1.0
    val b = bucket(n)
    val nullDips = nullCache.getOrElseUpdate(b, {
      val rnd = new Random(987654321L + b)
      Array.fill(Boot) {
        val s = Array.fill(b)(rnd.nextDouble()).sorted
        dipOfSorted(s).stat * math.sqrt(b.toDouble)
      }.sorted
    })
    val scaled = stat * math.sqrt(n.toDouble)
    nullDips.count(_ >= scaled).toDouble / nullDips.length
  }
}
