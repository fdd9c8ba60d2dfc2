package repro.baselines

import scala.util.Random

/** DipMeans (Kalogeratos & Likas, NIPS 2012): incremental k-means where a
  * cluster is split when enough of its members ("viewers") observe a
  * significant dip in the distribution of their distances to the other
  * members — the "dip-dist" split criterion.
  */
object DipMeans {

  private val Alpha = 0.05      // each viewer's dip-test level
  private val ViewerFrac = 0.01 // split when a larger share of viewers sees a dip
  val MaxK = 12                 // splitting stops at this many clusters
  private val Seed = 42L

  def fit(x: Array[Array[Double]]): Array[Int] = {
    val n = x.length
    if (n == 0) return Array.empty
    var k = 1
    var labels = Array.fill(n)(0)
    var improved = true
    while (improved && k < MaxK) {
      improved = false
      val splitScores = (0 until k).map { c =>
        val members = labels.indices.filter(labels(_) == c).toArray
        c -> splitScore(x, members, Seed + c)
      }
      val candidates = splitScores.filter(_._2 > ViewerFrac)
      if (candidates.nonEmpty) {
        val (worst, _) = candidates.maxBy(_._2)
        val members = labels.indices.filter(labels(_) == worst).toArray
        if (members.length >= 4) {
          // Split the offending cluster in two, then re-stabilize globally.
          val sub = KMeans.fit(members.map(x(_)), 2, Seed + 17 * k)
          val newLabels = labels.clone()
          members.zip(sub.labels).foreach { case (i, l) => if (l == 1) newLabels(i) = k }
          k += 1
          labels = lloydFromLabels(x, newLabels, k)
          improved = true
        }
      }
    }
    labels
  }

  /** Fraction of sampled viewers whose distance vector is multimodal. */
  private def splitScore(x: Array[Array[Double]], members: Array[Int], seed: Long): Double = {
    if (members.length < 8) return 0.0
    val rnd = new Random(seed)
    val viewers =
      if (members.length <= 50) members
      else Array.fill(50)(members(rnd.nextInt(members.length))).distinct
    val others = if (members.length > 500) {
      Array.fill(500)(members(rnd.nextInt(members.length)))
    } else members
    var significant = 0
    for (v <- viewers) {
      val dists = others.filter(_ != v).map(o => LinAlg.dist(x(v), x(o)))
      if (DipTest.test(dists).pValue < Alpha) significant += 1
    }
    significant.toDouble / viewers.length
  }

  /** A few Lloyd iterations seeded from the given labeling. */
  private def lloydFromLabels(x: Array[Array[Double]], labels: Array[Int], k: Int): Array[Int] = {
    val d = x(0).length
    val out = labels.clone()
    for (_ <- 0 until 20) {
      val sums = Array.ofDim[Double](k, d)
      val counts = Array.ofDim[Int](k)
      for (i <- x.indices) {
        counts(out(i)) += 1
        for (j <- 0 until d) sums(out(i))(j) += x(i)(j)
      }
      val centroids = Array.tabulate(k) { c =>
        if (counts(c) == 0) x(c % x.length)
        else Array.tabulate(d)(j => sums(c)(j) / counts(c))
      }
      var changed = false
      for (i <- x.indices) {
        val l = KMeans.nearest(x(i), centroids)
        if (l != out(i)) { out(i) = l; changed = true }
      }
      if (!changed) return out
    }
    out
  }
}
