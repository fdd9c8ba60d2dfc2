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
  private val LloydRounds = 20  // k-means rounds after each split

  def fit(x: Array[Array[Double]]): Array[Int] = {
    val n = x.length
    if (n == 0) return Array.empty
    var k = 1
    val labels = Array.fill(n)(0)
    // Each cluster's centroid, kept across splits; the first k are in use,
    // and `KMeans.lloyd` moves them in place.
    val centroids = new Array[Array[Double]](MaxK)
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
          members.zip(sub.labels).foreach { case (i, l) => if (l == 1) labels(i) = k }
          centroids(worst) = sub.centroids(0)
          centroids(k) = sub.centroids(1)
          k += 1
          KMeans.lloyd(x, centroids.take(k), labels, LloydRounds)
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
}
