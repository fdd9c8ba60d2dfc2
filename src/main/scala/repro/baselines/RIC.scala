package repro.baselines

/** Robust Information-theoretic Clustering (Böhm et al., KDD 2006) —
  * simplified MDL wrapper, per DESIGN.md.
  *
  * RIC takes a preliminary (here: k-means) clustering and purifies it with
  * coding costs: a point stays in a cluster only if encoding it under the
  * cluster's (diagonal) Gaussian model is cheaper than under a uniform
  * background model over the data's bounding box; clusters are then merged
  * greedily while the total description length (data cost + parameter cost)
  * decreases. The paper found RIC collapses most noisy datasets into a
  * single cluster — a behaviour this MDL merge reproduces.
  */
object RIC {

  val Noise = 0

  def fit(x: Array[Array[Double]], kInit: Int): Array[Int] = {
    val n = x.length
    if (n == 0) return Array.empty
    val d = x(0).length
    val pre = KMeans.fit(x, kInit)

    // Uniform background code length per point: log2 volume of bounding box.
    val noiseCost = (0 until d).map { j =>
      val vals = x.map(_(j))
      math.log((vals.max - vals.min).max(1e-9)) / math.log(2)
    }.sum

    // Purification: keep a point only where its cluster code (in bits) is cheaper.
    var labels: Array[Int] = pre.labels.map(_ + 1) // 1-based, 0 = noise
    var clusters = clusterIds(labels)
    for (c <- clusters) {
      val members = labels.indices.filter(labels(_) == c).toArray
      if (members.length > 2 * d) {
        val (mean, varr) = gaussStats(x, members, d)
        for (i <- members)
          if (-EMGMM.logGauss(x(i), mean, varr) / math.log(2) > noiseCost) labels(i) = Noise
      }
    }

    // Greedy MDL merge.
    var merged = true
    while (merged && clusterIds(labels).length > 1) {
      merged = false
      clusters = clusterIds(labels)
      val costs = clusters.map(c => c -> clusterCost(x, labels, c, d)).toMap
      val pairs = for {
        i <- clusters.indices; j <- (i + 1) until clusters.length
      } yield (clusters(i), clusters(j))
      val gains = pairs.map { case (a, b) =>
        val trial = labels.map(l => if (l == b) a else l)
        val mergedCost = clusterCost(x, trial, a, d)
        (a, b, costs(a) + costs(b) - mergedCost)
      }
      val bestOpt = gains.sortBy(-_._3).headOption
      bestOpt.foreach { case (a, b, gain) =>
        if (gain > 0) {
          labels = labels.map(l => if (l == b) a else l)
          merged = true
        }
      }
    }
    labels
  }

  /** Data cost under a diagonal Gaussian + MDL parameter cost. The
    * parameter count is the full-covariance one (d(d+3)/2, as in RIC's VAC
    * models), which is what drives RIC's aggressive merging on data that
    * does not strongly support separate Gaussians.
    */
  private def clusterCost(x: Array[Array[Double]], labels: Array[Int], c: Int, d: Int): Double = {
    val members = labels.indices.filter(labels(_) == c).toArray
    if (members.isEmpty) return 0.0
    val (mean, varr) = gaussStats(x, members, d)
    val data = members.map(i => -EMGMM.logGauss(x(i), mean, varr) / math.log(2)).sum
    val params = d * (d + 3) / 2.0
    data + 0.5 * params * math.log(members.length.toDouble) / math.log(2)
  }

  private def gaussStats(x: Array[Array[Double]], members: Array[Int], d: Int): (Array[Double], Array[Double]) = {
    val m = members.length
    val mean = Array.ofDim[Double](d)
    for (i <- members; j <- 0 until d) mean(j) += x(i)(j) / m
    val varr = Array.fill(d)(1e-6)
    for (i <- members; j <- 0 until d) { val dd = x(i)(j) - mean(j); varr(j) += dd * dd / m }
    (mean, varr)
  }

  private def clusterIds(labels: Array[Int]): Array[Int] =
    labels.distinct.filter(_ != Noise).sorted
}
