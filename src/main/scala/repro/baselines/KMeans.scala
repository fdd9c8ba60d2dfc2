package repro.baselines

import scala.util.Random

/** Lloyd's k-means with k-means++ seeding (Steinhaus 1957 / Forgy 1965 as
  * cited by the paper). Deterministic given the seed; the paper's protocol
  * supplies the correct k ("we similarly set the correct k ... to ensure
  * the best AMI result").
  */
object KMeans {

  final case class Model(centroids: Array[Array[Double]], labels: Array[Int], inertia: Double)

  private val MaxIter = 100 // Lloyd iterations per run, unless the labels settle first

  /** @param init "pp" (k-means++) or "random" (k distinct random points —
    *   the default of the Weka-era "provided implementations" the paper
    *   benchmarks against; used by the Table I harness)
    */
  def fit(x: Array[Array[Double]], k: Int, seed: Long = 42, restarts: Int = 4,
          init: String = "pp"): Model = {
    require(x.nonEmpty && k >= 1)
    val kk = math.min(k, x.length)
    (0 until restarts).map(r => fitOnce(x, kk, seed + 1000L * r, init)).minBy(_.inertia)
  }

  private def fitOnce(x: Array[Array[Double]], k: Int, seed: Long, init: String): Model = {
    val rnd = new Random(seed)
    val centroids =
      if (init == "random") randomInit(x, k, rnd)
      else plusPlusInit(x, k, rnd)
    val labels = Array.ofDim[Int](x.length)
    lloyd(x, centroids, labels, MaxIter)
    var inertia = 0.0
    for (i <- x.indices) inertia += LinAlg.sqDist(x(i), centroids(labels(i)))
    Model(centroids, labels, inertia)
  }

  /** Lloyd's iteration in place: assign each point to its [[nearest]]
    * centroid, then move each non-empty cluster's centroid to its members'
    * mean, until no label changes or `maxIter` rounds have run.
    */
  private[baselines] def lloyd(x: Array[Array[Double]], centroids: Array[Array[Double]],
                               labels: Array[Int], maxIter: Int): Unit = {
    val k = centroids.length
    val d = x(0).length
    var changed = true
    var iter = 0
    while (changed && iter < maxIter) {
      changed = false
      var i = 0
      while (i < x.length) {
        val l = nearest(x(i), centroids)
        if (l != labels(i)) { labels(i) = l; changed = true }
        i += 1
      }
      val sums = Array.ofDim[Double](k, d)
      val counts = Array.ofDim[Int](k)
      i = 0
      while (i < x.length) {
        val l = labels(i)
        counts(l) += 1
        var j = 0
        while (j < d) { sums(l)(j) += x(i)(j); j += 1 }
        i += 1
      }
      for (c <- 0 until k if counts(c) > 0; j <- 0 until d)
        centroids(c)(j) = sums(c)(j) / counts(c)
      iter += 1
    }
  }

  /** k distinct data points chosen uniformly at random. */
  def randomInit(x: Array[Array[Double]], k: Int, rnd: Random): Array[Array[Double]] = {
    val idx = rnd.shuffle(x.indices.toVector).take(k)
    idx.map(x(_).clone()).toArray
  }

  def plusPlusInit(x: Array[Array[Double]], k: Int, rnd: Random): Array[Array[Double]] = {
    val centroids = Array.ofDim[Array[Double]](k)
    centroids(0) = x(rnd.nextInt(x.length)).clone()
    val minSq = x.map(LinAlg.sqDist(_, centroids(0)))
    for (c <- 1 until k) {
      val total = minSq.sum
      val pick =
        if (total <= 0) rnd.nextInt(x.length)
        else {
          var target = rnd.nextDouble() * total
          var i = 0
          while (i < x.length - 1 && target > minSq(i)) { target -= minSq(i); i += 1 }
          i
        }
      centroids(c) = x(pick).clone()
      var i = 0
      while (i < x.length) {
        val dd = LinAlg.sqDist(x(i), centroids(c))
        if (dd < minSq(i)) minSq(i) = dd
        i += 1
      }
    }
    centroids
  }

  /** Index of the nearest centroid by squared distance, with distances
    * ordered by `java.lang.Double.compare`: the first index wins a tie, and
    * a NaN distance loses to every number.
    */
  def nearest(p: Array[Double], centroids: Array[Array[Double]]): Int = {
    var best = 0
    var bestD = 0.0
    var c = 0
    while (c < centroids.length) {
      val dd = LinAlg.sqDist(p, centroids(c))
      if (c == 0 || java.lang.Double.compare(dd, bestD) < 0) { bestD = dd; best = c }
      c += 1
    }
    best
  }

  /** A deterministic sample of `size` points in input order, and each
    * point's [[nearest]] sampled index, which extends the sample's labels to
    * all of `x` by 1-NN.
    */
  def subsample(x: Array[Array[Double]], size: Int, seed: Long): (Array[Array[Double]], Array[Int]) = {
    val sample = new Random(seed).shuffle(x.indices.toVector).take(size).toArray.sorted.map(x(_))
    (sample, x.map(nearest(_, sample)))
  }
}
