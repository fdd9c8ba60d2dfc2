package repro.baselines

import scala.util.Random

/** EM for a diagonal-covariance Gaussian mixture (Celeux & Govaert 1992 as
  * cited by the paper): each cluster is one Gaussian, a point's label is the
  * component of maximal responsibility. Initialized from k-means++ means.
  */
object EMGMM {

  final case class Model(weights: Array[Double], means: Array[Array[Double]],
                         vars: Array[Array[Double]], labels: Array[Int], logLik: Double)

  private val Tol = 1e-6 // EM stops when the log-likelihood moves by a smaller share

  /** @param init "pp" (k-means++ means) or "random" (random data points —
    *   the default of the paper-era provided implementations)
    */
  def fit(x: Array[Array[Double]], k: Int, seed: Long = 42,
          maxIter: Int = 100, init: String = "pp"): Model = {
    val n = x.length
    val d = x(0).length
    val kk = math.min(k, n)
    val rnd = new Random(seed)

    val means =
      if (init == "random") KMeans.randomInit(x, kk, rnd)
      else KMeans.plusPlusInit(x, kk, rnd)
    val globalVar = Array.tabulate(d) { j =>
      val m = x.map(_(j)).sum / n
      math.max(1e-6, x.map(p => (p(j) - m) * (p(j) - m)).sum / n)
    }
    val vars = Array.fill(kk)(globalVar.clone())
    val weights = Array.fill(kk)(1.0 / kk)
    val resp = Array.ofDim[Double](n, kk)
    var prevLl = Double.NegativeInfinity
    var ll = 0.0
    var iter = 0
    var converged = false

    while (iter < maxIter && !converged) {
      // E-step (log-space for stability).
      ll = 0.0
      var i = 0
      while (i < n) {
        var maxLog = Double.NegativeInfinity
        val logs = Array.tabulate(kk)(c => math.log(weights(c)) + logGauss(x(i), means(c), vars(c)))
        for (c <- 0 until kk) if (logs(c) > maxLog) maxLog = logs(c)
        var sum = 0.0
        for (c <- 0 until kk) { resp(i)(c) = math.exp(logs(c) - maxLog); sum += resp(i)(c) }
        for (c <- 0 until kk) resp(i)(c) /= sum
        ll += maxLog + math.log(sum)
        i += 1
      }
      // M-step.
      for (c <- 0 until kk) {
        var nc = 0.0
        i = 0
        while (i < n) { nc += resp(i)(c); i += 1 }
        weights(c) = math.max(1e-10, nc / n)
        for (j <- 0 until d) {
          var m = 0.0
          i = 0
          while (i < n) { m += resp(i)(c) * x(i)(j); i += 1 }
          means(c)(j) = m / math.max(nc, 1e-10)
          var v = 0.0
          i = 0
          while (i < n) { val dd = x(i)(j) - means(c)(j); v += resp(i)(c) * dd * dd; i += 1 }
          vars(c)(j) = math.max(1e-6, v / math.max(nc, 1e-10))
        }
      }
      converged = math.abs(ll - prevLl) < Tol * math.abs(ll)
      prevLl = ll
      iter += 1
    }
    val labels = Array.tabulate(n)(i => (0 until kk).maxBy(resp(i)(_)))
    Model(weights, means, vars, labels, ll)
  }

  /** Natural-log density of a diagonal Gaussian at `p`. */
  private[baselines] def logGauss(p: Array[Double], mean: Array[Double], variance: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < p.length) {
      val dd = p(j) - mean(j)
      s += -0.5 * (math.log(2 * math.Pi * variance(j)) + dd * dd / variance(j))
      j += 1
    }
    s
  }
}
