package repro.baselines

/** Minimal dense linear algebra for the spectral baseline: a cyclic Jacobi
  * eigensolver for real symmetric matrices. O(n³) per sweep — fine for the
  * ≤ 600-point affinity matrices STSC is run on.
  */
object LinAlg {

  // Jacobi stops after MaxSweeps sweeps or once the off-diagonal norm is ≤ Tol.
  private val MaxSweeps = 50
  private val Tol = 1e-10

  /** Eigendecomposition of symmetric `a` (destroyed). Returns
    * (eigenvalues ascending, eigenvectors as columns).
    */
  def symEig(a: Array[Array[Double]]): (Array[Double], Array[Array[Double]]) = {
    val n = a.length
    val v = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    var sweep = 0
    var off = offDiagNorm(a)
    while (sweep < MaxSweeps && off > Tol) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p)(q)
          if (math.abs(apq) > 1e-14) {
            val theta = (a(q)(q) - a(p)(p)) / (2.0 * apq)
            val t = math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0)) match {
              case 0.0 => 1.0 / (theta + math.sqrt(theta * theta + 1.0))
              case x   => x
            }
            val c = 1.0 / math.sqrt(t * t + 1.0)
            val s = t * c
            rotate(a, v, p, q, c, s, n)
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(a)
      sweep += 1
    }
    val evals = Array.tabulate(n)(i => a(i)(i))
    val order = evals.indices.sortBy(evals).toArray
    val sortedVals = order.map(evals)
    val sortedVecs = Array.tabulate(n, n)((i, j) => v(i)(order(j)))
    (sortedVals, sortedVecs)
  }

  private def rotate(a: Array[Array[Double]], v: Array[Array[Double]],
                     p: Int, q: Int, c: Double, s: Double, n: Int): Unit = {
    var i = 0
    while (i < n) {
      val aip = a(i)(p); val aiq = a(i)(q)
      a(i)(p) = c * aip - s * aiq
      a(i)(q) = s * aip + c * aiq
      i += 1
    }
    i = 0
    while (i < n) {
      val api = a(p)(i); val aqi = a(q)(i)
      a(p)(i) = c * api - s * aqi
      a(q)(i) = s * api + c * aqi
      i += 1
    }
    i = 0
    while (i < n) {
      val vip = v(i)(p); val viq = v(i)(q)
      v(i)(p) = c * vip - s * viq
      v(i)(q) = s * vip + c * viq
      i += 1
    }
  }

  private def offDiagNorm(a: Array[Array[Double]]): Double = {
    var s = 0.0
    for (i <- a.indices; j <- a.indices if i != j) s += a(i)(j) * a(i)(j)
    math.sqrt(s)
  }

  def sqDist(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < x.length) { val d = x(i) - y(i); s += d * d; i += 1 }
    s
  }

  def dist(x: Array[Double], y: Array[Double]): Double = math.sqrt(sqDist(x, y))
}
