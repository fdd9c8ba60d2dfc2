package repro.baselines

import scala.util.Random

/** Self-tuning spectral clustering (Zelnik-Manor & Perona 2004).
  *
  * Affinity A_ij = exp(−‖x_i−x_j‖² / (σ_i σ_j)) with the local scale
  * σ_i = distance to the 7th nearest neighbour; the normalized affinity
  * D^{-1/2} A D^{-1/2} is eigendecomposed (cyclic Jacobi), the number of
  * clusters is chosen by the largest eigengap in 1..KMax, and k-means runs
  * on the row-normalized top-k eigenvector embedding (Ng–Jordan–Weiss).
  *
  * O(n³) eigensolve: above `Cap` points we cluster a deterministic sample
  * and extend labels to the rest by nearest sampled neighbour.
  */
object STSC {

  private val KMax = 8
  private val Cap = 600
  private val Seed = 42L

  def fit(x: Array[Array[Double]]): Array[Int] = {
    val n = x.length
    if (n == 0) return Array.empty
    if (n <= Cap) return fitSmall(x)
    val rnd = new Random(Seed)
    val sample = rnd.shuffle((0 until n).toVector).take(Cap).toArray.sorted.map(x(_))
    val sampleLabels = fitSmall(sample)
    Array.tabulate(n)(i => sampleLabels(KMeans.nearest(x(i), sample)))
  }

  private def fitSmall(x: Array[Array[Double]]): Array[Int] = {
    val n = x.length
    if (n <= 2) return Array.fill(n)(0)
    val d2 = Array.tabulate(n, n)((i, j) => LinAlg.sqDist(x(i), x(j)))
    // Local scale: distance to the 7th NN (Zelnik-Manor & Perona), widened
    // by a constant factor so dense Gaussian cores stay well mixed — with
    // the raw 7-NN distance the affinity graph degenerates to a kNN graph
    // whose many slow diffusion modes defeat the eigengap selection.
    val kNN = math.min(7, n - 1)
    val sigma = Array.tabulate(n) { i =>
      val sorted = d2(i).sorted
      math.max(3.0 * math.sqrt(sorted(kNN)), 1e-9)
    }
    val a = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else math.exp(-d2(i)(j) / (sigma(i) * sigma(j))))
    val deg = Array.tabulate(n)(i => math.max(a(i).sum, 1e-12))
    val l = Array.tabulate(n, n)((i, j) => a(i)(j) / math.sqrt(deg(i) * deg(j)))

    val (evals, evecs) = LinAlg.symEig(l)
    // Eigenvalues ascending; the informative ones are the largest.
    val topIdx = (0 until n).sortBy(i => -evals(i)).toArray
    val kCap = math.min(KMax, n - 1)
    // Eigengap model selection over k = 2..KMax (k = 1 is excluded: on a
    // connected affinity graph the trivial top eigenvalue always dominates
    // and would collapse every overlapping dataset to a single cluster).
    val k = {
      val gaps = (2 until kCap).map(i => i -> (evals(topIdx(i - 1)) - evals(topIdx(i))))
      if (gaps.isEmpty) math.min(2, kCap) else gaps.maxBy(_._2)._1
    }
    if (k <= 1) return Array.fill(n)(0)
    val emb = Array.tabulate(n) { i =>
      val row = Array.tabulate(k)(c => evecs(i)(topIdx(c)))
      val norm = math.sqrt(row.map(v => v * v).sum)
      if (norm > 1e-12) row.map(_ / norm) else row
    }
    KMeans.fit(emb, k, Seed).labels
  }
}
