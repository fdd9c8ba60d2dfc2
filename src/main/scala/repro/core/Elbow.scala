package repro.core

/** Step 3 of AdaWave (§IV-C): the adaptive "elbow theory" threshold.
  *
  * After low-pass filtering, the sorted (descending) cell-density curve
  * splits into three regimes — a steep *signal* head, a sloped *middle*
  * segment (cells between clusters and noise) and a nearly flat *noise*
  * tail. The paper's heuristic picks the density where the middle segment
  * meets the noise segment.
  *
  * The estimator is the knee of the normalized curve: the point farthest
  * *below* the chord from (0, d_max) to (1, d_min), the "Kneedle" rule of
  * Satopää et al., "Finding a 'Kneedle' in a Haystack" (ICDCSW 2011). On a
  * signal/middle/noise piecewise-linear curve this is exactly the
  * middle–noise corner whenever the noise tail dominates the x-axis, which
  * is the extreme-noise regime AdaWave targets.
  *
  * The paper's Algorithm 4, a windowed scan for the sharpest turn of the
  * curve, is not used: in place of this knee it merged the running example
  * at 90 % noise into one component (Fig. 8 AMI 0.698 → 0.001) and lowered
  * the Table I mean (EXPERIMENTS.md, "Knee vs Algorithm 4").
  *
  * Cells with density >= the returned threshold are kept.
  */
object Elbow {

  /** Knee estimator. Degenerate inputs (fewer than 3 distinct cells, or a
    * flat curve) return the minimum density, i.e. keep everything — this is
    * also the paper's observed low-noise failure mode (§VI).
    *
    * The returned threshold is the midpoint between the knee point and its
    * predecessor on the sorted curve, so `density >= threshold` keeps the
    * segments above the knee and drops the knee's own (noise) level.
    */
  def threshold(densities: Iterable[Double]): Double = {
    val s = densities.toArray.sorted(Ordering[Double].reverse)
    if (s.length < 3 || s.head == s.last) return if (s.isEmpty) 0.0 else s.last
    val n = s.length
    val yMax = s.head
    val yMin = s.last
    var best = Double.NegativeInfinity
    var bestIdx = 0
    var i = 0
    while (i < n) {
      val x = i.toDouble / (n - 1)
      val y = (s(i) - yMin) / (yMax - yMin)
      // Chord runs (0,1) → (1,0); distance below it is ∝ 1 - x - y.
      val dist = 1.0 - x - y
      if (dist > best) { best = dist; bestIdx = i }
      i += 1
    }
    if (bestIdx == 0) s(0) else (s(bestIdx) + s(bestIdx - 1)) / 2.0
  }
}
