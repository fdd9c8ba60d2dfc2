package repro.core

/** Discrete wavelet transform over sparse d-dimensional grids.
  *
  * AdaWave (§III, §IV-B) only ever consumes the *average subband*
  * (L_x L_y ... in every dimension): the quantized density grid is convolved
  * with the analysis low-pass filter of the chosen wavelet family along one
  * dimension at a time and dyadically downsampled. The grid is stored
  * sparsely as a [[CellGrid]] (the paper's "grid labeling" structure), so
  * the convolution is implemented scatter-style: each non-zero input cell
  * contributes `h(j) * density` to the output cell whose coordinate along
  * the active dimension is `k = (p + center - j) / 2` (for the taps where
  * that is a non-negative integer). Cells outside the grid are implicitly
  * zero, which corresponds to zero-padding at the boundary.
  */
object Wavelet {

  /** A wavelet family is identified by its analysis low-pass filter.
    *
    * Filters are normalized to sum 1 so transformed values stay on the
    * density scale (thresholding is scale-free either way, but tests and
    * humans read densities more easily than √2-inflated coefficients).
    *
    * `center` is the index of the filter's dominant tap. The convolution is
    * phased so that cell `p` sends its dominant response to cell `p >> 1` —
    * the same mapping the AdaWave lookup table uses to translate original
    * cells into transformed cells. Without this, even-coordinate cells of an
    * off-center filter (CDF22's peak sits at tap 2) land their mass one cell
    * away from where the lookup table reads, and clusters silently vanish.
    */
  sealed trait Family {
    def name: String
    def lowPass: Array[Double]
    def center: Int
  }

  /** Haar: the transformed cell is the mean of its two children. */
  case object Haar extends Family {
    val name = "haar"
    val lowPass: Array[Double] = Array(0.5, 0.5)
    val center = 0
  }

  /** Daubechies-4 (two vanishing moments), sum-normalized. */
  case object Daubechies4 extends Family {
    val name = "db4"
    private val s = math.sqrt(2.0)
    val lowPass: Array[Double] =
      Array(0.48296291314469025, 0.8365163037378079,
            0.22414386804185735, -0.12940952255092145).map(_ / s)
    val center = 1
  }

  /** Cohen–Daubechies–Feauveau (2,2) analysis low-pass (the 5/3 wavelet),
    * the default family in our AdaWave — its hat shape is the one the paper
    * credits for emphasizing cluster cores and suppressing boundaries.
    */
  case object CDF22 extends Family {
    val name = "cdf22"
    val lowPass: Array[Double] = Array(-0.125, 0.25, 0.75, 0.25, -0.125)
    val center = 2
  }

  val families: Seq[Family] = Seq(Haar, Daubechies4, CDF22)

  /** One low-pass + downsample-by-2 pass along `dim` of a sparse grid.
    *
    * Cell `p` with tap `j` contributes `h(j) * v` to output coordinate
    * `k = (p + center - j) / 2` (when that is a non-negative integer), so
    * the dominant tap maps `p → p >> 1`. Cells whose sum is within 1e-12
    * of 0 are dropped.
    */
  private[core] def transformDim(grid: CellGrid, dim: Int, h: Array[Double], center: Int): CellGrid = {
    val out = new CellGrid(grid.d)
    val cell = new Array[Int](grid.d)
    for (r <- 0 until grid.size; j <- h.indices) {
      val num = grid.coord(r, dim) + center - j
      if (num >= 0 && num % 2 == 0) {
        for (i <- cell.indices) cell(i) = grid.coord(r, i)
        cell(dim) = num / 2
        out.add(cell, 0, h(j) * grid.value(r))
      }
    }
    out.filter(v => math.abs(v) > 1e-12)
  }

  /** `levels` rounds of the average-subband transform over every dimension.
    *
    * Haar is one [[CellGrid.merged]]: after `levels` rounds cell `p` lands
    * in `p >> levels` with weight 2^-(d·levels), so the transformed cell is
    * the mean of the 2^(d·levels) cells it covers. On integer counts every
    * partial sum is an integer times a power of two, so this equals the
    * chain of `d·levels` [[transformDim]] passes exactly. The other
    * families run that chain. CDF(2,2)'s taps are multiples of 1/8, so on
    * integer counts its partial sums are exact too, in any order, as long
    * as they fit a double's 53 bits.
    */
  def transform(grid: CellGrid, family: Family, levels: Int): CellGrid =
    family match {
      case Haar => grid.merged(levels, math.scalb(1.0, -grid.d * levels))
      case _ =>
        var g = grid
        for (_ <- 0 until levels; dim <- 0 until grid.d)
          g = transformDim(g, dim, family.lowPass, family.center)
        g
    }

  /** [[transform]] on boxed cells of dimension `d`. A replay shim (ROADMAP item 1). */
  def transform(grid: Map[Vector[Int], Double], d: Int, family: Family, levels: Int): Map[Vector[Int], Double] =
    transform(CellGrid.fromMap(grid), family, levels).toMap
}
