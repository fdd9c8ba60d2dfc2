package repro.data

import scala.util.Random

/** Synthetic analogues of the nine UCI datasets of Table I.
  *
  * The container is offline, so each dataset is replaced by a deterministic
  * generator matching its (n, d, #classes, class balance) and tuned to a
  * comparable *difficulty*. Real tabular data is not an isotropic Gaussian
  * mixture — it has low intrinsic dimension and anisotropic, overlapping
  * classes — so most analogues are **low-rank latent mixtures**: classes
  * live in a 2–3-dimensional latent space (as blobs or arcs), then get
  * embedded into the ambient d dimensions through a random linear map plus
  * small isotropic noise.
  * This keeps EM/k-means honest (their diagonal/spherical models are
  * misspecified), gives grid/density methods contiguous structure to find,
  * and leaves axis projections multimodal only where separation is real.
  * See DESIGN.md §3 for the substitution ledger. Labels are 1-based and
  * every point has a class (like the UCI data, there is no noise label).
  */
object UciLike {

  final case class Dataset(name: String, x: Array[Array[Double]], y: Array[Int]) {
    def n: Int = x.length
    def d: Int = if (x.isEmpty) 0 else x(0).length
    def k: Int = y.distinct.length
  }

  /** Gaussian mixture with class means drawn from N(0, sep² I) — kept for
    * the genuinely blob-like datasets (Motor) and axis-aligned cases.
    */
  def gaussMix(name: String, sizes: Array[Int], d: Int, sep: Double, sigma: Double,
               seed: Long, axisAligned: Boolean = false): Dataset = {
    val rnd = new Random(seed)
    val k = sizes.length
    val means = Array.tabulate(k) { c =>
      if (axisAligned)
        // Separation only along the first two axes — SkinnyDip-friendly.
        Array.tabulate(d)(j => if (j < 2) c * sep else 0.0)
      else Array.fill(d)(rnd.nextGaussian() * sep)
    }
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]
    for (c <- 0 until k; _ <- 0 until sizes(c)) {
      pts += Array.tabulate(d)(j => means(c)(j) + rnd.nextGaussian() * sigma)
      lbl += c + 1
    }
    Dataset(name, pts.result(), lbl.result())
  }

  private val Eps = 0.03 // sd of the isotropic noise added after embedding

  /** Low-rank latent mixture (see object doc).
    *
    * @param latentD intrinsic dimension
    * @param sep     scale of class-mean placement in latent space
    * @param sigma   isotropic latent within-class scale
    * @param shape   per-class latent shape: "blob" (spherical Gaussian) or
    *                "arc" (a circular banana of radius ≈ sep — non-convex,
    *                the regime where centroid/model-based methods break and
    *                grid/density methods shine)
    * @param skew    >0 applies exp(skew·x) per coordinate (monotone — keeps
    *                dip/grid structure, misspecifies Gaussian models)
    * @param bgFrac  fraction of points drawn as uniform latent background
    *                clutter, labeled by the nearest class mean — real
    *                tabular data's "between" points; they reward methods
    *                that find dense cores and assign the rest by proximity
    * @param means   optional fixed latent means (rows = classes)
    */
  def latentMix(name: String, sizes: Array[Int], d: Int, latentD: Int, sep: Double,
                sigma: Double, seed: Long, shape: String = "blob", skew: Double = 0.0,
                bgFrac: Double = 0.0, means: Option[Array[Array[Double]]] = None): Dataset = {
    val rnd = new Random(seed)
    val k = sizes.length
    val mu = means.getOrElse {
      val m = Array.fill(k)(Array.fill(latentD)(rnd.nextGaussian() * sep))
      // Arcs interleave only if classes share the non-arc latent dims.
      if (shape == "arc") m.foreach(r => for (l <- 2 until latentD) r(l) *= 0.3)
      m
    }
    // k·latentD draws that once made the removed "stripe" shape's
    // directions. They stay so that every dataset's random stream is
    // unchanged, the benchmark's `derm33d_60k` input included.
    for (_ <- 0 until k * latentD) rnd.nextGaussian()
    val arcPhase = Array.fill(k)(rnd.nextDouble() * 2 * math.Pi)
    val arcSpan = Array.fill(k)(math.Pi * (0.7 + 0.6 * rnd.nextDouble()))
    val arcRadius = Array.fill(k)(sep * (0.8 + 0.8 * rnd.nextDouble()))
    // Random embedding R^latentD -> R^d with roughly unit-norm rows.
    val w = Array.fill(d)(Array.fill(latentD)(rnd.nextGaussian() / math.sqrt(latentD.toDouble)))
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]
    def embed(z: Array[Double]): Array[Double] =
      Array.tabulate(d) { j =>
        val raw = (0 until latentD).map(l => w(j)(l) * z(l)).sum + rnd.nextGaussian() * Eps
        // A monotone exp transform mimics real skewed tabular marginals:
        // it preserves bimodality (dip) and grid/density structure but
        // misspecifies Gaussian-model methods, like real data does.
        if (skew > 0) math.exp(skew * raw) else raw
      }
    val coreSizes = sizes.map(s => math.max(1, math.round(s * (1 - bgFrac)).toInt))
    for (c <- 0 until k; _ <- 0 until coreSizes(c)) {
      val z = shape match {
        case "arc" =>
          val t = arcPhase(c) + rnd.nextDouble() * arcSpan(c)
          Array.tabulate(latentD) { l =>
            val onArc = l match {
              case 0 => arcRadius(c) * math.cos(t)
              case 1 => arcRadius(c) * math.sin(t)
              case _ => 0.0
            }
            mu(c)(l) + onArc + rnd.nextGaussian() * sigma
          }
        case _ =>
          Array.tabulate(latentD)(l => mu(c)(l) + rnd.nextGaussian() * sigma)
      }
      pts += embed(z)
      lbl += c + 1
    }
    // Background clutter over the latent bounding box, labeled by the
    // nearest class mean.
    val nBg = sizes.sum - coreSizes.sum
    if (nBg > 0) {
      val reach = sep * 2.2 + sigma * 3
      for (_ <- 0 until nBg) {
        val z = Array.fill(latentD)((rnd.nextDouble() * 2 - 1) * reach)
        val c = (0 until k).minBy(ci =>
          (0 until latentD).map(l => (z(l) - mu(ci)(l)) * (z(l) - mu(ci)(l))).sum)
        pts += embed(z)
        lbl += c + 1
      }
    }
    Dataset(name, pts.result(), lbl.result())
  }

  /** Seeds: 3 balanced wheat varieties, correlated geometric attributes —
    * rank-2 structure with real overlap (centroid methods do best, as in
    * the paper's row).
    */
  def seeds(seed: Long = 11): Dataset =
    latentMix("Seeds", Array(70, 70, 70), 7, latentD = 2, sep = 0.85, sigma = 0.55, seed,
      skew = 0.5, bgFrac = 0.15)

  /** Iris: one separated species, two overlapping, rank-2. */
  def iris(seed: Long = 12): Dataset =
    latentMix("Iris", Array(50, 50, 50), 4, latentD = 2, sep = 1.0, sigma = 0.5, seed = seed,
      bgFrac = 0.12, means = Some(Array(Array(-2.4, 0.0), Array(0.9, 0.0), Array(1.8, 0.5))))

  /** Glass: 6 imbalanced, heavily overlapping arc-shaped classes in rank-2
    * with 30 % background clutter — no attribute separates the classes
    * (Table II) and convex-model methods fragment the arcs.
    */
  def glass(seed: Long = 13): Dataset =
    latentMix("Glass", Array(70, 76, 17, 13, 9, 29), 9, latentD = 2, sep = 1.2,
      sigma = 0.22, seed = seed, shape = "arc", bgFrac = 0.3)

  /** DUMDH: 4 imbalanced arc-shaped classes in rank-3, 30 % clutter. */
  def dumdh(seed: Long = 14): Dataset =
    latentMix("DUMDH", Array(300, 250, 200, 119), 13, latentD = 3, sep = 1.1,
      sigma = 0.24, seed = seed, shape = "arc", bgFrac = 0.3)

  /** HTRU2: 2 heavily imbalanced overlapping classes (pulsar candidates) —
    * every method scores low.
    */
  def htru2(seed: Long = 15): Dataset =
    latentMix("HTRU2", Array(16259, 1639), 8, latentD = 2, sep = 1.1, sigma = 0.75, seed,
      skew = 0.7, means = Some(Array(Array(0.0, 0.0), Array(2.4, 0.0))))

  /** Dermatology: 6 fairly separable but anisotropic classes in rank-3. */
  def dermatology(seed: Long = 16): Dataset =
    latentMix("Derm.", Array(112, 61, 72, 49, 52, 20), 33, latentD = 3, sep = 1.4,
      sigma = 0.25, seed = seed, shape = "arc", bgFrac = 0.25)

  /** Motor: 3 well-separated classes in 3-D — the easy dataset where most
    * methods reach AMI 1.0.
    */
  def motor(seed: Long = 17): Dataset =
    gaussMix("Motor", Array(31, 32, 31), 3, sep = 9.0, sigma = 1.0, seed)

  /** Wholesale: 2 classes in 8-D separated along few axes (axis-aligned,
    * unimodal projections — the SkinnyDip-friendly case).
    */
  def wholesale(seed: Long = 18): Dataset =
    gaussMix("Whol.", Array(298, 142), 8, sep = 3.4, sigma = 1.0, seed, axisAligned = true)

  /** Roadmap: the 2-D North-Jutland road network, downscaled (DESIGN.md §3)
    * — dense "city" blobs of *unequal size and spread* plus road polylines
    * between them and countryside sprinkle. Ground truth assigns every
    * point to its nearest city, so methods that find the dense cities and
    * assign the rest by proximity (AdaWave's nearest-centroid step) win;
    * equal-variance centroid models over/under-split the unequal cities.
    */
  def roadmap(n: Int = 20000, seed: Long = 19): Dataset = {
    val rnd = new Random(seed)
    val cities = Array(
      (0.15, 0.80), (0.45, 0.85), (0.80, 0.75), (0.25, 0.45),
      (0.60, 0.50), (0.85, 0.30), (0.40, 0.15), (0.10, 0.20))
    val weights = Array(0.30, 0.20, 0.14, 0.10, 0.08, 0.07, 0.06, 0.05)
    val spreads = Array(0.050, 0.040, 0.030, 0.022, 0.015, 0.013, 0.012, 0.010)
    // Cities are elongated (built along coasts/roads) and of unequal size
    // and spread.
    val angles = Array.fill(cities.length)(rnd.nextDouble() * math.Pi)
    val nCity = (n * 0.35).toInt
    val nRoad = (n * 0.40).toInt
    val nSprinkle = n - nCity - nRoad
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]
    def nearestCity(p: Array[Double]): Int =
      cities.indices.minBy { c =>
        val dx = p(0) - cities(c)._1
        val dy = p(1) - cities(c)._2
        dx * dx + dy * dy
      }
    for (_ <- 0 until nCity) {
      val u = rnd.nextDouble()
      var c = 0
      var acc = weights(0)
      while (acc < u && c < cities.length - 1) { c += 1; acc += weights(c) }
      val (cx, cy) = cities(c)
      val major = rnd.nextGaussian() * spreads(c) * 1.8
      val minor = rnd.nextGaussian() * spreads(c) * 0.6
      pts += Array(cx + major * math.cos(angles(c)) - minor * math.sin(angles(c)),
                   cy + major * math.sin(angles(c)) + minor * math.cos(angles(c)))
      lbl += c + 1 // ground truth = generating city
    }
    for (_ <- 0 until nRoad) {
      val a = cities(rnd.nextInt(cities.length))
      val b = cities(rnd.nextInt(cities.length))
      val t = rnd.nextDouble()
      val p = Array(a._1 + t * (b._1 - a._1) + rnd.nextGaussian() * 0.006,
                    a._2 + t * (b._2 - a._2) + rnd.nextGaussian() * 0.006)
      pts += p
      lbl += 1 + nearestCity(p)
    }
    for (_ <- 0 until nSprinkle) {
      val p = Array(rnd.nextDouble(), rnd.nextDouble())
      pts += p
      lbl += 1 + nearestCity(p)
    }
    Dataset("Roadmap", pts.result(), lbl.result())
  }

  /** Table I's nine datasets, in the paper's column order. */
  def all(roadmapN: Int = 20000): Seq[Dataset] = Seq(
    seeds(), roadmap(roadmapN), iris(), glass(), dumdh(),
    htru2(), dermatology(), motor(), wholesale())

  /** Min-max scale each dimension to [0,1] — the footing on which the
    * paper's ε-grids and our grid quantization operate.
    */
  def unitScale(x: Array[Array[Double]]): Array[Array[Double]] = {
    if (x.isEmpty) return x
    val d = x(0).length
    val mins = Array.tabulate(d)(j => x.map(_(j)).min)
    val maxs = Array.tabulate(d)(j => x.map(_(j)).max)
    x.map(p => Array.tabulate(d) { j =>
      val w = maxs(j) - mins(j)
      if (w > 0) (p(j) - mins(j)) / w else 0.5
    })
  }
}
