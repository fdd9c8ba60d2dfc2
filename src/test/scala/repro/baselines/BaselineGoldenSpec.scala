package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.GoldenSpec
import repro.eval.AMI
import repro.harness.Harness
import scala.util.Random

/** Golden outputs of the Table I / Fig. 8 baselines on fixed seeds: the
  * partition hash (`GoldenSpec.hash`) of each method's labels, plus the
  * objective where a method reports one, must repeat exactly. A refactor of
  * a baseline or of a kernel it shares must reproduce every row bit for bit.
  */
class BaselineGoldenSpec extends AnyFunSuite {

  /** `k` Gaussian blobs of `size` points in the unit cube plus `noise`
    * uniform points, with 1-based truth labels (0 = noise).
    */
  private def blobs(k: Int, size: Int, d: Int, sigma: Double, noise: Int,
                    seed: Long): (Array[Array[Double]], Array[Int]) = {
    val rnd = new Random(seed)
    val centers = Array.fill(k)(Array.fill(d)(0.15 + 0.7 * rnd.nextDouble()))
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[Int]
    for (c <- 0 until k; _ <- 0 until size) {
      x += Array.tabulate(d)(j => centers(c)(j) + rnd.nextGaussian() * sigma)
      y += c + 1
    }
    for (_ <- 0 until noise) { x += Array.fill(d)(rnd.nextDouble()); y += 0 }
    (x.result(), y.result())
  }

  private def golden(name: String, expect: Int)(labels: => Array[Int]): Unit =
    test(s"golden: $name") {
      val got = GoldenSpec.hash(labels)
      assert(got == expect, s"$name: got partition hash $got, want $expect")
    }

  private val (x2, y2) = blobs(4, 150, 2, 0.04, 200, 1)
  private val (x5, _) = blobs(3, 120, 5, 0.05, 60, 2)

  test("golden: KMeans (k-means++, 4 restarts) and (random init, 1 restart)") {
    val pp = KMeans.fit(x2, 4)
    val random = KMeans.fit(x5, 3, restarts = 1, init = "random", seed = 49)
    val got = (GoldenSpec.hash(pp.labels), pp.inertia, GoldenSpec.hash(random.labels), random.inertia)
    val want = (-1056225293, 15.117938541488748, 1930768509, 44.721634151817725)
    assert(got == want, s"got $got, want $want")
  }

  test("golden: EMGMM (k-means++) and (random init, 50 iterations)") {
    val pp = EMGMM.fit(x2, 4)
    val random = EMGMM.fit(x5, 3, maxIter = 50, init = "random", seed = 49)
    val got = (GoldenSpec.hash(pp.labels), pp.logLik, GoldenSpec.hash(random.labels), random.logLik)
    val want = (653856991, 768.4956382504577, 211661539, 1424.7591870413487)
    assert(got == want, s"got $got, want $want")
  }

  golden("DBSCAN at eps = 0.03, minPts = 8 (2-D)", -1607766525)(DBSCAN.fit(x2, 0.03, 8))
  golden("DBSCAN at eps = 0.12, minPts = 8 (5-D)", 1486083757)(DBSCAN.fit(x5, 0.12, 8))

  golden("SkinnyDip (2-D)", -1488045419)(SkinnyDip.fit(x2))
  golden("SkinnyDip (5-D)", 1155014695)(SkinnyDip.fit(x5))

  golden("DipMeans (2-D)", 1047360063)(DipMeans.fit(x2))

  golden("RIC (kInit = 8, 2-D)", 1891443701)(RIC.fit(x2, 8))
  golden("RIC (kInit = 6, 5-D)", 856424720)(RIC.fit(x5, 6))

  golden("STSC below its sample threshold (5-D)", -873194335)(STSC.fit(x5.take(300)))
  golden("STSC above its sample threshold (2-D, 800 points)", -1531765223)(STSC.fit(x2))

  test("golden: DipTest on a thinned bimodal sample and a small unimodal one") {
    val rnd = new Random(3)
    val big = Array.tabulate(3000)(i => (if (i % 3 == 0) 2.0 else 0.0) + rnd.nextGaussian() * 0.5)
    val small = Array.fill(60)(rnd.nextGaussian())
    val got = Seq(big, small).map(DipTest.test(_))
    val want = Seq(
      DipTest.Result(0.025466475410314104, 0.0, -0.7290698134907568, 0.2636762116953131),
      DipTest.Result(0.03829080637814436, 0.72, -1.1958407878376085, -0.7049779341711551))
    assert(got == want, s"got $got, want $want")
  }

  test("golden: dbscanBest on its sample path (d = 7, n = 6 200)") {
    val (x, y) = blobs(3, 1600, 7, 0.03, 1400, 4)
    val (labels, score) = Harness.dbscanBest(x, y, Seq(0.08, 0.12),
      score = (t, p) => AMI.ami(t, p))
    val got = (GoldenSpec.hash(labels), score)
    val want = (954844925, 0.9990236058198811)
    assert(got == want, s"got $got, want $want")
  }
}
