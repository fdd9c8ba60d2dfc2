package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.AMI
import scala.util.Random

class SkinnyDipSpec extends AnyFunSuite {

  test("uniDip isolates two well-separated 1-D bumps") {
    val rnd = new Random(1)
    val x = (Array.fill(400)(rnd.nextGaussian() * 0.05) ++
             Array.fill(400)(1.0 + rnd.nextGaussian() * 0.05) ++
             Array.fill(200)(rnd.nextDouble() * 1.4 - 0.2)).sorted
    val ivs = SkinnyDip.uniDip(x)
    assert(ivs.size >= 2, s"got $ivs")
    assert(ivs.exists { case (lo, hi) => lo <= 0.0 && hi >= 0.0 && hi < 0.5 })
    assert(ivs.exists { case (lo, hi) => lo > 0.5 && lo <= 1.0 && hi >= 1.0 })
  }

  test("uniDip on a unimodal bump with uniform tails sheds the tails") {
    val rnd = new Random(2)
    val x = (Array.fill(600)(0.5 + rnd.nextGaussian() * 0.03) ++
             Array.fill(300)(rnd.nextDouble())).sorted
    val ivs = SkinnyDip.uniDip(x)
    assert(ivs.nonEmpty)
    val (lo, hi) = ivs.minBy { case (l, h) => math.abs((l + h) / 2 - 0.5) }
    assert(hi - lo < 0.5, s"core ($lo,$hi) should be much narrower than (0,1)")
    assert(lo < 0.5 && hi > 0.5)
  }

  test("two axis-aligned clusters in 30% noise are recovered") {
    val rnd = new Random(3)
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[Int]
    for (_ <- 0 until 500) { x += Array(0.2 + rnd.nextGaussian() * 0.03, 0.2 + rnd.nextGaussian() * 0.03); y += 1 }
    for (_ <- 0 until 500) { x += Array(0.8 + rnd.nextGaussian() * 0.03, 0.8 + rnd.nextGaussian() * 0.03); y += 2 }
    for (_ <- 0 until 400) { x += Array(rnd.nextDouble(), rnd.nextDouble()); y += 0 }
    val pred = SkinnyDip.fit(x.result())
    val ami = AMI.amiNonNoise(y.result(), pred, 0)
    assert(ami > 0.55, s"AMI $ami")
  }

  test("a 2x2 grid of clusters yields about four clusters") {
    val rnd = new Random(4)
    val x = Array.newBuilder[Array[Double]]
    for (cx <- Seq(0.2, 0.8); cy <- Seq(0.2, 0.8); _ <- 0 until 400)
      x += Array(cx + rnd.nextGaussian() * 0.03, cy + rnd.nextGaussian() * 0.03)
    val pred = SkinnyDip.fit(x.result())
    val k = pred.distinct.count(_ != 0)
    assert(k >= 3 && k <= 6, s"found $k clusters")
  }

  test("ring clusters break SkinnyDip (the paper's core argument)") {
    val rnd = new Random(5)
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[Int]
    for (_ <- 0 until 1000) {
      val th = rnd.nextDouble() * 2 * math.Pi
      val r = 0.3 + rnd.nextGaussian() * 0.01
      x += Array(0.5 + r * math.cos(th), 0.5 + r * math.sin(th)); y += 1
    }
    for (_ <- 0 until 1000) {
      val th = rnd.nextDouble() * 2 * math.Pi
      val r = 0.15 + rnd.nextGaussian() * 0.01
      x += Array(0.5 + r * math.cos(th), 0.5 + r * math.sin(th)); y += 2
    }
    val pred = SkinnyDip.fit(x.result())
    val ami = AMI.ami(y.result(), pred)
    assert(ami < 0.6, s"rings should confuse SkinnyDip, got AMI $ami")
  }

  test("points outside every modal hyperrectangle are noise") {
    val rnd = new Random(6)
    val x = Array.newBuilder[Array[Double]]
    for (_ <- 0 until 600) x += Array(0.5 + rnd.nextGaussian() * 0.02, 0.5 + rnd.nextGaussian() * 0.02)
    for (_ <- 0 until 200) x += Array(rnd.nextDouble(), rnd.nextDouble())
    val pts = x.result()
    val pred = SkinnyDip.fit(pts)
    val far = pts.indices.filter(i => math.hypot(pts(i)(0) - 0.5, pts(i)(1) - 0.5) > 0.3)
    assert(far.count(pred(_) == SkinnyDip.Noise) > far.size / 2)
  }

  test("deterministic") {
    val rnd = new Random(7)
    val pts = Array.fill(500)(Array(rnd.nextDouble(), rnd.nextDouble()))
    assert(SkinnyDip.fit(pts).sameElements(SkinnyDip.fit(pts)))
  }

  test("empty input") {
    assert(SkinnyDip.fit(Array.empty[Array[Double]]).isEmpty)
  }
}
