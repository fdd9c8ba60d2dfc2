package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ElbowSpec extends AnyFunSuite {

  test("ideal L-curve: threshold cuts between the two levels") {
    val densities = Seq.fill(10)(10.0) ++ Seq.fill(90)(1.0)
    val t = Elbow.threshold(densities)
    assert(t == 5.5)
    assert(densities.count(_ >= t) == 10)
  }

  test("signal/middle/noise three-segment curve: threshold cuts above the noise floor") {
    val rnd = new Random(1)
    val signal = Seq.fill(20)(100.0 + rnd.nextDouble())
    val middle = (0 until 40).map(i => 60.0 - i * 1.2)
    val noise = Seq.fill(800)(2.0 + rnd.nextDouble())
    val t = Elbow.threshold(signal ++ middle ++ noise)
    assert(t > 3.0, s"threshold $t should be above the noise floor")
    assert(t < 100.0, s"threshold $t should not cut into the signal head")
  }

  test("threshold always lies within the observed density range") {
    val rnd = new Random(2)
    val ds = Seq.fill(500)(rnd.nextDouble() * 50)
    val t = Elbow.threshold(ds)
    assert(t >= ds.min && t <= ds.max)
  }

  test("flat curve keeps everything (low-noise failure mode, per §VI)") {
    assert(Elbow.threshold(Seq.fill(50)(7.0)) == 7.0)
  }

  test("tiny inputs keep everything") {
    assert(Elbow.threshold(Seq(5.0, 3.0)) == 3.0)
    assert(Elbow.threshold(Seq(5.0)) == 5.0)
    assert(Elbow.threshold(Nil) == 0.0)
  }

  test("input order does not matter") {
    val rnd = new Random(3)
    val ds = Seq.fill(300)(rnd.nextDouble() * 20)
    assert(Elbow.threshold(ds) == Elbow.threshold(rnd.shuffle(ds)))
  }

  test("extreme noise: threshold separates dense cluster cells from noise cells") {
    // 50 cluster cells at ~40, 5000 noise cells at ~2 (the 80%-noise shape).
    val rnd = new Random(4)
    val cluster = Seq.fill(50)(38.0 + rnd.nextDouble() * 4)
    val noise = Seq.fill(5000)(1.5 + rnd.nextDouble())
    val t = Elbow.threshold(cluster ++ noise)
    assert(t > 2.6 && t <= 42.0, s"got $t")
    assert(cluster.count(_ >= t) > 40, "most cluster cells survive")
    assert(noise.count(_ >= t) < 250, "almost all noise cells are dropped")
  }

  test("long-tailed curve: only the dense head survives the threshold") {
    val ds = Seq.fill(5)(1000.0) ++ Seq.fill(995)(1.0)
    val t = Elbow.threshold(ds)
    assert(ds.count(_ >= t) == 5)
  }
}
