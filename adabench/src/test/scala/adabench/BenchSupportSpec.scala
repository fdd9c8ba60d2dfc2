package adabench

import java.io.File
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

class BenchSupportSpec extends AnyFunSuite {

  test("rep seeds are a deterministic function of (workload seed, rep index)") {
    assert(Seeds.rep(7L, 3) == Seeds.rep(7L, 3))
    assert(Seeds.call(Seeds.rep(7L, 3), 2) == Seeds.call(Seeds.rep(7L, 3), 2))
    val seeds = for (s <- 0L until 20L; r <- -2 until 20) yield Seeds.rep(s, r)
    assert(seeds.distinct.size == seeds.size, "distinct (seed, rep) pairs collide")
  }

  test("a rep's inputs repeat exactly for the same seed and differ between reps") {
    val w = Workloads.sweep2dFig8
    val a = w.generate(Seeds.rep(5L, 1))
    val b = w.generate(Seeds.rep(5L, 1))
    val c = w.generate(Seeds.rep(5L, 2))
    assert(a.map(_.x.map(_.toSeq).toSeq) == b.map(_.x.map(_.toSeq).toSeq))
    assert(a.map(_.truth.toSeq) == b.map(_.truth.toSeq))
    assert(a.head.x.head.toSeq != c.head.x.head.toSeq)
    assert(a.map(_.x.length).sum == 190250)
  }

  test("metric names use only [A-Za-z0-9_.-] and are unique") {
    val names = (Metric.EndToEnd ++ Metric.PerLayer).map(_._1)
    names.foreach(n => assert(n.matches(Metric.NamePattern), n))
    assert(names.distinct.size == names.size)
  }

  test("the reported metrics are the ones BENCHMARK.json declares") {
    val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    def declared(key: String) =
      spec.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
    assert(declared("end_to_end") == Metric.EndToEnd)
    assert(declared("per_layer") == Metric.PerLayer)
    val workloads = spec.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
    assert(workloads.nonEmpty && workloads.forall(n => Workloads.all.exists(_.name == n)), workloads)
  }

  test("the output check accepts a well-formed label array") {
    assert(Check.labels(Array(0, 1, 2, 2, 0), 5, 2).isEmpty)
  }

  test("the output check rejects a truncated array") {
    assert(Check.labels(Array(0, 1, 2), 5, 2).exists(_.contains("expected 5 labels")))
    assert(Check.labels(null, 5, 2).nonEmpty)
  }

  test("the output check rejects out-of-range ids") {
    assert(Check.labels(Array(0, 1, 3), 3, 2).exists(_.contains("outside 0..2")))
    assert(Check.labels(Array(0, -1, 1), 3, 2).nonEmpty)
  }

  test("the output check rejects a gap in the cluster ids") {
    assert(Check.clusterIds(Array(0, 1, 2, 2), noiseAssigned = false).isEmpty)
    assert(Check.clusterIds(Array(0, 0), noiseAssigned = true).isEmpty)
    assert(Check.clusterIds(Array(0, 1, 3), noiseAssigned = false).exists(_.contains("cluster id 2")))
  }

  test("the output check rejects noise left over after noise assignment") {
    assert(Check.clusterIds(Array(1, 2, 2, 1), noiseAssigned = true).isEmpty)
    assert(Check.clusterIds(Array(1, 0, 2), noiseAssigned = true).exists(_.contains("label 0")))
  }

  test("points of one grid cell must share a label") {
    val x = Array(Array(0.0, 0.0), Array(0.01, 0.01), Array(1.0, 1.0))
    assert(Check.cellConsistent(x, Array(1, 1, 2), bins = 4).isEmpty)
    assert(Check.cellConsistent(x, Array(1, 2, 2), bins = 4).exists(_.contains("row 1")))
  }

  test("label hashes depend on every id and its position") {
    assert(Check.hash(Array(1, 2, 3)) == Check.hash(Array(1, 2, 3)))
    assert(Check.hash(Array(1, 2, 3)) != Check.hash(Array(1, 3, 2)))
    assert(Check.hash(Array(1, 2, 3)) != Check.hash(Array(1, 2)))
  }

  test("stage names map to the program's layers") {
    assert(Layers.of("collect at Grid.scala:55") == Layers.Grid)
    assert(Layers.of("head at Grid.scala:38") == Layers.Grid)
    assert(Layers.of("collect at Harness.scala:33") == Layers.Harness)
    assert(Layers.of("collect at AdaWave.scala:163") == Layers.AdaWave)
    assert(Layers.of("$anonfun$withThreadLocalCaptured$2 at CompletableFuture.java:1768") == Layers.Other)
    assert(Layers.of("collect at NotGrid.scala:1") == Layers.Other)
    assert(Layers.of(null) == Layers.Other)
  }
}
