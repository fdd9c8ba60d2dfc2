package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
import org.apache.spark.sql.execution.WholeStageCodegenExec
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.data.{ClusterData, UciLike}

/** The row passes over 33-D data must compile to methods the JIT compiles.
  *
  * HotSpot leaves any method over 8 000 bytes of bytecode interpreted
  * (`-XX:+DontCompileHugeMethods`, `HugeMethodLimit`). Whole-stage codegen
  * puts a stage into one Java method, so every stage of the four plans that
  * touch every row of a 33-D frame must stay under that size.
  */
class CodegenSizeSpec extends SparkSpec {

  private val HugeMethodLimit = 8000

  /** Largest generated method over every whole-stage-codegen subtree of the
    * plan. Adaptive execution is off while planning so that the codegen
    * stages exist before anything runs.
    */
  private def maxMethodSize(df: => DataFrame): Int = {
    val key = "spark.sql.adaptive.enabled"
    val old = spark.conf.get(key)
    spark.conf.set(key, "false")
    try {
      val stages = df.queryExecution.executedPlan.collect { case w: WholeStageCodegenExec => w }
      assert(stages.nonEmpty, "plan has no whole-stage codegen")
      stages.map(w => CodeGenerator.compile(w.doCodeGen()._2)._2.maxMethodCodeSize).max
    } finally spark.conf.set(key, old)
  }

  private lazy val x = UciLike.unitScale(UciLike.dermatology().x)
  private def frame = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
  private val cols = (0 until 33).map(i => s"f$i")

  private def check(plan: String)(df: => DataFrame): Unit =
    test(s"the $plan plan on d = 33 compiles to methods under $HugeMethodLimit bytes") {
      assert(x(0).length == 33)
      val size = maxMethodSize(df)
      assert(size < HugeMethodLimit, s"$plan: largest generated method is $size bytes")
    }

  check("density")(Grid.quantize(frame, cols, 64).points.groupBy(col(Grid.CellCol)).count())
  check("label")(AdaWave.clusterAuto(frame, cols).points)
  check("label + nearest-centroid")(AdaWave.clusterAuto(frame, cols, assignNoise = true).points)
  check("centroid")(AdaWave.centroidRows(AdaWave.clusterAuto(frame, cols).points, cols))
}
