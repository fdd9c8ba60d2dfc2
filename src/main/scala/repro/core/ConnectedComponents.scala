package repro.core

/** Step 4 of AdaWave (§IV-D): find connected components among the cells
  * that survived threshold filtering. Each component is a cluster.
  *
  * Adjacency is face adjacency (±1 along a single dimension, 2d
  * neighbours) by default; for low-dimensional data the full Moore
  * neighbourhood (3^d − 1 offsets, 8-connectivity in 2-D) can be used so
  * that diagonally-touching thin structures (rings) stay connected.
  */
object ConnectedComponents {

  /** Labels cells with component ids 1..k (0 is reserved for noise): the
    * same cells, each with its component's id as value. Ids run in
    * descending component size (cell count), ties broken by the smallest
    * cell, so they do not depend on the order of the rows.
    */
  def label(cells: CellGrid, diagonal: Boolean): CellGrid = {
    val d = cells.d
    val offsets =
      if (diagonal) mooreOffsets(d)
      else Array.tabulate(2 * d)(o => Array.tabulate(d)(i => if (i == o / 2) 1 - 2 * (o % 2) else 0))
    // Breadth-first search from each unlabelled cell in coordinate order, so
    // components are numbered in the order of their smallest cells. `queue`
    // holds each component's rows in turn.
    val comp = Array.fill(cells.size)(-1)
    val queue = new Array[Int](cells.size)
    val nb = new Array[Int](d)
    var (k, tail) = (0, 0)
    def reach(j: Int): Unit = { comp(j) = k; queue(tail) = j; tail += 1 }
    for (seed <- (0 until cells.size).sortWith(cells.compareRows(_, _) < 0) if comp(seed) < 0) {
      var head = tail
      reach(seed)
      while (head < tail) {
        for (off <- offsets) {
          for (i <- 0 until d) nb(i) = cells.coord(queue(head), i) + off(i)
          val j = cells.indexOf(nb, 0)
          if (j >= 0 && comp(j) < 0) reach(j)
        }
        head += 1
      }
      k += 1
    }
    val size = new Array[Int](k)
    comp.foreach(size(_) += 1)
    val id = new Array[Double](k)
    (0 until k).sortBy(-size(_)).zipWithIndex.foreach { case (c, rank) => id(c) = rank + 1 }
    cells.withValues(comp.map(id(_)))
  }

  /** [[label]] on boxed cells. A replay shim (ROADMAP item 1). */
  def label(cells: Set[Vector[Int]], diagonal: Boolean): Map[Vector[Int], Int] =
    label(CellGrid.fromMap(cells.map(_ -> 0.0)), diagonal).toMap.map { case (c, id) => c -> id.toInt }

  /** All of {-1,0,1}^d except the origin. Only sensible for small d. */
  def mooreOffsets(d: Int): Array[Array[Int]] = {
    require(d <= 8, s"Moore neighbourhood explodes for d=$d; use face adjacency")
    def rec(i: Int): Seq[Array[Int]] =
      if (i == 0) Seq(Array.emptyIntArray)
      else for (tail <- rec(i - 1); h <- Seq(-1, 0, 1)) yield h +: tail
    rec(d).filter(_.exists(_ != 0)).toArray
  }
}
