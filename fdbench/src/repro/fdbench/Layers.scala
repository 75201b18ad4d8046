package repro.fdbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{CoresetSpark, Gonzalez, LabeledPoint, MFD}
import repro.geo.KdTree
import repro.range.QFairDiv
import repro.stream.StreamMFD
import scala.collection.mutable.ArrayBuffer

/** Calls into one layer of the program through its public entry points,
  * timed from outside. The traced run of a workload records every layer on
  * its request path, and measures each layer off that path once on the
  * workload's own data, with the parameters of the workload that uses it.
  */
object Layers {

  /** Every per-layer metric of the traced run, with its unit. */
  val metrics: Seq[(String, String)] = Seq(
    "data.generate_ms" -> "ms", "data.rows" -> "count",
    "coreset.ms" -> "ms", "coreset.points" -> "points", "coreset.map_stage_ms" -> "ms",
    "coreset.merge_stage_ms" -> "ms", "coreset.shuffle_write_bytes" -> "bytes",
    "coreset.tasks" -> "count", "coreset.driver_ms" -> "ms",
    "gonzalez.upper_bound_ms" -> "ms",
    "kdtree.build_ms" -> "ms", "kdtree.canon_ms" -> "ms", "kdtree.canon_nodes_mean" -> "nodes",
    "mfd.ms" -> "ms", "mfd.mwu_iterations" -> "count", "mfd.gamma_steps" -> "count",
    "mfd.gamma" -> "distance", "mfd.selected" -> "points", "mfd.ns_per_iteration" -> "ns",
    "stream.insert_ns" -> "ns", "stream.post_ms" -> "ms", "stream.stored" -> "points",
    "range.build_ms" -> "ms", "range.coreset_ms" -> "ms", "range.coreset_points" -> "points",
    "range.mfd_ms" -> "ms",
    "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count", "jvm.heap_used_peak_mb" -> "MB",
    "trace.request_ms_p50" -> "ms"
  )

  /** Parameters of the two workloads whose layers are probed elsewhere. */
  val StreamK = 50
  val StreamEvery = 5000
  val RangeKMax = 20
  val RangeK = 20

  /** `CoresetSpark.distributed` under its own job group, so the listener
    * can attribute its stages. Call [[coresetStages]] afterwards.
    */
  def coreset(spark: SparkSession, ds: Dataset[LabeledPoint], kPrime: Int, group: String): Array[LabeledPoint] = {
    spark.sparkContext.setJobGroup(group, "fdbench coreset", interruptOnCancel = true)
    try CoresetSpark.distributed(ds, kPrime)
    finally spark.sparkContext.clearJobGroup()
  }

  /** Records the coreset layer from its wall time and its completed stages. */
  def coresetStages(t: Trace, listener: StageListener, ms: Double, points: Int): Unit = {
    val stages = listener.await()
    def dur(s: org.apache.spark.scheduler.StageInfo) =
      (for (a <- s.submissionTime; b <- s.completionTime) yield (b - a).toDouble).getOrElse(0.0)
    def written(s: org.apache.spark.scheduler.StageInfo) = s.taskMetrics.shuffleWriteMetrics.bytesWritten
    val (map, merge) = stages.partition(written(_) > 0)
    t.add("coreset.ms", ms)
    t.add("coreset.points", points)
    t.add("coreset.map_stage_ms", map.map(dur).sum)
    t.add("coreset.merge_stage_ms", merge.map(dur).sum)
    t.add("coreset.shuffle_write_bytes", map.map(written).sum.toDouble)
    t.add("coreset.tasks", stages.map(_.numTasks).sum)
    t.add("coreset.driver_ms", ms - stages.map(dur).sum)
  }

  /** The MFD layer of one solve, plus the parts MFD.run is built from,
    * called again on the same input: the colorblind Gonzalez upper bound,
    * the KD-tree build, and the canonical nodes of every input point at the
    * returned gamma's radius.
    */
  def solver(t: Trace, input: Array[LabeledPoint], k: Map[Int, Int], eps: Double,
             res: MFD.Result, mfdMs: Double): Unit = {
    val kTotal = k.values.sum
    val ub = msOf(Gonzalez.diversityUpperBound(input, math.max(2, kTotal)))
    val (tree, build) = timed(KdTree.build(input))
    val r = res.gamma / (2 * (1 + eps))
    var nodes = 0L
    val canon = msOf(input.foreach(p => nodes += tree.canonicalNodes(p.x, r, eps).length))
    t.add("gonzalez.upper_bound_ms", ub)
    t.add("kdtree.build_ms", build)
    t.add("kdtree.canon_ms", canon)
    t.add("kdtree.canon_nodes_mean", nodes.toDouble / input.length)
    t.add("mfd.ms", mfdMs)
    t.add("mfd.mwu_iterations", res.mwuIterations)
    t.add("mfd.gamma_steps", res.gammaSteps)
    t.add("mfd.gamma", res.gamma)
    t.add("mfd.selected", res.selected.length)
    if (res.mwuIterations > 0)
      t.add("mfd.ns_per_iteration", (mfdMs - ub - build - canon) * 1e6 / res.mwuIterations)
  }

  /** `k` clipped to the points of each color that `pts` holds; colors it lacks are dropped. */
  def attainable(pts: Array[LabeledPoint], k: Map[Int, Int]): Map[Int, Int] = {
    val have = pts.groupBy(_.color).map { case (c, ps) => c -> ps.length }
    k.flatMap { case (c, kc) => have.get(c).map(h => c -> math.min(kc, h)) }
  }

  /** One pass of a stream through a fresh StreamMFD, with `postProcess`
    * after every `every` inserts and at the end.
    */
  final case class Pass(posts: Seq[(MFD.Result, Long)], synopsis: Array[LabeledPoint],
                        stored: Int, elapsedNs: Long)

  def streamPass(pts: Array[LabeledPoint], k: Map[Int, Int], cfg: MFD.Config, every: Int,
                 client: Client, trace: Option[Trace]): Pass = {
    val t0 = System.nanoTime()
    val s = new StreamMFD(k, cfg)
    val posts = ArrayBuffer[(MFD.Result, Long)]()
    var i = 0
    while (i < pts.length) {
      val batch = math.min(every, pts.length - i)
      val b0 = System.nanoTime()
      val end = i + batch
      while (i < end) { s.insert(pts(i)); i += 1 }
      val insertNs = System.nanoTime() - b0
      val out = client.call(s.postProcess())
      out.foreach(posts += _)
      for (t <- trace; (res, ns) <- out) {
        t.add("stream.insert_ns", insertNs.toDouble / batch)
        t.add("stream.post_ms", ns / 1e6)
        val syn = s.synopsis
        solver(t, syn, attainable(syn, k), cfg.eps, res, ns / 1e6)
      }
    }
    val elapsed = System.nanoTime() - t0
    trace.foreach(_.add("stream.stored", s.storedCount))
    Pass(posts.toSeq, s.synopsis, s.storedCount, elapsed)
  }

  def rangeBuild(pts: Array[LabeledPoint]): QFairDiv = new QFairDiv(pts, RangeKMax)

  /** Query rectangles around random input points. Each side is a share of
    * the input's extent in its dimension, log-uniform in [2%, 50%] and
    * stratified: query i draws from slice i mod 16 of that log range, so
    * every run asks the same mix of sizes and only the places differ.
    */
  final class Rects(pts: Array[LabeledPoint], seed: Long) {
    private val rnd = new java.util.Random(seed)
    private val d = pts(0).x.length
    private val lo = Array.tabulate(d)(j => pts.iterator.map(_.x(j)).min)
    private val hi = Array.tabulate(d)(j => pts.iterator.map(_.x(j)).max)
    private val strata = 16
    private var i = 0

    def next(): (Array[Double], Array[Double]) = {
      val c = pts(rnd.nextInt(pts.length)).x
      val u = (i % strata + rnd.nextDouble()) / strata
      i += 1
      val share = math.exp(math.log(0.02) + u * (math.log(0.5) - math.log(0.02)))
      val half = Array.tabulate(d)(j => (hi(j) - lo(j)) * share / 2)
      (Array.tabulate(d)(j => c(j) - half(j)), Array.tabulate(d)(j => c(j) + half(j)))
    }
  }

  /** Layer split of one answered range query: `rangeCoreset` timed on its
    * own, the rest of the query's time counted as MFD.
    */
  def rangeQuery(t: Trace, q: QFairDiv, lo: Array[Double], hi: Array[Double], k: Map[Int, Int],
                 eps: Double, res: MFD.Result, queryMs: Double): Unit = {
    val (core, ms) = timed(q.rangeCoreset(lo, hi, k.values.sum))
    t.add("range.coreset_ms", ms)
    t.add("range.coreset_points", core.length)
    t.add("range.mfd_ms", queryMs - ms)
    solver(t, core, attainable(core, k), eps, res, queryMs - ms)
  }

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  def msOf(body: => Unit): Double = timed(body)._2
}
