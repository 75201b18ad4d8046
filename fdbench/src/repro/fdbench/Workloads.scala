package repro.fdbench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.{LabeledPoint, MFD, MFDSpark}
import repro.data.Datasets
import scala.collection.mutable.ArrayBuffer

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: String)

/** State of one run: the session, the client, the checks and the trace. */
final class Ctx(val opts: Opts, val spark: SparkSession, limitMs: Long) {
  val checks = new Checks
  val trace = new Trace
  val listener = new StageListener
  spark.sparkContext.addSparkListener(listener)
  val client = new Client(limitMs, () => spark.sparkContext.cancelAllJobs())

  def traced: Boolean = opts.trace

  /** MFD settings of every request: the paper's §6 values, a seed per request. */
  def cfg(i: Int): MFD.Config = MFD.Config(eps = Bench.Eps, g = Bench.G, seed = Bench.mix(opts.seed, i))

  /** Runs a set-up once to warm the session, untimed and untraced, then
    * [[Bench.SetupReps]] more times, and keeps the last one; returns it with
    * the median time of the timed set-ups in seconds.
    */
  def setUp[T](make: => T)(drop: T => Unit): (T, Double) = {
    Log("set-up")
    val secs = ArrayBuffer[Double]()
    trace.muted = true
    var last = make
    trace.muted = false
    for (_ <- 1 to Bench.SetupReps) {
      drop(last)
      val (v, ms) = Layers.timed(make)
      secs += ms / 1000; last = v
    }
    Log(f"set-up done, median ${Stats.median(secs.toSeq)}%.3f s")
    (last, Stats.median(secs.toSeq))
  }

  /** The timed closed loop: runs whole rounds until they have taken
    * `--seconds`; `round(i)` returns its own wall time in ns.
    */
  def loop(round: Int => Long): Long = {
    Log("timed loop")
    val gc0 = Jvm.gcMillis; val gcn0 = Jvm.gcCount
    Jvm.resetPeak()
    val budget = opts.seconds * 1000000000L
    var spent = 0L
    var i = 0
    while (spent < budget) { spent += round(i); i += 1 }
    trace.add("jvm.gc_ms", (Jvm.gcMillis - gc0).toDouble)
    trace.add("jvm.gc_count", (Jvm.gcCount - gcn0).toDouble)
    trace.add("jvm.heap_used_peak_mb", Jvm.peakHeapMb)
    Log(s"timed loop done, $i rounds")
    spent
  }

  /** Copies the samples of the layers named by `prefixes` out of a probe's trace. */
  def probe(prefixes: String*)(body: Trace => Unit): Unit = {
    Log(s"probe ${prefixes.mkString(", ")}")
    val t = new Trace
    body(t)
    trace.absorb(t, prefixes)
  }
}

/** What a workload measured; the end-to-end metrics are computed from it. */
final case class Outcome(setupS: Double, latMs: Seq[Double], elapsedNs: Long,
                         diversity: Seq[Double], covered: Seq[Double], stored: Seq[Double]) {
  def metrics: Seq[Metric] = {
    val finite = diversity.filter(d => !d.isInfinite)
    Seq(
      Metric("setup_s", "s", setupS),
      Metric("request_ms_p50", "ms", Stats.median(latMs)),
      Metric("requests_per_s", "1/s", latMs.length / (elapsedNs / 1e9)),
      Metric("diversity_mean", "distance", finite.sum / finite.length),
      Metric("covered_mean", "points", covered.sum / covered.length),
      Metric("stored_points", "points", stored.sum / stored.length)
    )
  }
}

object Bench {
  val Eps = 0.3
  val G = 0.3
  val SetupReps = 5

  /** A request seed from the run seed (SplitMix64 finaliser). */
  def mix(seed: Long, i: Int): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + i
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def persisted(spark: SparkSession, spec: Datasets.Spec, scale: Double): Dataset[LabeledPoint] = {
    val ds = Datasets.points(spark, spec, scale).persist(StorageLevel.MEMORY_ONLY)
    ds.count()
    ds
  }

  /** The points of a dataset on the driver, in id order; `pts(i)` has id `i`. */
  def byId(ds: Dataset[LabeledPoint]): Array[LabeledPoint] = {
    val pts = ds.collect()
    java.util.Arrays.sort(pts, (a: LabeledPoint, b: LabeledPoint) => java.lang.Long.compare(a.id, b.id))
    require(pts.indices.forall(i => pts(i).id == i), "ids are not 0..n-1")
    pts
  }
}

sealed abstract class Workload(val name: String, val limitMs: Long) {
  def run(c: Ctx): Outcome

  /** Output checks shared by every workload, for one answer over `input`. */
  protected def checkAnswer(c: Ctx, what: String, res: MFD.Result, input: Array[LabeledPoint],
                            greedy: Array[Double]): Unit = {
    c.checks.members(what, res.selected, input)
    c.checks.diversity(what, res.selected, res.diversity)
    c.checks.separation(what, res.diversity, res.gamma, Bench.Eps)
    c.checks.upperBound(what, res.diversity, res.selected.length, greedy)
  }

  /** Probes the range layer on `pts` (used off its own workload). */
  protected def rangeProbe(c: Ctx, pts: Array[LabeledPoint], m: Int): Unit =
    c.probe("range.") { t =>
      val (q, ms) = Layers.timed(Layers.rangeBuild(pts))
      t.add("range.build_ms", ms)
      val rects = new Layers.Rects(pts, c.opts.seed)
      val k = Datasets.equalK(m, Layers.RangeK)
      for (i <- 0 until 20) {
        val (lo, hi) = rects.next()
        c.client.call(q.query(lo, hi, k, c.cfg(i))).foreach { case (res, ns) =>
          Layers.rangeQuery(t, q, lo, hi, k, Bench.Eps, res, ns / 1e6)
        }
      }
    }

  /** Probes the stream layer on `pts` in id order (used off its own workload),
    * with five posts over the stream.
    */
  protected def streamProbe(c: Ctx, pts: Array[LabeledPoint], m: Int): Unit =
    c.probe("stream.") { t =>
      Layers.streamPass(pts, Datasets.equalK(m, Layers.StreamK), c.cfg(0),
        math.max(Layers.StreamEvery, pts.length / 5), c.client, Some(t))
    }

  /** Probes the Spark coreset layer on a persisted copy of the dataset. */
  protected def coresetProbe(c: Ctx, spec: Datasets.Spec, scale: Double, kPrime: Int): Unit =
    c.probe("coreset.") { t =>
      val ds = Bench.persisted(c.spark, spec, scale)
      for (i <- 0 until 3) {
        val g = s"fdbench-probe-$i"
        c.listener.begin(g)
        val (core, ms) = Layers.timed(Layers.coreset(c.spark, ds, kPrime, g))
        Layers.coresetStages(t, c.listener, ms, core.length)
      }
      ds.unpersist(true)
    }
}

/** Repeated `MFDSpark.run` on a persisted dataset, a new MFD seed per request. */
final class SolveWorkload(name: String, spec: Datasets.Spec, scale: Double, k: Int, warmups: Int)
    extends Workload(name, limitMs = 60000) {

  def run(c: Ctx): Outcome = {
    val spark = c.spark
    val kMap = Datasets.equalK(spec.m, k)

    val (ds, setupS) = c.setUp {
      val (ds, ms) = Layers.timed(Bench.persisted(spark, spec, scale))
      c.trace.add("data.generate_ms", ms)
      ds
    }(_.unpersist(true))

    // The benchmark's own view of the input, outside any timing.
    val input = Bench.byId(ds)
    c.trace.add("data.rows", input.length)
    val perColor = ds.groupBy("color").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val greedy = Checks.greedyPrefix(input, k)
    val coresetSize = perColor.values.map(math.min(_, k.toLong)).sum

    for (i <- 1 to warmups) c.client.call(MFDSpark.run(ds, kMap, c.cfg(-100 - i)))

    val results = ArrayBuffer[(MFD.Result, Int)]()
    val lat = ArrayBuffer[Double]()
    val elapsed = c.loop { i =>
      val t0 = System.nanoTime()
      if (!c.traced)
        c.client.call(MFDSpark.run(ds, kMap, c.cfg(i))).foreach { case (t, ns) =>
          lat += ns / 1e6; results += (t.result -> t.coresetSize)
        }
      else {
        val g = s"fdbench-$i"
        c.listener.begin(g)
        val out = c.client.call {
          val (core, cms) = Layers.timed(Layers.coreset(spark, ds, k, g))
          val (res, mms) = Layers.timed(MFD.run(core, kMap, c.cfg(i)))
          (core, cms, res, mms)
        }
        out.foreach { case ((core, cms, res, mms), ns) =>
          lat += ns / 1e6; results += (res -> core.length)
          Layers.coresetStages(c.trace, c.listener, cms, core.length)
          Layers.solver(c.trace, core, kMap, Bench.Eps, res, mms)
          c.checks.members(s"$name coreset $i", core, input)
          val got = core.groupBy(_.color).map { case (col, ps) => col -> ps.length.toLong }
          perColor.foreach { case (col, n) =>
            c.checks.expect(got.getOrElse(col, 0L) == math.min(n, k.toLong),
              s"$name coreset $i: color $col has ${got.getOrElse(col, 0L)} points, expected min($k, $n)")
          }
        }
      }
      System.nanoTime() - t0
    }
    if (c.traced) {
      c.trace.add("trace.request_ms_p50", Stats.median(lat.toSeq))
      streamProbe(c, input, spec.m)
      rangeProbe(c, input, spec.m)
    }

    results.zipWithIndex.foreach { case ((res, size), i) =>
      checkAnswer(c, s"$name request $i", res, input, greedy)
      c.checks.expect(size == coresetSize, s"$name request $i: coreset of $size points, expected $coresetSize")
    }
    Outcome(setupS, lat.toSeq, elapsed,
      results.map(_._1.diversity).toSeq,
      results.map(r => Checks.covered(r._1.selected, kMap).toDouble).toSeq,
      results.map(_._2.toDouble).toSeq)
  }
}

/** StreamMFD fed the whole dataset in id order, `postProcess` after every
  * `every` inserts. A round is one pass over the stream with a new seed;
  * a request is one `postProcess`.
  */
final class StreamWorkload(name: String, spec: Datasets.Spec, scale: Double, k: Int, every: Int, warmups: Int)
    extends Workload(name, limitMs = 10000) {

  def run(c: Ctx): Outcome = {
    val kMap = Datasets.equalK(spec.m, k)

    val (pts, setupS) = c.setUp {
      val (pts, ms) = Layers.timed(Bench.byId(Datasets.points(c.spark, spec, scale)))
      c.trace.add("data.generate_ms", ms)
      pts
    }(_ => ())
    c.trace.add("data.rows", pts.length)
    val greedy = Checks.greedyPrefix(pts, k)

    for (i <- 1 to warmups) Layers.streamPass(pts, kMap, c.cfg(-100 - i), every, c.client, None)

    val passes = ArrayBuffer[Layers.Pass]()
    val elapsed = c.loop { i =>
      val p = Layers.streamPass(pts, kMap, c.cfg(i), every, c.client, Option.when(c.traced)(c.trace))
      passes += p
      p.elapsedNs
    }
    val lat = passes.flatMap(_.posts.map(_._2 / 1e6)).toSeq
    if (c.traced) {
      c.trace.add("trace.request_ms_p50", Stats.median(lat))
      coresetProbe(c, spec, scale, k)
      rangeProbe(c, pts, spec.m)
    }

    for ((p, i) <- passes.zipWithIndex) {
      c.checks.members(s"$name synopsis $i", p.synopsis, pts)
      c.checks.expect(p.stored == p.synopsis.length, s"$name pass $i: storedCount ${p.stored} != synopsis size")
      p.synopsis.groupBy(_.color).foreach { case (col, ps) =>
        c.checks.expect(ps.length <= 3 * k, s"$name synopsis $i: ${ps.length} points of color $col > 3k")
      }
      for (((res, _), j) <- p.posts.zipWithIndex) checkAnswer(c, s"$name pass $i post $j", res, pts, greedy)
    }
    val answers = passes.flatMap(_.posts.map(_._1)).toSeq
    Outcome(setupS, lat, elapsed,
      answers.map(_.diversity),
      answers.map(r => Checks.covered(r.selected, kMap).toDouble),
      passes.map(_.stored.toDouble).toSeq)
  }
}

/** A QFairDiv index built once, then a closed loop of seeded rectangles. */
final class RangeWorkload(name: String, spec: Datasets.Spec, scale: Double, warmups: Int)
    extends Workload(name, limitMs = 10000) {

  def run(c: Ctx): Outcome = {
    val kMap = Datasets.equalK(spec.m, Layers.RangeK)
    val kTotal = kMap.values.sum

    val ((pts, index), setupS) = c.setUp {
      val (pts, gen) = Layers.timed(Bench.byId(Datasets.points(c.spark, spec, scale)))
      val (index, build) = Layers.timed(Layers.rangeBuild(pts))
      c.trace.add("data.generate_ms", gen)
      c.trace.add("range.build_ms", build)
      (pts, index)
    }(_ => ())
    c.trace.add("data.rows", pts.length)

    val warm = new Layers.Rects(pts, c.opts.seed ^ 0x5bd1e995L)
    for (i <- 1 to warmups) {
      val (lo, hi) = warm.next()
      c.client.call(index.query(lo, hi, kMap, c.cfg(-100 - i)))
    }

    val rects = new Layers.Rects(pts, c.opts.seed)
    val answers = ArrayBuffer[(Array[Double], Array[Double], MFD.Result)]()
    val lat = ArrayBuffer[Double]()
    val elapsed = c.loop { i =>
      val t0 = System.nanoTime()
      val (lo, hi) = rects.next()
      c.client.call(index.query(lo, hi, kMap, c.cfg(i))).foreach { case (res, ns) =>
        lat += ns / 1e6; answers += ((lo, hi, res))
        if (c.traced) Layers.rangeQuery(c.trace, index, lo, hi, kMap, Bench.Eps, res, ns / 1e6)
      }
      System.nanoTime() - t0
    }
    if (c.traced) {
      c.trace.add("trace.request_ms_p50", Stats.median(lat.toSeq))
      coresetProbe(c, spec, scale, kTotal)
      streamProbe(c, pts, spec.m)
    }

    // Against a brute-force scan of P∩R: answers lie inside R, and the
    // range coreset holds min(kTotal, |P∩R(c)|) points of each color c.
    Log(s"checking ${answers.length} answers")
    val d = pts(0).x.length
    val xs = pts.flatMap(_.x)
    def scan(lo: Array[Double], hi: Array[Double]): Array[LabeledPoint] = {
      val out = ArrayBuffer[LabeledPoint]()
      var i = 0
      while (i < pts.length) {
        var j = 0
        while (j < d && xs(i * d + j) >= lo(j) && xs(i * d + j) <= hi(j)) j += 1
        if (j == d) out += pts(i)
        i += 1
      }
      out.toArray
    }
    val covered = ArrayBuffer[Double]()
    val stored = ArrayBuffer[Double]()
    for (((lo, hi, res), i) <- answers.zipWithIndex) {
      val what = s"$name query $i"
      val inside = scan(lo, hi)
      val have = inside.groupBy(_.color).map { case (col, ps) => col -> ps.length }
      val clipped = kMap.flatMap { case (col, kc) => have.get(col).map(h => col -> math.min(kc, h)) }
      res.selected.foreach { p =>
        c.checks.expect(p.x.indices.forall(j => p.x(j) >= lo(j) && p.x(j) <= hi(j)), s"$what: point ${p.id} outside R")
      }
      val core = index.rangeCoreset(lo, hi, kTotal)
      val got = core.groupBy(_.color).map { case (col, ps) => col -> ps.length }
      c.checks.expect(got.keySet == have.keySet && have.forall { case (col, h) => got(col) == math.min(kTotal, h) },
        s"$what: range coreset counts $got, brute-force counts $have")
      checkAnswer(c, what, res, pts, Checks.greedyPrefix(inside, math.min(kTotal, res.selected.length)))
      covered += Checks.covered(res.selected, clipped)
      stored += core.length
    }
    Outcome(setupS, lat.toSeq, elapsed, answers.map(_._3.diversity).toSeq, covered.toSeq, stored.toSeq)
  }
}

object Workloads {
  /** The first two are the workloads of BENCHMARK.json; the range workload
    * runs only when named (fdbench/README.md says why).
    */
  val all: Seq[Workload] = Seq(
    new SolveWorkload("census-k100-solve", Datasets.census, scale = 0.1, k = 100, warmups = 6),
    new StreamWorkload("beer-stream-k50", Datasets.beer, scale = 0.1, k = Layers.StreamK, every = Layers.StreamEvery,
      warmups = 5),
    new RangeWorkload("popsim1m-range-k20", Datasets.popsim1M, scale = 0.1, warmups = 400)
  )
}
