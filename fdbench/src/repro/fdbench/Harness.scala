package repro.fdbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.{ExecutionException, Executors, TimeUnit, TimeoutException}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerStageCompleted, StageInfo}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** The pinned SparkSession every workload runs in.
  *
  * `local[K]` uses at most two cores, so that a Spark stage, the driver
  * thread, the collector and the JIT compiler fit in four cores without
  * queueing for them. The data never depends on K: `spark.range` and the
  * coreset shuffle take their partition counts from the two fixed settings
  * below, and `rand(seed)` is drawn per partition.
  */
object Session {
  val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors)
  val Partitions = 8

  def start(workDir: String): SparkSession =
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("fdbench")
      .config("spark.default.parallelism", Partitions.toLong)
      .config("spark.sql.shuffle.partitions", Partitions.toLong)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()
}

/** One closed-loop client. Each request runs on a worker thread and the
  * client waits for it at most `limitMs`: MFD's rounding loop never checks
  * its deadline, so the limit is enforced from outside the program. A
  * request over the limit or one that throws counts as failed; a stuck
  * worker is abandoned (it is a daemon thread) and a fresh one takes over.
  */
final class Client(limitMs: Long, onTimeout: () => Unit) {
  var attempted = 0
  var failed = 0
  private var pool = newPool()

  private def newPool() = Executors.newSingleThreadExecutor { (r: Runnable) =>
    val t = new Thread(r, "fdbench-request"); t.setDaemon(true); t
  }

  /** Runs `body`; returns its value and its latency in ns, or None if it failed. */
  def call[T](body: => T): Option[(T, Long)] = {
    attempted += 1
    val f = pool.submit { () =>
      val t0 = System.nanoTime()
      val r = body
      (r, System.nanoTime() - t0)
    }
    try Some(f.get(limitMs, TimeUnit.MILLISECONDS))
    catch {
      case _: TimeoutException =>
        failed += 1
        Console.err.println(s"[fdbench] request over the ${limitMs} ms limit")
        f.cancel(true); onTimeout(); pool.shutdownNow(); pool = newPool()
        None
      case e: ExecutionException =>
        failed += 1
        Console.err.println(s"[fdbench] request failed: ${e.getCause}")
        None
    }
  }

  def close(): Unit = pool.shutdownNow()
}

/** Per-layer samples recorded by the benchmark around public calls. */
final class Trace {
  private val samples = mutable.LinkedHashMap[String, ArrayBuffer[Double]]()
  /** While set, samples are dropped (warm-up work). */
  var muted = false

  def add(name: String, v: Double): Unit = if (!muted) samples.getOrElseUpdate(name, ArrayBuffer()) += v

  def median(name: String): Double = Stats.median(get(name))

  /** Adds the samples of `other` whose names start with one of `prefixes`. */
  def absorb(other: Trace, prefixes: Seq[String]): Unit =
    for ((name, v) <- other.samples if prefixes.exists(name.startsWith))
      samples.getOrElseUpdate(name, ArrayBuffer()) ++= v

  private def get(name: String): Seq[Double] =
    samples.get(name).filter(_.nonEmpty).getOrElse(sys.error(s"no samples for $name")).toSeq
}

/** Collects the stages of the jobs run under one Spark job group. */
final class StageListener extends SparkListener {
  @volatile private var group: String = ""
  private val jobs = mutable.Set[Int]()
  private val ended = mutable.Set[Int]()
  private val stageIds = mutable.Set[Int]()
  private val stages = ArrayBuffer[StageInfo]()

  def begin(g: String): Unit = synchronized {
    group = g; jobs.clear(); ended.clear(); stageIds.clear(); stages.clear()
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
      jobs += e.jobId; stageIds ++= e.stageIds
    }
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobs.contains(e.jobId)) ended += e.jobId
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (stageIds.contains(e.stageInfo.stageId)) stages += e.stageInfo
  }

  /** The completed stages of the group, once the listener bus has seen every job end. */
  def await(): Seq[StageInfo] = {
    val until = System.nanoTime() + 10000000000L
    def done = synchronized(jobs.nonEmpty && jobs == ended)
    while (!done && System.nanoTime() < until) Thread.sleep(2)
    synchronized { require(done, s"stage events of $group did not arrive"); stages.toList }
  }
}

/** JVM-wide counters: collector time and count, and the peak heap in use. */
object Jvm {
  private def gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def gcMillis: Long = gcs.map(_.getCollectionTime).sum
  def gcCount: Long = gcs.map(_.getCollectionCount).sum
  def resetPeak(): Unit = heapPools.foreach(_.resetPeakUsage())
  def peakHeapMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}

object Stats {
  def median(v: Seq[Double]): Double = {
    require(v.nonEmpty, "median of no values")
    val s = v.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** Progress lines on stderr, stamped with the seconds since the JVM started. */
object Log {
  private val t0 = ManagementFactory.getRuntimeMXBean.getStartTime
  def apply(msg: String): Unit =
    Console.err.println(f"[fdbench] ${(System.currentTimeMillis() - t0) / 1000.0}%6.1f s  $msg")
}

/** One metric of the final report. */
final case class Metric(name: String, unit: String, value: Double)

object Report {
  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    metrics.foreach { m =>
      require(java.lang.Double.isFinite(m.value), s"metric ${m.name} is not finite: ${m.value}")
    }
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
