package repro.fdbench

import repro.core.{MFD, MFDSpark}
import repro.data.Datasets
import repro.range.QFairDiv
import repro.stream.StreamMFD

/** The class-loading training run of the build: every public entry point
  * the workloads call, on small copies of their datasets, so that the JVM
  * can archive the classes they load (`-XX:ArchiveClassesAtExit`).
  */
object Train {
  def main(args: Array[String]): Unit = {
    val spark = Session.start(args(0))
    val cfg = MFD.Config(eps = Bench.Eps, g = Bench.G)
    for (spec <- Seq(Datasets.census, Datasets.popsim, Datasets.beer, Datasets.popsim1M)) {
      val k = Datasets.equalK(spec.m, 2 * spec.m)
      val ds = Bench.persisted(spark, spec, 5000.0 / spec.nPaper)
      ds.groupBy("color").count().collect()
      MFDSpark.run(ds, k, cfg)
      val pts = Bench.byId(ds)
      val s = new StreamMFD(k, cfg)
      pts.foreach(s.insert)
      s.postProcess()
      val q = new QFairDiv(pts, 2 * spec.m)
      val rects = new Layers.Rects(pts, 1L)
      for (_ <- 0 until 5) { val (lo, hi) = rects.next(); q.query(lo, hi, k, cfg) }
      ds.unpersist(true)
    }
    spark.stop()
  }
}
