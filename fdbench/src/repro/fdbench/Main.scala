package repro.fdbench

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>`.
  *
  * Prints progress on stderr and, as the last line of stdout, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`: the
  * end-to-end metrics, or with `--trace 1` the per-layer ones.
  */
object Main {

  private def usage(msg: String): Nothing = {
    Console.err.println(s"fdbench: $msg")
    Console.err.println(s"workloads: ${Workloads.all.map(_.name).mkString(", ")}")
    sys.exit(2)
  }

  def parse(args: Array[String]): Opts = {
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    val m = args.grouped(2).map { case Array(k, v) => k -> v }.toMap
    def get(k: String) = m.getOrElse(k, usage(s"missing $k"))
    def num[T](k: String, f: String => T) = try f(get(k)) catch { case _: NumberFormatException => usage(s"bad $k") }
    val trace = get("--trace")
    if (trace != "0" && trace != "1") usage("--trace is 0 or 1")
    val seconds = num("--seconds", _.toInt)
    if (seconds < 1) usage("--seconds must be at least 1")
    Opts(get("--workload"), num("--seed", _.toLong), seconds, trace == "1", get("--work"))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = Workloads.all.find(_.name == opts.workload).getOrElse(usage(s"unknown workload ${opts.workload}"))
    val spark = Session.start(opts.workDir)
    val c = new Ctx(opts, spark, w.limitMs)
    Log(s"session up, ${opts.workload}")
    val outcome = w.run(c)
    Log("checked")
    val metrics =
      if (opts.trace) Layers.metrics.map { case (name, unit) => Metric(name, unit, c.trace.median(name)) }
      else outcome.metrics
    val line = Report.json(c.checks.ok, c.client.attempted, c.client.failed, metrics)
    c.client.close()
    spark.stop()
    println(line)
    Console.out.flush()
    // Ends request threads abandoned after a time-out, if any.
    sys.exit(0)
  }
}
