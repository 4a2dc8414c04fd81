package repro.perfbench

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

/** Command line of one benchmark run:
  *
  * {{{
  * Main --workload <sgpb-m2m|lsqb-cyclic> --seed <n> --seconds <s>
  *      --trace <0|1> [--out <dir>] [--git-sha <sha>]
  * }}}
  *
  * Prints each metric as `name value unit`, then one JSON line with the
  * run's metadata, then the result as the last line. The full record,
  * with per-query times and the trace's spans, goes to `<out>`. Exits
  * non-zero when a result disagrees with the oracle.
  */
object Main {

  /** Partitions of the generators and of every shuffle, fixed so that
    * the seeded generators give the same rows on any core count.
    */
  val Partitions = 2

  /** Far above any query's time at the benchmark's scale (at most a few
    * seconds), so whether a run times out does not depend on noise.
    */
  val TimeoutSeconds = 60.0

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, usage(s"missing --$k"))
    val workload = need("workload")
    if (!Suites.names.contains(workload)) usage(s"unknown workload $workload")
    val opts = Opts(workload, need("seed").toLong, need("seconds").toInt,
      need("trace") match { case "0" => false; case "1" => true; case t => usage(s"--trace $t") })
    val out = Paths.get(kv.getOrElse("out", ".bench_build/perfbench/runs"))
    val cores = math.min(2, Runtime.getRuntime.availableProcessors)

    val spark = session(cores, out.resolveSibling("spark-local").toString)
    val engine = new Engine(spark, TimeoutSeconds)
    val record =
      try new Bench(spark, opts, engine).run()
      finally { engine.close(); spark.stop() }

    val meta = Json.obj(
      "git_sha" -> kv.getOrElse("git-sha", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors, "master" -> s"local[$cores]",
      "partitions" -> Partitions, "duckdb_threads" -> 1,
      "workload" -> opts.workload, "seed" -> opts.seed, "seconds" -> opts.seconds,
      "trace" -> opts.trace, "setups" -> opts.setups, "warmups" -> opts.warmups, "min_reps" -> opts.minReps,
      "reps" -> record.details("reps"), "timeout_s" -> TimeoutSeconds,
      "scale" -> record.details("scale"), "fingerprints" -> record.details("fingerprints"))
    Files.createDirectories(out)
    val file = out.resolve(s"${opts.workload}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}.json")
    Files.writeString(file, Json(Json.obj("meta" -> meta, "metrics" -> record.metrics.map(m =>
      Json.obj("name" -> m.name, "value" -> m.value, "unit" -> m.unit)), "details" -> record.details)))

    record.details("failures") match {
      case fs: Iterable[_] => fs.foreach(f => Console.err.println(s"FAILED ${Json(f)}"))
      case _ =>
    }
    record.metrics.foreach(m => println(f"${m.name}%-34s ${m.value}%.6f ${m.unit}"))
    println(Json(Json.obj("meta" -> meta, "record" -> file.toString)))
    println(record.resultLine)
    System.out.flush()
    if (!record.correct) sys.exit(1)
  }

  private def usage(why: String): Nothing = {
    Console.err.println(s"$why\nusage: Main --workload <${Suites.names.mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--git-sha <sha>]")
    sys.exit(2)
  }

  /** The benchmark's own session: local mode on at most 2 cores (one per
    * pinned partition, so no stage runs more tasks at once), pinned
    * partition counts, and no broadcast joins, so that the small inputs
    * take the same shuffle-join plans as large ones. Adaptive execution is
    * off: at this scale its re-planning at every stage is a fixed cost
    * that would swamp the plans being compared.
    */
  def session(cores: Int, localDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.default.parallelism", Partitions)
      .config("spark.sql.shuffle.partitions", Partitions)
      .config("spark.sql.leafNodeDefaultParallelism", Partitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", Paths.get(localDir).resolveSibling("warehouse").toString)
      .getOrCreate()
}
