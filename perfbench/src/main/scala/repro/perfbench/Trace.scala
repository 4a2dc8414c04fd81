package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.concurrent.TrieMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark work attributed to one span: jobs launched, tasks run and shuffle
  * bytes written while the span was the innermost open one.
  */
final class SparkWork {
  @volatile var jobs = 0L
  @volatile var tasks = 0L
  @volatile var shuffleWriteBytes = 0L
}

/** Attributes Spark jobs to spans through a local property that the tracer
  * sets on the calling thread: a job carries the properties of the thread
  * that submitted it, and a task is attributed through its stage.
  */
final class SparkCounters extends SparkListener {
  private val stageSpan = TrieMap.empty[Int, Int]
  private val work = TrieMap.empty[Int, SparkWork]

  def of(span: Int): SparkWork = work.getOrElseUpdate(span, new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.SpanKey))).foreach { s =>
      val span = s.toInt
      of(span).jobs += 1
      e.stageIds.foreach(stageSpan(_) = span)
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    stageSpan.get(e.stageId).foreach { span =>
      val w = of(span)
      w.tasks += 1
      if (e.taskMetrics != null)
        w.shuffleWriteBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
}

object SparkCounters {
  val SpanKey = "perfbench.span"
}

/** One call into a layer. `parent` is -1 for a query's root span. */
final case class Span(id: Int, parent: Int, name: String, query: String, method: String,
                      rep: Int, start: Long, end: Long, gcNanos: Long) {
  def nanos: Long = end - start
}

/** Records spans in memory, one per call, nested by call structure. Spark
  * jobs launched inside a span are tagged with its id (see
  * [[SparkCounters]]).
  */
final class Tracer(sc: SparkContext) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private var ctx = ("", "", 0)

  /** Sets the query, method and repetition that new spans belong to. */
  def at(query: String, method: String, rep: Int): Unit = ctx = (query, method, rep)

  def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    val outerProp = sc.getLocalProperty(SparkCounters.SpanKey)
    open = id :: open
    sc.setLocalProperty(SparkCounters.SpanKey, id.toString)
    val gc0 = Tracer.gcNanos()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      done += Span(id, parent, name, ctx._1, ctx._2, ctx._3, t0, t1, Tracer.gcNanos() - gc0)
      open = open.tail
      sc.setLocalProperty(SparkCounters.SpanKey, outerProp)
    }
  }

  def spans: Vector[Span] = done.sortBy(_.id).toVector
}

object Tracer {
  def gcNanos(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum * 1000000L

  /** A span's self time: its duration minus the time its children cover.
    * Children of one span run one after another, so they never overlap.
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val childTime = spans.filter(_.parent >= 0).groupMapReduce(_.parent)(_.nanos)(_ + _)
    spans.map(s => s.id -> (s.nanos - childTime.getOrElse(s.id, 0L))).toMap
  }

  /** Problems with the span tree: children outside their parent's interval
    * or query, overlapping siblings, dangling parents.
    */
  def nestingErrors(spans: Seq[Span]): Vector[String] = {
    val byId = spans.map(s => s.id -> s).toMap
    val errs = Vector.newBuilder[String]
    spans.filter(_.parent >= 0).foreach { s =>
      byId.get(s.parent) match {
        case None => errs += s"span ${s.id} (${s.name}) has unknown parent ${s.parent}"
        case Some(p) =>
          if (s.start < p.start || s.end > p.end)
            errs += s"span ${s.id} (${s.name}) lies outside its parent ${p.id} (${p.name})"
          if ((s.query, s.method, s.rep) != (p.query, p.method, p.rep))
            errs += s"span ${s.id} (${s.name}) belongs to another query than its parent"
      }
    }
    spans.groupBy(_.parent).foreach { case (_, sib) =>
      sib.sortBy(_.start).sliding(2).foreach {
        case Seq(a, b) if b.start < a.end => errs += s"spans ${a.id} and ${b.id} overlap"
        case _ =>
      }
    }
    errs.result()
  }

  def toJson(spans: Seq[Span], work: Int => SparkWork): Vector[collection.Map[String, Any]] =
    spans.map { s =>
      val w = work(s.id)
      Json.obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "query" -> s.query,
        "method" -> s.method, "rep" -> s.rep, "start_ns" -> s.start, "end_ns" -> s.end,
        "jobs" -> w.jobs, "tasks" -> w.tasks, "shuffle_write_bytes" -> w.shuffleWriteBytes,
        "gc_ns" -> s.gcNanos)
    }.toVector
}
