package repro.perfbench

/** Minimal JSON writer for the benchmark's records: maps (key order kept),
  * sequences, strings, numbers, booleans and null.
  */
object Json {
  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float             => apply(f.toDouble)
    case n: Number            => n.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.iterator.map(apply).mkString("[", ", ", "]")
    case o: Option[_]         => o.fold("null")(apply)
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }

  /** An ordered map literal: `Json.obj("a" -> 1, "b" -> 2)`. */
  def obj(kv: (String, Any)*): collection.Map[String, Any] =
    collection.mutable.LinkedHashMap(kv: _*)
}
