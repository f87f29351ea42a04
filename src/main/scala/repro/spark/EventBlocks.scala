package repro.spark

import java.nio.ByteBuffer

import scala.collection.mutable

import repro.events.Event

/** Events as one compact byte block, so that `toDS` ships one array per
  * slice and `paneResults` shuffles one array per (task, group), instead
  * of serializing each `Event` and its maps.
  *
  * Layout (big-endian): the string dictionary (count, then each string as
  * its length and UTF-16 chars, so every string round-trips exactly), the
  * event count, then per event id, ts, the dictionary indices of type and
  * group, and the `num` entries (count, then key index and value bits) and
  * the `str` entries (count, then key and value indices).
  */
private[spark] object EventBlocks {

  /** `events` as one block, in their order. */
  def encode(events: collection.Seq[Event]): Array[Byte] = {
    val dict = mutable.LinkedHashMap.empty[String, Int]
    def id(s: String): Int = dict.getOrElseUpdate(s, dict.size)
    var bytes = 8L
    events.foreach { e =>
      id(e.typ); id(e.grp)
      e.num.keysIterator.foreach(id)
      e.str.foreach { case (k, v) => id(k); id(v) }
      bytes += 32 + 12L * e.num.size + 8L * e.str.size
    }
    dict.keysIterator.foreach(s => bytes += 4 + 2L * s.length)
    require(bytes <= Int.MaxValue, s"an event block of $bytes bytes does not fit one array")
    val buf = ByteBuffer.allocate(bytes.toInt)
    buf.putInt(dict.size)
    dict.keysIterator.foreach { s =>
      buf.putInt(s.length)
      var i = 0
      while (i < s.length) { buf.putChar(s.charAt(i)); i += 1 }
    }
    buf.putInt(events.size)
    events.foreach { e =>
      buf.putLong(e.id).putLong(e.ts).putInt(dict(e.typ)).putInt(dict(e.grp))
      buf.putInt(e.num.size)
      e.num.foreach { case (k, v) => buf.putInt(dict(k)).putDouble(v) }
      buf.putInt(e.str.size)
      e.str.foreach { case (k, v) => buf.putInt(dict(k)).putInt(dict(v)) }
    }
    buf.array()
  }

  /** The events of `block`, in the order they were encoded. */
  def decode(block: Array[Byte]): Iterator[Event] = {
    val buf = ByteBuffer.wrap(block)
    val dict = Array.fill(buf.getInt()) {
      val cs = new Array[Char](buf.getInt())
      var i = 0
      while (i < cs.length) { cs(i) = buf.getChar(); i += 1 }
      new String(cs)
    }
    Iterator.fill(buf.getInt()) {
      val (id, ts, typ, grp) = (buf.getLong(), buf.getLong(), dict(buf.getInt()), dict(buf.getInt()))
      val num = Map.from(Iterator.fill(buf.getInt())(dict(buf.getInt()) -> buf.getDouble()))
      val str = Map.from(Iterator.fill(buf.getInt())(dict(buf.getInt()) -> dict(buf.getInt())))
      Event(id, ts, typ, grp, num, str)
    }
  }
}
