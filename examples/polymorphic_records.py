#!/usr/bin/env python3
"""Inlining a polymorphic private-data field: the Richards scenario.

Each task subclass stores a different record type behind one ``priv``
field — ``void*`` in the C++ original, so *impossible* to declare inline
there.  The optimizer splits the Task class per subclass (class cloning)
and inlines each record independently, which is the paper's flagship
"better than C++" example.

Run:  python examples/polymorphic_records.py
"""

from repro import CompileConfig, Session

SOURCE = """
class TimerRec {
  var period; var remaining;
  def init(period) { this.period = period; this.remaining = period; }
  def tick() {
    this.remaining = this.remaining - 1;
    if (this.remaining == 0) { this.remaining = this.period; return 1; }
    return 0;
  }
}
class CounterRec {
  var count;
  def init() { this.count = 0; }
  def tick() { this.count = this.count + 1; return 0; }
}
class LoggerRec {
  var lines; var last;
  def init() { this.lines = 0; this.last = 0; }
  def note(v) { this.lines = this.lines + 1; this.last = v; }
}

class Task {
  var id;
  var priv;     // void* in C++: a different record per subclass
  def init(id, priv) { this.id = id; this.priv = priv; }
}
class TimerTask : Task {
  def step(now) { return this.priv.tick(); }
}
class CounterTask : Task {
  def step(now) { return this.priv.tick(); }
}
class LoggerTask : Task {
  def step(now) { this.priv.note(now); return 0; }
}

def main() {
  var tasks = array(3);
  tasks[0] = new TimerTask(0, new TimerRec(7));
  tasks[1] = new CounterTask(1, new CounterRec());
  tasks[2] = new LoggerTask(2, new LoggerRec());
  var fired = 0;
  for (var now = 0; now < 100; now = now + 1) {
    for (var t = 0; t < 3; t = t + 1) {
      fired = fired + tasks[t].step(now);
    }
  }
  print("fired", fired);
}
"""


def main() -> None:
    session = Session(SOURCE, path="polymorphic_records.icc")
    base = session.run("plain")
    report = session.optimize(CompileConfig(inline=True))
    optimized = session.run("inline")
    assert optimized.output == base.output

    print("output:", base.output[0])
    print()
    print("decisions:")
    for candidate in report.plan.candidates.values():
        verdict = "inlined" if candidate.accepted else f"reference ({candidate.reject_reason})"
        print(f"  {candidate.describe():22s} {verdict}")
    print()
    print("class variants created (one Task layout per record type):")
    for name, cls in sorted(report.program.classes.items()):
        if cls.source_name in ("Task", "TimerTask", "CounterTask", "LoggerTask") \
                and name != cls.source_name:
            print(f"  {name:18s} fields = {cls.fields}")
    print()
    print(
        f"heap reads: {base.stats.heap_reads} -> {optimized.stats.heap_reads}  "
        f"(each priv access is one dereference shorter)"
    )
    print(f"speedup: {base.stats.cycles() / optimized.stats.cycles():.2f}x")


if __name__ == "__main__":
    main()
