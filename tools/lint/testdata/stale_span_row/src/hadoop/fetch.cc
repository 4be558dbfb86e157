// Fixture: the taxonomy table names two spans no ScopedSpan emits.
void instrumented() {
  obs::ScopedSpan fetch("segment_fetch", "shuffle");
  obs::ScopedSpan forward("stride_forward", "transform");
}
