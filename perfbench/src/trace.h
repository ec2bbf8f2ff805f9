// The benchmark's own span recorder. Spans are opened around calls into
// the library's public functions (never inside the library), kept in
// memory, and written out as Chrome trace_event JSON when the run ends.
// A span's layer is its name up to the first '.', so "index.query" belongs
// to the index layer and "bench.setup_replay" to the benchmark itself.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  struct SpanRecord {
    const char* name;
    int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// RAII span: the parent is whichever span of the same tracer is open
  /// when this one opens. Spans must close in reverse order of opening.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t id_;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// For each `parent_name` span, the summed durations of its direct
  /// children (only those called `child_name`, if given), in seconds.
  std::vector<double> ChildSums(const std::string& parent_name,
                                const std::string& child_name = "") const;

  /// Self time per layer in seconds: each span's duration minus the time
  /// its direct children cover, summed over the spans of the layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes the spans as Chrome trace_event JSON (loadable in Perfetto),
  /// with `notes` under "otherData". Returns false if the file cannot be
  /// written.
  bool WriteChromeJson(const std::string& path,
                       const std::vector<std::string>& notes) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
