#include "trace.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  const int64_t parent = tracer_->open_.empty()
                             ? kNoParent
                             : static_cast<int64_t>(tracer_->open_.back());
  id_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, parent, Clock::now(), {}});
  tracer_->open_.push_back(id_);
}

Tracer::Span::~Span() {
  tracer_->spans_[id_].end = Clock::now();
  COHERE_CHECK(!tracer_->open_.empty() && tracer_->open_.back() == id_);
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(SecondsBetween(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::ChildSums(const std::string& parent_name,
                                      const std::string& child_name) const {
  std::map<int64_t, double> sums;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (parent_name == spans_[i].name) sums[static_cast<int64_t>(i)] = 0.0;
  }
  for (const SpanRecord& s : spans_) {
    auto it = sums.find(s.parent);
    if (it != sums.end() && (child_name.empty() || child_name == s.name)) {
      it->second += SecondsBetween(s.start, s.end);
    }
  }
  std::vector<double> out;
  for (const auto& [id, sum] : sums) out.push_back(sum);
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  // Children of one span run one after another on the client thread, so
  // the part of the parent they cover is the sum of their durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != kNoParent) {
      covered[static_cast<size_t>(s.parent)] += SecondsBetween(s.start, s.end);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[LayerOf(s.name)] += SecondsBetween(s.start, s.end) - covered[i];
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::vector<std::string>& notes) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld}}%s\n",
                 s.name, LayerOf(s.name).c_str(),
                 SecondsBetween(origin, s.start) * 1e6,
                 SecondsBetween(s.start, s.end) * 1e6, i,
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"otherData\": {\"report\": [");
  for (size_t i = 0; i < notes.size(); ++i) {
    // Notes are plain ASCII text written by the benchmark itself.
    std::fprintf(f, "%s\n  \"%s\"", i == 0 ? "" : ",", notes[i].c_str());
  }
  std::fprintf(f, "]}}\n");
  return std::fclose(f) == 0;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
