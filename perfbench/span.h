/// \file span.h
/// \brief In-memory spans for the benchmark's traced runs.
///
/// The traced run wraps each call into a layer's public function in a span
/// (name, start, end, parent, task id). Spans stay in memory until the pass
/// ends; per-name totals and self times (duration minus the time covered by
/// child spans) are computed afterwards. The benchmark drives the layers on
/// one thread, so child spans never overlap.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int task = -1;
  };

  /// Totals per span name.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    long long count = 0;
  };

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int task = -1)
        : tracer_(t), id_(t.begin(std::move(name), task)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Writes one JSON object per span; \p phase tags which tracer it was.
  void write(std::ostream& out, std::string_view phase) const {
    out.precision(9);
    for (const Span& s : spans_) {
      out << "{\"phase\":\"" << phase << "\",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent << ",\"task\":" << s.task << "}\n";
    }
  }

  std::map<std::string, Totals> totals() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      t.total_s += s.end - s.start;
      t.self_s += s.end - s.start - child_time[i];
      ++t.count;
    }
    return out;
  }

 private:
  int begin(std::string name, int task) {
    const int parent = open_.empty() ? -1 : open_.back();
    if (task < 0 && parent >= 0) task = spans_[parent].task;
    spans_.push_back({std::move(name), seconds_since(t0_), 0.0, parent, task});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[id].end = seconds_since(t0_);
    open_.pop_back();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
