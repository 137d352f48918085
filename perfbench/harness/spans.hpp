// Span recorder for the benchmark harness's own calls into the simulator.
//
// Every public call the harness makes is wrapped in a Scope; an enabled
// recorder keeps (run id, name, parent, start, end) in memory and writes the
// spans out as JSON lines when the benchmark ends.  A disabled recorder makes
// every Scope a no-op, which is how the untraced runs that produce the
// end-to-end metrics stay free of tracing work.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time: host work done, whatever else shares the machine.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  std::string run;
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
};

class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Spans opened from now on belong to `run` (one workload repetition).
  void begin_run(std::string run) { run_ = std::move(run); }

  class Scope {
   public:
    Scope(Spans* owner, const char* name) : owner_(owner) {
      if (owner_ != nullptr) index_ = owner_->open(name);
    }
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    std::size_t index_ = 0;
  };

  Scope scope(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of spans called `name` in run `run`.
  double total(const std::string& run, const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.run == run && s.name == name) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  /// One JSON object per line; returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"run\": \"%s\", \"id\": %d, \"parent\": %d, \"name\": "
                   "\"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                   s.run.c_str(), s.id, s.parent, s.name.c_str(), s.start_s,
                   s.end_s);
    }
    return std::fclose(f) == 0;
  }

 private:
  double now_s() const { return seconds_between(origin_, Clock::now()); }

  std::size_t open(const char* name) {
    Span s;
    s.run = run_;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : spans_[stack_.back()].id;
    s.start_s = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_s = now_s();
    stack_.pop_back();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::string run_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

}  // namespace perfbench
