#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<SpanRecorder*> g_recorder{nullptr};
thread_local std::uint64_t t_open_span = 0;
thread_local std::uint64_t t_open_request = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

void SpanRecorder::install(SpanRecorder* rec) noexcept { g_recorder.store(rec); }
SpanRecorder* SpanRecorder::current() noexcept { return g_recorder.load(); }

std::uint64_t SpanRecorder::next_id() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const Span& s : all) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to the parent's.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = -1;
      for (const auto& [b, e] : iv) {
        if (e <= b) continue;
        if (b > hi) {
          if (hi > lo) covered += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::int64_t epoch = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) epoch = std::min(epoch, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.layer, s.tid,
                 static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char* name, const char* layer, std::uint64_t request)
    : rec_(SpanRecorder::current()) {
  if (rec_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.id = rec_->next_id();
  span_.parent = t_open_span;
  span_.request = request != 0 ? request : t_open_request;
  span_.tid = thread_index();
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  if (request != 0) t_open_request = request;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (rec_ == nullptr) return;
  span_.end_ns = now_ns();
  t_open_span = saved_parent_;
  if (saved_parent_ == 0) t_open_request = 0;
  rec_->add(span_);
}

}  // namespace perfbench
