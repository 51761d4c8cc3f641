#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Open(const std::string& name) {
  if (!enabled_) return -1;
  BenchSpan span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_.back().start_s = NowSeconds();
  return index;
}

void SpanLog::Close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = NowSeconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanLog::Total(int op, const std::string& name) const {
  double total = 0.0;
  for (const BenchSpan& span : spans_) {
    if (span.op == op && span.name == name) total += span.end_s - span.start_s;
  }
  return total;
}

double SpanLog::ChildCoverage(int root) const {
  if (root < 0) return 0.0;
  const BenchSpan& r = spans_[static_cast<std::size_t>(root)];
  double covered = 0.0;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == root) covered += spans_[i].end_s - spans_[i].start_s;
  }
  const double wall = r.end_s - r.start_s;
  return wall > 0.0 ? covered / wall : 0.0;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& provenance_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"provenance\":" << provenance_json << ",\"spans\":[";
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start_s;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"op\":%d}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start_s - epoch,
                  s.end_s - epoch, s.parent, s.op);
    out << buf << "\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> SelfSeconds(
    const std::vector<m2td::obs::SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Per thread, in start order, parents before their children.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.thread_id != y.thread_id) return x.thread_id < y.thread_id;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  std::vector<double> self_us(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_us[i] = spans[i].duration_us;
  }
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    if (k > 0 && spans[order[k - 1]].thread_id != spans[i].thread_id) {
      stack.clear();
    }
    while (!stack.empty() && spans[stack.back()].depth >= spans[i].depth) {
      stack.pop_back();
    }
    if (!stack.empty() && spans[stack.back()].depth + 1 == spans[i].depth) {
      self_us[stack.back()] -= spans[i].duration_us;
    }
    stack.push_back(i);
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name] += std::max(0.0, self_us[i]) * 1e-6;
  }
  return totals;
}

}  // namespace perfbench
