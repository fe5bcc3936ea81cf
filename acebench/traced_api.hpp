// Span recording around the application API, from outside the program.
//
// The applications are templates over the AceApi concept (src/apps/api.hpp),
// so the benchmark can time every call into the DSM layers by instantiating
// them with TracedApi: a forwarding type that opens one span per call, named
// after the layer the call enters.  Nothing in src/ changes; a plain run
// instantiates the same templates with AceApi itself.
//
// Spans live in memory (one SpanLog per rank, sized before each run so a
// traced run does not allocate) and are reduced to per-layer call counts
// and self times when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/api.hpp"

namespace acebench {

/// The layers a wrapped call can enter.  kApps is the rank's run span: the
/// application's own code, i.e. everything outside a wrapped call.
enum Layer : std::uint8_t {
  kApps,
  kMap,      ///< map, unmap (the dsm mapper)
  kRead,     ///< start_read, end_read
  kWrite,    ///< start_write, end_write
  kBarrier,  ///< space barriers
  kLock,     ///< lock, unlock
  kOrder,    ///< acquire, release
  kSpace,    ///< new_space, gmalloc, change_protocol
  kColl,     ///< broadcasts and reductions
  kLayerCount,
};

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "apps",        "dsm.map",   "ace.read",  "ace.write", "ace.barrier",
    "ace.lock",    "ace.order", "ace.space", "ace.coll"};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

/// One wrapped call: host start and end, the enclosing span (the run span
/// for every call the application makes), and the layer it entered.
struct Span {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t parent = kNoParent;
  Layer layer = kApps;
};

/// Per-layer reduction of one rank's spans for one run.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::uint64_t run_ns = 0;  ///< duration of the run span
  /// Spans left open, ending before they start, or whose children cover
  /// more time than they do; 0 when the spans nest as they should.
  std::uint64_t bad_spans = 0;
};

/// One rank's spans for one application run.  Single writer (the rank's
/// own thread); spans nest strictly, so the innermost open span is the
/// parent of the next one opened.
class SpanLog {
 public:
  void clear() { spans_.clear(); open_ = kNoParent; }
  /// Size the buffer before a run, so no reallocation lands inside a span.
  void reserve(std::size_t n) { spans_.reserve(n); }

  std::uint32_t open(Layer layer) {
    const auto i = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, open_, layer});
    open_ = i;
    return i;
  }
  void close(std::uint32_t i) {
    spans_[i].t1_ns = now_ns();
    open_ = spans_[i].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's self time is its duration minus the time its children cover.
  /// Children nest inside their parent and do not overlap each other (one
  /// thread per rank), so the covered time is the sum of their durations.
  LayerTotals totals() const {
    LayerTotals t;
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent != kNoParent && s.t1_ns >= s.t0_ns)
        child_ns[s.parent] += s.t1_ns - s.t0_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.t1_ns < s.t0_ns || s.t1_ns - s.t0_ns < child_ns[i]) {
        t.bad_spans += 1;
        continue;
      }
      const std::uint64_t dur = s.t1_ns - s.t0_ns;
      t.calls[s.layer] += 1;
      t.self_ns[s.layer] += dur - child_ns[i];
      if (s.parent == kNoParent) t.run_ns += dur;
    }
    t.calls[kApps] = 0;  // the run span is not a call
    return t;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t open_ = kNoParent;
};

/// RAII span: open on construction, close on scope exit.
class Scope {
 public:
  Scope(SpanLog& log, Layer layer) : log_(log), i_(log.open(layer)) {}
  ~Scope() { log_.close(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t i_;
};

/// The AceApi concept with every DSM call wrapped in a span.  Calls that do
/// not enter a layer (me, nprocs, charge_compute) forward untimed, so their
/// cost counts as application time.
class TracedApi {
 public:
  TracedApi(apps::AceApi& api, SpanLog& log) : api_(api), log_(log) {}

  apps::ProcId me() const { return api_.me(); }
  std::uint32_t nprocs() const { return api_.nprocs(); }
  void charge_compute(std::uint64_t ns) { api_.charge_compute(ns); }

  std::uint32_t new_space(const std::string& protocol) {
    Scope s(log_, kSpace);
    return api_.new_space(protocol);
  }
  void change_protocol(std::uint32_t space, const std::string& protocol) {
    Scope s(log_, kSpace);
    api_.change_protocol(space, protocol);
  }
  apps::RegionId gmalloc(std::uint32_t space, std::uint32_t size) {
    Scope s(log_, kSpace);
    return api_.gmalloc(space, size);
  }
  void* map(apps::RegionId id) {
    Scope s(log_, kMap);
    return api_.map(id);
  }
  void unmap(void* p) {
    Scope s(log_, kMap);
    api_.unmap(p);
  }
  void start_read(void* p) {
    Scope s(log_, kRead);
    api_.start_read(p);
  }
  void end_read(void* p) {
    Scope s(log_, kRead);
    api_.end_read(p);
  }
  void start_write(void* p) {
    Scope s(log_, kWrite);
    api_.start_write(p);
  }
  void end_write(void* p) {
    Scope s(log_, kWrite);
    api_.end_write(p);
  }
  void barrier(std::uint32_t space) {
    Scope s(log_, kBarrier);
    api_.barrier(space);
  }
  void lock(void* p) {
    Scope s(log_, kLock);
    api_.lock(p);
  }
  void unlock(void* p) {
    Scope s(log_, kLock);
    api_.unlock(p);
  }
  void acquire(std::uint32_t space) {
    Scope s(log_, kOrder);
    api_.acquire(space);
  }
  void release(std::uint32_t space) {
    Scope s(log_, kOrder);
    api_.release(space);
  }
  apps::RegionId bcast_region(apps::RegionId id, apps::ProcId root) {
    Scope s(log_, kColl);
    return api_.bcast_region(id, root);
  }
  void bcast_bytes(void* data, std::uint32_t n, apps::ProcId root) {
    Scope s(log_, kColl);
    api_.bcast_bytes(data, n, root);
  }
  double allreduce_sum(double v) {
    Scope s(log_, kColl);
    return api_.allreduce_sum(v);
  }
  std::uint64_t allreduce_min(std::uint64_t v) {
    Scope s(log_, kColl);
    return api_.allreduce_min(v);
  }
  // Needed for EM3D's "Auto" protocol branch to compile; no workload takes it.
  void auto_advise(std::uint32_t space, ace::adapt::AdvisorOptions opts = {}) {
    Scope s(log_, kSpace);
    api_.auto_advise(space, std::move(opts));
  }

 private:
  apps::AceApi& api_;
  SpanLog& log_;
};

}  // namespace acebench
