// acebench_runner: one benchmark workload, repeated for a fixed time.
//
// Usage: acebench_runner --workload=NAME --seed=N --seconds=S [--trace=0|1]
//                        [--min-runs=N] [--chrome=PATH]
//
// Every application run gets a fresh Machine and Runtime (so set-up is
// measured on every run), is checked against its reference outside the timed
// region, and is printed as one JSON line ("kind":"run").  A run during
// which the hypervisor took more than kMaxStealShare of the CPUs away is
// marked "disturbed".  Timing goes on past --seconds until there are
// --min-runs undisturbed plain timed runs (at most kMaxOvertime times
// --seconds in all), so the tail percentile run.py reports has enough runs
// beyond it.  Each rank is pinned to its own CPU.  run.py turns the
// lines into the benchmark's metrics; see README.md for their definitions.
//
// --trace=1 alternates plain runs (AceApi) with traced runs (TracedApi, one
// span per DSM call) so both see the same host conditions; the traced
// lines carry per-layer totals, and --chrome writes the first traced run's
// spans as Chrome trace JSON.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ace/runtime.hpp"
#include "apps/barnes_hut.hpp"
#include "apps/em3d.hpp"
#include "apps/miglock.hpp"
#include "common/cli.hpp"
#include "obs/json.hpp"
#include "traced_api.hpp"

namespace acebench {
namespace {

using ace::am::Backend;

// Ranks per application run; the runner refuses to run on fewer CPUs.
constexpr std::uint32_t kRanks = 3;
// A hung run aborts after this long; run.py counts it as failed.
constexpr std::uint32_t kWatchdogMs = 30'000;
// Timing stops at this multiple of --seconds even short of --min-runs, so
// that a call on a busy host still ends in a bounded time.
constexpr double kMaxOvertime = 1.4;
// A run is disturbed when the hypervisor stole more than this share of the
// CPU time the runner's CPUs had during it.  On the 4-vCPU test host a run
// of em3d-sc with 40 ms of steal or more took 1.5 to 3.5 times as long.
constexpr double kMaxStealShare = 0.02;
// Spans per rank written to the Chrome trace (the first traced run only).
constexpr std::size_t kChromeSpansPerRank = 20'000;

enum class App { kEm3d, kBh, kMigLock };

struct Workload {
  App app = App::kEm3d;
  Backend backend = Backend::kThread;
  apps::Em3dParams em3d;
  apps::BhParams bh;
  apps::MigLockParams mig;
};

// The inputs of each workload (README.md says why each was chosen).  The
// EM3D and Barnes-Hut sizes are the scaled fig7a/fig7b inputs.
bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& w) {
  if (name == "em3d-sc" || name == "em3d-sc-proc") {
    w.app = App::kEm3d;
    w.backend = name == "em3d-sc" ? Backend::kThread : Backend::kProc;
    w.em3d.n_e = w.em3d.n_h = 400;
    w.em3d.degree = 10;
    w.em3d.pct_remote = 0.20;
    // 16 steps instead of fig7a's 40: each step sends the same messages, and
    // shorter runs give em3d-sc-proc enough runs per call for a tail.
    w.em3d.steps = 16;
    w.em3d.seed = seed;
    w.em3d.protocol = ace::proto_names::kSC;
    w.em3d.map_per_access = true;
    return true;
  }
  if (name == "bh-custom") {
    w.app = App::kBh;
    w.bh.n_bodies = 2048;
    w.bh.steps = 4;
    w.bh.seed = seed;
    w.bh.custom_protocols = true;
    return true;
  }
  if (name == "miglock-sd") {
    // MigLock takes no random input; the seed varies its round count by
    // under 2% so that runs with different seeds do different work.
    w.app = App::kMigLock;
    w.mig.n_locks = kRanks;
    w.mig.rounds = 4096 + static_cast<std::uint32_t>(seed % 64);
    w.mig.protocol = ace::proto_names::kSelfInvalidateDowngrade;
    return true;
  }
  return false;
}

/// What rank 0 keeps of an application run for the correctness check.
struct AppOut {
  double checksum = 0;
  std::vector<double> e, h;
  std::vector<apps::BhBody> bodies;
};

template <class Api>
AppOut run_app(Api& api, const Workload& w) {
  AppOut out;
  switch (w.app) {
    case App::kEm3d: {
      auto r = apps::em3d_run(api, w.em3d);
      out.checksum = r.checksum;
      out.e = std::move(r.e_final);
      out.h = std::move(r.h_final);
      break;
    }
    case App::kBh: {
      auto r = apps::bh_run(api, w.bh);
      out.checksum = r.checksum;
      out.bodies = std::move(r.final_state);
      break;
    }
    case App::kMigLock:
      out.checksum = apps::miglock_run(api, w.mig).checksum;
      break;
  }
  return out;
}

/// The reference each run is checked against, computed once per process.
struct Expected {
  std::vector<double> e, h;
  std::vector<apps::BhBody> bodies;
  double mig_sum = 0;
  bool have_bits = false;  ///< checksum bits a proc run must reproduce
  std::uint64_t bits = 0;
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// gtest's DOUBLE_EQ: equal within 4 units in the last place.
bool ulp_eq(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return false;
  auto biased = [](double v) {
    const std::uint64_t u = bits_of(v);
    const std::uint64_t sign = std::uint64_t{1} << 63;
    return (u & sign) != 0 ? ~u + 1 : sign | u;
  };
  const std::uint64_t x = biased(a), y = biased(b);
  return (x >= y ? x - y : y - x) <= 4;
}

/// Empty when the run's output is correct, else why it is not.
std::string check(const Workload& w, const Expected& ex, const AppOut& out) {
  if (ex.have_bits && bits_of(out.checksum) != ex.bits)
    return "checksum bits differ from the thread backend";
  switch (w.app) {
    case App::kEm3d:
      if (out.e.size() != ex.e.size() || out.h.size() != ex.h.size())
        return "em3d result size";
      for (std::size_t i = 0; i < ex.e.size(); ++i)
        if (!ulp_eq(out.e[i], ex.e[i])) return "em3d E node mismatch";
      for (std::size_t i = 0; i < ex.h.size(); ++i)
        if (!ulp_eq(out.h[i], ex.h[i])) return "em3d H node mismatch";
      return {};
    case App::kBh:
      if (out.bodies.size() != ex.bodies.size()) return "bh result size";
      for (std::size_t i = 0; i < ex.bodies.size(); ++i)
        for (int k = 0; k < 3; ++k)
          if (!(std::fabs(out.bodies[i].pos[k] - ex.bodies[i].pos[k]) <=
                1e-12))
            return "bh body position mismatch";
      return {};
    case App::kMigLock:
      return out.checksum == ex.mig_sum ? std::string{}
                                        : std::string("miglock sum");
  }
  return "unknown app";
}

/// One rank's contribution, shipped to rank 0 through gather_blobs on the
/// process backend (trivially copyable, followed by `n_spans` Spans).
struct RankOut {
  std::uint64_t rss_kb = 0;
  LayerTotals layers;
  std::uint64_t n_spans = 0;
};

// A field of /proc/self/status in kB ("VmHWM", "VmRSS").
std::uint64_t status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::string fmt = std::string(field) + ": %llu kB";
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, fmt.c_str(), &kb) == 1) break;
  std::fclose(f);
  return kb;
}

// Restart this process's peak resident set (VmHWM) from its current size,
// so the peak read after a run belongs to that run.  Free heap pages are
// returned first: which of them stay resident depends on how earlier runs'
// threads left the malloc arenas, not on the run about to start.
void reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

// Time the hypervisor ran something else on the given CPUs (the "steal"
// column of /proc/stat), in clock ticks.
std::uint64_t steal_ticks(const std::vector<int>& cpus) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  char line[512];
  std::uint64_t total = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    int cpu = -1;
    unsigned long long v[8] = {};
    // Per-CPU lines only: "cpu3 ...", not the "cpu  ..." total.
    if (std::strncmp(line, "cpu", 3) == 0 && line[3] >= '0' &&
        line[3] <= '9' &&
        std::sscanf(line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu",
                    &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 9 &&
        std::find(cpus.begin(), cpus.end(), cpu) != cpus.end())
      total += v[7];
  }
  std::fclose(f);
  return total;
}

// Pin the calling thread (or rank process) to one CPU.  Rank r gets
// cpus[r + 1]; on the thread backend that leaves cpus[0] to the runner's
// main thread.
void pin_to(const std::vector<int>& cpus, ace::am::ProcId rank) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(rank + 1) % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

struct RunRecord {
  std::uint64_t setup_ns = 0, wall_ns = 0, modeled_ns = 0, rss_kb = 0;
  std::uint64_t steal_ticks = 0;  ///< on the runner's CPUs, set-up included
  bool disturbed = false;         ///< steal above kMaxStealShare
  double checksum = 0;
  ace::am::Stats am;
  ace::DsmStats dsm;
  std::vector<LayerTotals> layers;  ///< per rank (traced runs)
  std::vector<std::vector<Span>> chrome;  ///< per rank, when exporting
  int bad_ranks = 0;
  std::string why;  ///< empty when correct
};

RunRecord one_run(const Workload& w, Backend backend,
                  const std::vector<int>& cpus, const Expected& ex,
                  bool traced, bool export_spans, std::vector<SpanLog>& logs) {
  RunRecord rec;
  reset_peak_rss();
  const std::uint64_t steal0 = steal_ticks(cpus);
  const std::uint64_t t0 = now_ns();
  auto machine = ace::am::Machine::create(
      {.nprocs = kRanks, .backend = backend, .watchdog_ms = kWatchdogMs});
  ace::Runtime rt(*machine);
  rec.setup_ns = now_ns() - t0;
  // From here on the process backend runs this code on every rank.  A
  // forked rank counts only what it adds to the memory it inherited, so the
  // runner's own heap is counted once (in rank 0, the runner itself).
  std::uint64_t inherited_kb = 0;
  if (machine->multiprocess() && !machine->is_primary()) {
    reset_peak_rss();
    inherited_kb = status_kb("VmRSS");
  }

  AppOut out0;
  rt.run([&](ace::RuntimeProc& rp) {
    pin_to(cpus, rp.me());
    apps::AceApi api(rp);
    AppOut out;
    if (traced) {
      SpanLog& log = logs[rp.me()];
      log.clear();
      TracedApi tapi(api, log);
      Scope run(log, kApps);
      out = run_app(tapi, w);
    } else {
      out = run_app(api, w);
    }
    if (rp.me() == 0) out0 = std::move(out);
  });
  rec.wall_ns = machine->last_run_wall_ns();
  rec.steal_ticks = steal_ticks(cpus) - steal0;
  const double stolen_ns = static_cast<double>(rec.steal_ticks) * 1e9 /
                           static_cast<double>(sysconf(_SC_CLK_TCK));
  rec.disturbed = stolen_ns > kMaxStealShare *
                                  static_cast<double>(now_ns() - t0) *
                                  static_cast<double>(cpus.size());
  rec.modeled_ns = machine->max_vclock_ns();
  rec.am = machine->aggregate_stats();
  for (const auto& sm : rt.aggregate_space_metrics()) rec.dsm.merge(sm.dsm);

  auto rank_out = [&](ace::am::ProcId p) {
    RankOut r;
    const std::uint64_t peak_kb = status_kb("VmHWM");
    r.rss_kb = peak_kb > inherited_kb ? peak_kb - inherited_kb : 0;
    if (traced) {
      r.layers = logs[p].totals();
      if (export_spans)
        r.n_spans = std::min(logs[p].spans().size(), kChromeSpansPerRank);
    }
    return r;
  };
  auto take = [&](const RankOut& r, const Span* spans) {
    rec.layers.push_back(r.layers);
    if (export_spans) rec.chrome.emplace_back(spans, spans + r.n_spans);
  };
  if (machine->multiprocess()) {
    const ace::am::ProcId me = machine->self_rank();
    const RankOut mine = rank_out(me);
    std::vector<std::byte> blob(sizeof mine + mine.n_spans * sizeof(Span));
    std::memcpy(blob.data(), &mine, sizeof mine);
    if (mine.n_spans != 0)
      std::memcpy(blob.data() + sizeof mine, logs[me].spans().data(),
                  mine.n_spans * sizeof(Span));
    const auto blobs = machine->gather_blobs(blob);
    if (machine->is_primary())
      for (const auto& b : blobs) {
        RankOut r;
        ACE_CHECK(b.size() >= sizeof r);
        std::memcpy(&r, b.data(), sizeof r);
        ACE_CHECK(b.size() == sizeof r + r.n_spans * sizeof(Span));
        std::vector<Span> spans(r.n_spans);
        if (r.n_spans != 0)
          std::memcpy(spans.data(), b.data() + sizeof r,
                      r.n_spans * sizeof(Span));
        rec.rss_kb += r.rss_kb;
        take(r, spans.data());
      }
    rec.bad_ranks = machine->finalize();  // ranks != 0 exit here
  } else {
    // Threads share one process, so its peak RSS already covers every rank.
    for (ace::am::ProcId p = 0; p < kRanks; ++p) {
      const RankOut r = rank_out(p);
      rec.rss_kb = r.rss_kb;
      take(r, logs[p].spans().data());
    }
  }

  rec.checksum = out0.checksum;
  rec.why = check(w, ex, out0);
  if (rec.why.empty() && rec.bad_ranks != 0)
    rec.why = "finalize reported failed ranks";
  return rec;
}

void emit(const RunRecord& r, const char* kind, std::uint64_t rep,
          bool traced, Backend backend) {
  ace::obs::JsonWriter j;
  j.begin_object();
  j.kv("kind", kind);
  j.kv("rep", rep);
  j.kv("traced", traced);
  j.kv("backend", ace::am::backend_name(backend));
  j.kv("ranks", std::uint64_t{kRanks});
  j.kv("ok", r.why.empty());
  j.kv("why", r.why);
  j.kv("setup_ns", r.setup_ns);
  j.kv("wall_ns", r.wall_ns);
  j.kv("modeled_ns", r.modeled_ns);
  j.kv("rss_kb", r.rss_kb);
  j.kv("steal_ticks", r.steal_ticks);
  j.kv("disturbed", r.disturbed);
  j.kv("checksum_bits", bits_of(r.checksum));
  j.kv("msgs", r.am.msgs_sent);
  j.kv("msgs_received", r.am.msgs_received);
  j.kv("bytes", r.am.bytes_sent);
  j.kv("polls", r.am.polls);
  j.kv("barriers", r.am.barriers);
  j.key("dsm");
  j.begin_object();
  j.kv("maps", r.dsm.maps);
  j.kv("unmaps", r.dsm.unmaps);
  j.kv("map_meta_misses", r.dsm.map_meta_misses);
  j.kv("start_reads", r.dsm.start_reads);
  j.kv("read_misses", r.dsm.read_misses);
  j.kv("start_writes", r.dsm.start_writes);
  j.kv("write_misses", r.dsm.write_misses);
  j.kv("invalidations", r.dsm.invalidations);
  j.kv("recalls", r.dsm.recalls);
  j.kv("fetches", r.dsm.fetches);
  j.kv("updates", r.dsm.updates);
  j.kv("writebacks", r.dsm.writebacks);
  j.kv("barriers", r.dsm.barriers);
  j.kv("locks", r.dsm.locks);
  j.kv("unlocks", r.dsm.unlocks);
  j.kv("acquires", r.dsm.acquires);
  j.kv("releases", r.dsm.releases);
  j.end_object();
  if (traced) {
    // One entry per rank: calls and self time of every layer, plus the
    // rank's run-span duration.
    j.key("ranks");
    j.begin_array();
    for (const LayerTotals& t : r.layers) {
      j.begin_object();
      j.kv("run_ns", t.run_ns);
      j.kv("bad_spans", t.bad_spans);
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        j.key(kLayerNames[l]);
        j.begin_array();
        j.value(t.calls[l]);
        j.value(t.self_ns[l]);
        j.end_array();
      }
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
  std::printf("%s\n", std::move(j).str().c_str());
  std::fflush(stdout);
}

/// Chrome trace-event JSON (Perfetto loads it): one process per rank, one
/// complete event per span, timestamps in microseconds from the first span.
bool write_chrome(const std::string& path, const std::string& workload,
                  std::uint64_t seed, std::uint64_t rep,
                  const std::vector<std::vector<Span>>& ranks) {
  std::uint64_t origin = UINT64_MAX;
  for (const auto& spans : ranks)
    if (!spans.empty()) origin = std::min(origin, spans.front().t0_ns);
  ace::obs::JsonWriter j;
  j.begin_object();
  j.kv("displayTimeUnit", "ns");
  j.key("traceEvents");
  j.begin_array();
  for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
    j.begin_object();
    j.kv("name", "process_name");
    j.kv("ph", "M");
    j.kv("pid", static_cast<std::uint64_t>(rank));
    j.key("args");
    j.begin_object();
    j.kv("name", "rank " + std::to_string(rank));
    j.end_object();
    j.end_object();
    const std::string run_id =
        workload + "/seed" + std::to_string(seed) + "/rep" +
        std::to_string(rep) + "/rank" + std::to_string(rank);
    const auto& spans = ranks[rank];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      j.begin_object();
      j.kv("name", kLayerNames[s.layer]);
      j.kv("cat", kLayerNames[s.layer]);
      j.kv("ph", "X");
      j.kv("pid", static_cast<std::uint64_t>(rank));
      j.kv("tid", std::uint64_t{0});
      j.kv("ts", static_cast<double>(s.t0_ns - origin) / 1e3);
      j.kv("dur", static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
      j.key("args");
      j.begin_object();
      j.kv("run", run_id);
      j.kv("span", static_cast<std::uint64_t>(i));
      if (s.parent != kNoParent)
        j.kv("parent", static_cast<std::uint64_t>(s.parent));
      j.end_object();
      j.end_object();
    }
  }
  j.end_array();
  j.end_object();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string doc = std::move(j).str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

// The CPUs this process may run on.
std::vector<int> online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

}  // namespace
}  // namespace acebench

int main(int argc, char** argv) {
  using namespace acebench;
  ace::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10);
  const bool trace = cli.get_bool("trace", false);
  const auto min_runs = static_cast<std::uint64_t>(cli.get_int("min-runs", 1));
  const std::string chrome = cli.get_string("chrome", "");
  cli.finish();

  const std::vector<int> cpus = online_cpus();
  if (kRanks > cpus.size()) {
    std::fprintf(stderr, "refusing to run %u ranks on %zu online cpus\n",
                 kRanks, cpus.size());
    return 2;
  }
  Workload w;
  if (!make_workload(name, seed, w)) {
    std::fprintf(stderr, "unknown --workload=%s\n", name.c_str());
    return 2;
  }

  Expected ex;
  switch (w.app) {
    case App::kEm3d:
      std::tie(ex.e, ex.h) = apps::em3d_reference(w.em3d, kRanks);
      break;
    case App::kBh:
      ex.bodies = apps::bh_reference(w.bh);
      break;
    case App::kMigLock: {
      const std::uint64_t per_section =
          std::uint64_t{w.mig.updates} * (w.mig.updates + 1) / 2;
      ex.mig_sum = static_cast<double>(std::uint64_t{kRanks} * w.mig.rounds *
                                       per_section);
      break;
    }
  }

  std::vector<SpanLog> logs(kRanks);
  // Span buffers are sized from the largest rank of the previous traced run
  // (before the fork, so every rank process inherits the capacity).
  std::size_t span_hint = 0;
  auto run = [&](Backend backend, bool traced, bool export_spans) {
    for (SpanLog& log : logs) log.reserve(span_hint);
    RunRecord r = one_run(w, backend, cpus, ex, traced, export_spans, logs);
    for (const LayerTotals& t : r.layers) {
      std::size_t spans = 1;
      for (const std::uint64_t c : t.calls) spans += c;
      span_hint = std::max(span_hint, spans);
    }
    return r;
  };

  std::uint64_t rep = 0;
  if (w.backend == Backend::kProc) {
    // The same inputs on the thread backend fix the checksum bits every
    // process-backend run must reproduce.
    const RunRecord r = run(Backend::kThread, false, false);
    emit(r, "parity", rep++, false, Backend::kThread);
    ex.have_bits = true;
    ex.bits = bits_of(r.checksum);
  }
  // Warm-up: let caches and lazy set-up settle before timing (and size the
  // span buffers when tracing).
  emit(run(w.backend, trace, false), "warmup", rep++, trace, w.backend);

  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t cutoff =
      start + static_cast<std::uint64_t>(kMaxOvertime * seconds * 1e9);
  std::uint64_t steady_runs = 0;  // plain and undisturbed
  bool exported = chrome.empty();
  for (bool traced = false;
       now_ns() < deadline || (steady_runs < min_runs && now_ns() < cutoff);
       traced = trace && !traced) {
    const bool export_now = traced && !exported;
    RunRecord r = run(w.backend, traced, export_now);
    if (export_now) {
      exported = true;
      if (!write_chrome(chrome, name, seed, rep, r.chrome))
        std::fprintf(stderr, "cannot write %s\n", chrome.c_str());
    }
    emit(r, "run", rep++, traced, w.backend);
    if (!traced && !r.disturbed) ++steady_runs;
  }
  std::printf("{\"kind\":\"end\"}\n");
  return 0;
}
