// perfbench: runs one workload for a wall-clock budget and prints one
// JSON line with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).
//
// A run repeats whole rounds at the same seed until --seconds have
// passed. Each round builds the world (set-up) and runs one measured
// simulated phase; host-time metrics are medians over rounds, and the
// sim_* metrics must come out identical in every round, traced or not.
//
//   perfbench --workload tenants_2k --seed 1 --seconds 20 --trace 0 [--small]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Per(double num, double den) { return den > 0 ? num / den : 0.0; }

/** Ordered (name, value, unit) list, printed as the "metrics" object. */
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < rows_.size(); ++i) {
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(), v,
                    rows_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

const char* kStages[] = {"net_in", "parse",  "enqueue", "token_wait",
                         "submit", "flash", "complete", "net_out"};

void AddEndToEnd(Metrics& m, const std::vector<RoundResult>& rounds) {
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<double> per_op;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    per_op.push_back(Per(r.run_s * 1e9, static_cast<double>(r.ops)));
  }
  const RoundResult& first = rounds.front();
  m.Add("setup_s", Median(setup), "s");
  m.Add("run_s", Median(run), "s");
  m.Add("host_ns_per_op", Median(per_op), "ns");
  m.Add("peak_rss_mib", PeakRssMib(), "MiB");
  m.Add("sim_iops", first.sim.at("sim_iops"), "ops/s");
  m.Add("sim_be_iops", first.sim.at("sim_be_iops"), "ops/s");
  m.Add("sim_read_p50_us", first.sim.at("sim_read_p50_us"), "us");
  m.Add("sim_read_p999_us", first.sim.at("sim_read_p999_us"), "us");
  m.Add("sim_write_p50_us", first.sim.at("sim_write_p50_us"), "us");
  m.Add("sim_write_p999_us", first.sim.at("sim_write_p999_us"), "us");
}

double Extra(const RoundResult& r, const char* key) {
  auto it = r.extra.find(key);
  return it == r.extra.end() ? 0.0 : it->second;
}

void AddPerLayer(Metrics& m, const std::vector<RoundResult>& plain,
                 const std::vector<RoundResult>& traced) {
  const RoundResult& r = traced.front();
  const LayerStats& s = r.layers;
  const double ops = static_cast<double>(r.ops);
  std::vector<double> ns_per_event;
  std::vector<double> plain_run;
  std::vector<double> traced_run;
  for (const RoundResult& p : plain) {
    ns_per_event.push_back(
        Per(p.run_s * 1e9, static_cast<double>(p.layers.events)));
    plain_run.push_back(p.run_s);
  }
  std::vector<double> issue_ns;
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  std::vector<double> register_us;
  for (const RoundResult& t : traced) {
    traced_run.push_back(t.run_s);
    const LayerStats& l = t.layers;
    issue_ns.push_back(Per(static_cast<double>(l.issue.ns),
                           static_cast<double>(l.issue.calls)));
    get_ns.push_back(
        Per(static_cast<double>(l.get.ns), static_cast<double>(l.get.calls)));
    put_ns.push_back(
        Per(static_cast<double>(l.put.ns), static_cast<double>(l.put.calls)));
    register_us.push_back(Per(static_cast<double>(l.register_tenant.ns) / 1e3,
                              static_cast<double>(l.register_tenant.calls)));
  }

  m.Add("sim.events", static_cast<double>(s.events), "count");
  m.Add("sim.events_per_op", Per(static_cast<double>(s.events), ops), "count");
  m.Add("sim.host_ns_per_event", Median(ns_per_event), "ns");
  m.Add("sim.peak_pending", static_cast<double>(s.peak_pending), "count");

  m.Add("net.messages_per_op", Per(s.net_messages, ops), "count");
  m.Add("net.wire_bytes_per_op", Per(s.net_wire_bytes, ops), "B");

  m.Add("flash.commands_per_op",
        Per(static_cast<double>(s.flash_commands), ops), "count");
  m.Add("flash.read_p50_us", s.flash_read_p50_us, "us");
  m.Add("flash.read_p999_us", s.flash_read_p999_us, "us");
  m.Add("flash.gc_stalls", static_cast<double>(s.gc_stalls), "count");

  for (const char* stage : kStages) {
    auto it = s.stage_mean_us.find(stage);
    m.Add(std::string("core.stage.") + stage + "_us",
          it == s.stage_mean_us.end() ? 0.0 : it->second, "us");
  }
  m.Add("core.sched_rounds_per_op",
        Per(static_cast<double>(s.sched_rounds), ops), "count");
  m.Add("core.dataplane_iterations_per_op",
        Per(static_cast<double>(s.dp_iterations), ops), "count");
  m.Add("core.mean_batch",
        Per(static_cast<double>(s.batch_sum),
            static_cast<double>(s.dp_iterations)),
        "count");
  m.Add("core.neg_limit_hits", s.neg_limit_hits, "count");
  m.Add("core.register_tenant_host_us", Median(register_us), "us");

  const double page_lookups = static_cast<double>(s.kv_block_reads);
  const double page_misses = static_cast<double>(s.backend_page_reads);
  m.Add("client.issue_host_ns", Median(issue_ns), "ns");
  m.Add("client.timeouts", static_cast<double>(s.timeouts), "count");
  m.Add("client.retries", static_cast<double>(s.retries), "count");
  m.Add("client.page_cache_hit_ratio",
        Per(page_lookups - page_misses, page_lookups), "ratio");
  m.Add("client.page_cache_evictions",
        std::max(0.0, page_misses - Extra(r, "cache_blocks")), "count");
  m.Add("client.block_requeues", static_cast<double>(s.block_requeues),
        "count");

  const bool cluster = s.shard_reads_max > 0;
  m.Add("cluster.extents_per_op",
        cluster ? Per(static_cast<double>(s.spans + s.spans_dropped), ops)
                : 0.0,
        "count");
  m.Add("cluster.shard_read_p50_us", s.shard_p50_us, "us");
  m.Add("cluster.read_imbalance",
        Per(static_cast<double>(s.shard_reads_max),
            static_cast<double>(s.shard_reads_min)),
        "ratio");
  m.Add("cluster.read_failovers", static_cast<double>(s.read_failovers),
        "count");
  m.Add("cluster.wrong_shard_retries",
        static_cast<double>(s.wrong_shard_retries), "count");
  m.Add("cluster.migration_sim_ms", Extra(r, "migration_sim_ms"), "ms");
  m.Add("cluster.migration_copy_ios",
        static_cast<double>(s.migration_copy_ios), "count");
  m.Add("cluster.migration_dirty_recopies",
        static_cast<double>(s.migration_dirty_recopies), "count");

  m.Add("apps.kv.get_host_ns", Median(get_ns), "ns");
  m.Add("apps.kv.put_host_ns", Median(put_ns), "ns");
  m.Add("apps.kv.backend_reads_per_get",
        Per(page_misses, static_cast<double>(s.kv_gets)), "count");
  m.Add("apps.kv.backend_read_p50_us", s.backend_read_p50_us, "us");
  m.Add("apps.kv.backend_read_p999_us", s.backend_read_p999_us, "us");
  m.Add("apps.kv.write_amp",
        Per(static_cast<double>(s.kv_device_bytes_written),
            Extra(r, "user_bytes")),
        "ratio");
  m.Add("apps.kv.compactions", static_cast<double>(s.kv_compactions),
        "count");
  m.Add("apps.kv.bytes_compacted", static_cast<double>(s.kv_bytes_compacted),
        "B");

  m.Add("obs.spans", static_cast<double>(s.spans), "count");
  m.Add("obs.trace_overhead_pct",
        (Per(Median(traced_run), Median(plain_run)) - 1.0) * 100.0, "%");
}

/** Stage means must add up to the end-to-end mean of the same
 * requests, as timed on the client side (e2e_mean_us). */
void CheckBreakdown(RoundResult& r) {
  const LayerStats& s = r.layers;
  if (s.spans == 0) {
    r.errors.push_back("the traced run recorded no spans");
    return;
  }
  double sum = 0;
  for (const auto& [name, mean] : s.stage_mean_us) sum += mean;
  const double e2e = Extra(r, "e2e_mean_us");
  const double err = e2e > 0 ? std::abs(sum - e2e) / e2e : 1.0;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "stage means sum to %.4f us, end-to-end mean is %.4f us "
                "(%.4f%% apart)",
                sum, e2e, err * 100.0);
  std::fprintf(stderr, "perfbench: %s\n", buf);
  if (err > 0.0004) r.errors.push_back(buf);
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Scale scale;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--small") {
      scale.small = true;
    } else if (v != nullptr && a == "--workload") {
      workload = v, ++i;
    } else if (v != nullptr && a == "--seed") {
      seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (v != nullptr && a == "--seconds") {
      seconds = std::strtod(v, nullptr), ++i;
    } else if (v != nullptr && a == "--trace") {
      trace = std::atoi(v), ++i;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  RoundResult (*run)(uint64_t, bool, const Scale&) = nullptr;
  if (workload == "tenants_2k") run = RunTenants2k;
  if (workload == "cluster_rw") run = RunClusterRw;
  if (workload == "kv_lsm") run = RunKvLsm;
  if (run == nullptr || (trace != 0 && trace != 1) || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload tenants_2k|cluster_rw|kv_lsm "
                 "--seed N --seconds S --trace 0|1 [--small]\n");
    return 2;
  }

  // Rounds until the budget is spent; a traced run alternates untraced
  // and traced rounds so the overhead compares like with like.
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  const double start = WallSeconds();
  while (plain.empty() || (trace == 1 && traced.empty()) ||
         WallSeconds() - start < seconds) {
    const bool traced_round = trace == 1 && traced.size() < plain.size();
    RoundResult r = run(seed, traced_round, scale);
    if (traced_round) CheckBreakdown(r);
    std::fprintf(stderr, "perfbench: %s round %zu%s: setup %.4f s, run %.4f s, "
                 "%lld ops\n", workload.c_str(), plain.size() + traced.size(),
                 traced_round ? " (traced)" : "", r.setup_s, r.run_s,
                 static_cast<long long>(r.ops));
    (traced_round ? traced : plain).push_back(std::move(r));
    if (!(traced_round ? traced : plain).back().errors.empty()) break;
  }

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  const RoundResult& ref = plain.front();
  for (const auto* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                     e.c_str());
        correct = false;
      }
      // Tracing must not perturb simulated time, and a fixed seed must
      // repeat exactly.
      if (!r.errors.empty() || !ref.errors.empty()) continue;
      if (r.sim != ref.sim || r.ops != ref.ops || r.failed != ref.failed) {
        std::fprintf(stderr,
                     "perfbench: %s: simulated results differ between "
                     "rounds of one seed\n",
                     workload.c_str());
        correct = false;
      }
    }
  }
  if (attempted < 1) correct = false;

  Metrics m;
  const bool measured = !ref.sim.empty() && (trace == 0 || !traced.empty());
  if (measured && trace == 0) AddEndToEnd(m, plain);
  if (measured && trace == 1) AddPerLayer(m, plain, traced);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
