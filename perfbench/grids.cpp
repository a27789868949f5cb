// The two grid workloads and their traced ledger.
//
//   paper_grid   the paper's whole evaluation in one process: read_trace ->
//                Experiment -> binned_cache -> build_grid(default spec) ->
//                ParallelRunner(2).run with FailPolicy::kSkip, repeated.
//   shard_lease  the micro_sweep headline cells (k >= 1024) written once to
//                a TraceStore and swept repeatedly by run_sharded_sweep over
//                the socket transport with one `netsample worker`.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/select_indices.h"
#include "netsample/netsample.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace netsample;

constexpr int kSetups = 3;      // set-ups per run; setup_s is their median
constexpr int kRunnerJobs = 2;  // paper_grid's ParallelRunner threads

using Cell = std::vector<core::DisparityMetrics>;

bool same_cell(const Cell& a, const Cell& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

std::unique_ptr<exper::Experiment> experiment(trace::Trace t) {
  auto ex = std::make_unique<exper::Experiment>(std::move(t));
  (void)ex->binned_cache();
  return ex;
}

trace::Trace read_capture(const std::string& pcap) {
  auto t = pcap::read_trace(pcap);
  if (!t.has_value()) {
    throw std::runtime_error("read_trace: " + t.status().message());
  }
  return std::move(t).value();
}

shard::SweepSpec paper_spec(std::uint64_t seed) {
  auto spec = shard::default_sweep_spec();
  spec.base_seed = seed;
  return spec;
}

/// The micro_sweep headline: every method and target at k >= 1024.
shard::SweepSpec headline_spec(std::uint64_t seed) {
  auto spec = paper_spec(seed);
  spec.granularities = exper::granularity_ladder(1024, 32768);
  return spec;
}

std::vector<exper::GridTask> grid_of(const shard::SweepSpec& spec,
                                     const exper::Experiment& ex) {
  return shard::build_grid(spec, ex.full(), ex.mean_interarrival_usec(),
                           &ex.binned_cache());
}

/// Offered packets of one pass over the grid: N x replications x cells.
double offered(const exper::Experiment& ex, const shard::SweepSpec& spec) {
  return static_cast<double>(ex.population_size()) * spec.replications *
         static_cast<double>(spec.cell_count());
}

/// Serial in-process run_cell of every cell: the reference outputs, and
/// (when asked) each cell's time.
std::vector<Cell> reference(const std::vector<exper::GridTask>& grid,
                            std::uint64_t seed,
                            std::vector<double>* seconds = nullptr) {
  std::vector<Cell> out;
  for (const auto& task : grid) {
    const double t0 = now_s();
    out.push_back(
        exper::run_cell(shard::derived_cell_config(task, seed)).replications);
    if (seconds != nullptr) seconds->push_back(now_s() - t0);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void check_run(const exper::RunReport& rr, const std::vector<Cell>& ref,
               Report& r) {
  r.attempted += ref.size();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto& c = rr.cells[i];
    if (!c.status.is_ok()) {
      r.fail(1, "paper_grid cell " + std::to_string(i) +
                    " quarantined: " + c.status.message());
    } else if (!same_cell(c.result.replications, ref[i])) {
      r.fail(1, "paper_grid cell " + std::to_string(i) +
                    " differs from a serial run_cell");
    }
  }
}

/// One sharded sweep, checked cell by cell against the in-process result.
std::optional<shard::ShardReport> checked_sweep(
    const shard::SweepSpec& spec, const shard::CoordinatorOptions& co,
    const std::vector<Cell>& ref, Report& r) {
  r.attempted += ref.size();
  auto rep = shard::run_sharded_sweep(spec, co);
  if (!rep.has_value()) {
    r.fail(ref.size(), "sharded sweep failed: " + rep.status().message());
    return std::nullopt;
  }
  if (rep->worker_cache_builds != 0) {
    r.fail(ref.size(), "worker re-binned the trace (" +
                           std::to_string(rep->worker_cache_builds) +
                           " cache builds)");
    return std::move(rep).value();
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto& c = rep->cells[i];
    if (!c.status.is_ok()) {
      r.fail(1, "shard_lease cell " + std::to_string(i) +
                    " failed: " + c.status.message());
    } else if (!same_cell(c.replications, ref[i])) {
      r.fail(1, "shard_lease cell " + std::to_string(i) +
                    " differs from the in-process cell");
    }
  }
  return std::move(rep).value();
}

shard::CoordinatorOptions one_socket_worker(const RunArgs& args,
                                            const std::string& store) {
  shard::CoordinatorOptions co;
  co.workers = 1;
  co.store_path = store;
  co.worker_command = {args.netsample, "worker"};
  co.transport = shard::TransportKind::kSocket;
  co.listen = "127.0.0.1:0";
  return co;
}

void add_end_to_end(Report& r, const std::vector<double>& setups,
                    const std::vector<double>& rates,
                    const std::vector<double>& cpu_ns, double rss_mb) {
  r.add("setup_s", median(setups), "s", setups.size());
  r.add("pkts_per_s", median(rates), "pkt/s", rates.size());
  r.add("cpu_ns_per_pkt", median(cpu_ns), "ns", cpu_ns.size());
  r.add("peak_rss_mb", rss_mb, "MiB", 1);
}

}  // namespace

Report run_paper_grid(const RunArgs& args) {
  Report r;
  std::vector<double> setups;
  std::unique_ptr<exper::Experiment> ex;
  for (int i = 0; i < kSetups; ++i) {
    ex.reset();
    const double t0 = now_s();
    ex = experiment(read_capture(args.pcap));
    setups.push_back(now_s() - t0);
  }
  const auto spec = paper_spec(args.seed);
  const auto grid = grid_of(spec, *ex);
  const auto ref = reference(grid, spec.base_seed);

  exper::ParallelRunner runner(kRunnerJobs);
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  check_run(runner.run(grid, spec.base_seed, opts), ref, r);  // warm-up

  const double per_pass = offered(*ex, spec);
  std::vector<double> rates, cpu_ns;
  const HostTicks host0 = host_ticks();
  const double start = now_s();
  while (rates.size() < 3 || now_s() - start < args.seconds) {
    const double c0 = self_cpu_s();
    const double t0 = now_s();
    const auto rr = runner.run(grid, spec.base_seed, opts);
    const double wall = now_s() - t0;
    const double cpu = self_cpu_s() - c0;
    check_run(rr, ref, r);
    rates.push_back(per_pass / wall);
    cpu_ns.push_back(cpu * 1e9 / per_pass);
  }
  r.steal_share = steal_share(host0, host_ticks());
  r.capture_packets = ex->population_size();
  add_end_to_end(r, setups, rates, cpu_ns, proc_peak_rss_mb(0));
  return r;
}

Report run_shard_lease(const RunArgs& args) {
  Report r;
  const std::string store = args.work_dir + "/capture.nstore";
  std::vector<double> setups;
  std::unique_ptr<exper::Experiment> ex;
  for (int i = 0; i < kSetups; ++i) {
    ex.reset();
    const double t0 = now_s();
    ex = experiment(read_capture(args.pcap));
    const Status st = shard::write_trace_store(
        store, ex->binned_cache(), ex->mean_interarrival_usec(),
        ex->mean_packet_size());
    if (!st.is_ok()) throw std::runtime_error("store: " + st.message());
    setups.push_back(now_s() - t0);
  }
  const auto spec = headline_spec(args.seed);
  const auto ref = reference(grid_of(spec, *ex), spec.base_seed);
  const auto co = one_socket_worker(args, store);
  (void)checked_sweep(spec, co, ref, r);  // warm-up

  const double per_sweep = offered(*ex, spec);
  std::vector<double> rates, cpu_ns;
  const HostTicks host0 = host_ticks();
  const double start = now_s();
  while (rates.size() < 5 || now_s() - start < args.seconds) {
    const double c0 = self_cpu_s() + children_cpu_s();
    const double t0 = now_s();
    (void)checked_sweep(spec, co, ref, r);
    const double wall = now_s() - t0;
    const double cpu = self_cpu_s() + children_cpu_s() - c0;
    rates.push_back(per_sweep / wall);
    cpu_ns.push_back(cpu * 1e9 / per_sweep);
  }
  r.steal_share = steal_share(host0, host_ticks());
  std::remove(store.c_str());
  r.capture_packets = ex->population_size();
  add_end_to_end(r, setups, rates, cpu_ns,
                 std::max(proc_peak_rss_mb(0), children_peak_rss_mb()));
  return r;
}

Report trace_grids(const RunArgs& args, const TransportProbe& wire) {
  Report r;
  Ledger L;

  // ---- set-up stages, shared by both grid workloads ----
  const long faults0 = self_minor_faults();
  std::optional<trace::Trace> decoded;
  {
    Scope s(L, "pcap.decode", 0);
    decoded = read_capture(args.pcap);
  }
  const double faults = static_cast<double>(self_minor_faults() - faults0);
  auto ex = std::make_unique<exper::Experiment>(std::move(*decoded));
  {
    Scope s(L, "core.bin", 0);
    (void)ex->binned_cache();
  }
  const auto& cache = ex->binned_cache();
  const std::size_t n = ex->population_size();
  r.capture_packets = n;

  // ---- paper_grid ----
  const auto spec = paper_spec(args.seed);
  const auto grid = grid_of(spec, *ex);
  exper::ParallelRunner runner(kRunnerJobs);
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  const auto warm = runner.run(grid, spec.base_seed, opts);

  // Every cell twice, serially: run_cell untraced (the reference and its
  // time) and rebuilt from the layers' public calls with spans, which must
  // reproduce run_cell bit for bit. The order alternates so neither side
  // always runs on warm caches.
  std::vector<Cell> ref;
  std::vector<double> run_cell_s;
  double traced_wall = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::uint64_t group = i + 1;
    const auto cfg = shard::derived_cell_config(grid[i], spec.base_seed);
    const double fraction = 1.0 / static_cast<double>(cfg.granularity);
    auto untraced = [&] {
      const double t0 = now_s();
      ref.push_back(exper::run_cell(cfg).replications);
      run_cell_s.push_back(now_s() - t0);
    };
    if (i % 2 == 0) untraced();
    Cell reps;
    const double t0 = now_s();
    {
      Scope cell(L, "exper.cell", group);
      const auto population = [&] {
        Scope s(L, "core.score", group);
        return cache.population_histogram(cfg.target, 0, n);
      }();
      for (int rep = 0; rep < cfg.replications; ++rep) {
        const auto indices = [&] {
          Scope s(L, "core.select", group);
          return core::select_indices(exper::replication_spec(cfg, rep), cache,
                                      0, n);
        }();
        L.count("core.select.offered", static_cast<double>(n));
        L.count("core.accumulate.indices", static_cast<double>(indices.size()));
        const auto observed = [&] {
          Scope s(L, "core.accumulate", group);
          return cache.sample_histogram(cfg.target, indices, 0);
        }();
        Scope s(L, "core.score", group);
        reps.push_back(core::score_sample(observed, population, fraction));
      }
    }
    traced_wall += now_s() - t0;
    if (i % 2 == 1) untraced();
    ++r.attempted;
    if (!same_cell(reps, ref[i])) {
      r.fail(1, "traced cell " + std::to_string(i) +
                    " differs from exper::run_cell");
    }
  }
  check_run(warm, ref, r);

  // Untraced: one ParallelRunner pass, for the workload's residual.
  const double c0 = self_cpu_s();
  const double pass0 = now_s();
  const auto rr = runner.run(grid, spec.base_seed, opts);
  const double pass_wall = now_s() - pass0;
  const double pass_cpu = self_cpu_s() - c0;
  check_run(rr, ref, r);
  double busy = 0;
  for (const auto& c : rr.cells) {
    for (const auto& a : c.attempt_log) busy += a.wall_seconds;
  }

  // ---- shard_lease ----
  const std::string store = args.work_dir + "/traced.nstore";
  {
    Scope s(L, "shard.store_write", 0);
    const Status st = shard::write_trace_store(
        store, cache, ex->mean_interarrival_usec(), ex->mean_packet_size());
    if (!st.is_ok()) throw std::runtime_error("store: " + st.message());
  }
  struct stat sb{};
  ::stat(store.c_str(), &sb);
  {
    Scope s(L, "shard.store_map", 0);
    auto opened = shard::TraceStore::open(store, shard::store_backend("mmap"));
    if (!opened.has_value() || opened->packet_count() != n) {
      r.fail(1, "trace store did not reopen");
    }
  }
  const auto hspec = headline_spec(args.seed);
  const auto hgrid = grid_of(hspec, *ex);
  const auto href = reference(hgrid, hspec.base_seed);
  const auto co = one_socket_worker(args, store);
  (void)checked_sweep(hspec, co, href, r);  // warm-up
  std::vector<double> head_cell_s;
  (void)reference(hgrid, hspec.base_seed, &head_cell_s);
  // Untraced and traced sweeps alternate, so host drift hits both alike.
  constexpr int kSweeps = 3;
  std::vector<double> untraced_ms, traced_ms;
  std::optional<shard::ShardReport> last;
  double leases = 0, reassigned = 0, builds = 0;
  for (int k = 0; k < kSweeps; ++k) {
    double s0 = now_s();
    (void)checked_sweep(hspec, co, href, r);
    untraced_ms.push_back((now_s() - s0) * 1e3);
    s0 = now_s();
    {
      Scope s(L, "shard.sweep", 1000000 + k);
      last = checked_sweep(hspec, co, href, r);
    }
    traced_ms.push_back((now_s() - s0) * 1e3);
    if (last) {
      leases += static_cast<double>(last->leases_granted);
      reassigned += static_cast<double>(last->reassignments);
      builds += static_cast<double>(last->worker_cache_builds);
    }
  }
  std::remove(store.c_str());

  // The sweep's own RESULT lines through the wire codec.
  double result_bytes = 0, messages = 0;
  if (last) {
    for (int round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < last->cells.size(); ++i) {
        shard::Message m;
        m.type = shard::MessageType::kResult;
        m.index = i;
        m.text = exper::encode_replications(last->cells[i].replications);
        const std::string line = [&] {
          Scope s(L, "shard.wire_format", 2000000 + i);
          return shard::format_message(m);
        }();
        shard::Message back;
        const bool parsed = [&] {
          Scope s(L, "shard.wire_parse", 2000000 + i);
          return shard::parse_message(line, &back);
        }();
        if (!parsed || back.text != m.text) {
          r.fail(1, "RESULT line did not round-trip");
        }
        result_bytes += static_cast<double>(line.size() + 1);
        messages += 1;
      }
    }
  }

  // ---- per-layer metrics ----
  const auto st = L.stages();
  auto self = [&st](const char* name) { return stage(st, name).self_s; };
  auto spans = [&st](const char* name) { return stage(st, name).spans; };
  const double dn = static_cast<double>(n);
  const double cells = static_cast<double>(grid.size());
  const double stage_sum =
      self("core.select") + self("core.accumulate") + self("core.score");
  const double cell_total = stage(st, "exper.cell").total_s;

  r.add("pcap.decode.ns_per_pkt", self("pcap.decode") * 1e9 / dn, "ns", 1);
  r.add("pcap.decode.faults_per_pkt", faults / dn, "count", 1);
  r.add("core.bin.ns_per_pkt", self("core.bin") * 1e9 / dn, "ns", 1);
  r.add("core.select.ns_per_offered",
        self("core.select") * 1e9 / L.counted("core.select.offered"), "ns",
        spans("core.select"));
  r.add("core.select.share", self("core.select") / cell_total, "ratio",
        spans("core.select"));
  r.add("core.accumulate.ns_per_index",
        self("core.accumulate") * 1e9 / L.counted("core.accumulate.indices"),
        "ns", spans("core.accumulate"));
  r.add("core.score.ns_per_cell", self("core.score") * 1e9 / cells, "ns",
        spans("core.score"));
  r.add("exper.run.busy_share", busy / (kRunnerJobs * pass_wall), "ratio",
        rr.cells.size());
  r.add("exper.run.cpu_per_wall", pass_cpu / pass_wall, "ratio", 1);
  r.add("exper.cell.residual_share",
        (sum(run_cell_s) - stage_sum) / sum(run_cell_s), "ratio",
        grid.size());
  r.add("paper_grid.residual_share", (pass_cpu - stage_sum) / pass_cpu,
        "ratio", 1);
  r.add("paper_grid.trace_overhead_share",
        (traced_wall - sum(run_cell_s)) / sum(run_cell_s), "ratio",
        grid.size());

  const double hcells = static_cast<double>(hgrid.size());
  const double sweep_ms = median(untraced_ms);
  r.add("shard.store_write.ms", self("shard.store_write") * 1e3, "ms", 1);
  r.add("shard.store_write.bytes_per_pkt", static_cast<double>(sb.st_size) / dn,
        "B", 1);
  r.add("shard.store_map.ms", self("shard.store_map") * 1e3, "ms", 1);
  r.add("shard.sweep.ms", median(traced_ms), "ms", traced_ms.size());
  r.add("shard.overhead.ms_per_cell",
        (sweep_ms - sum(head_cell_s) * 1e3) / hcells, "ms", untraced_ms.size());
  r.add("shard.leases", leases / kSweeps, "count", kSweeps);
  r.add("shard.reassignments", reassigned / kSweeps, "count", kSweeps);
  r.add("shard.worker_builds", builds / kSweeps, "count", kSweeps);
  r.add("shard.wire_format.ns_per_msg",
        self("shard.wire_format") * 1e9 / messages, "ns",
        spans("shard.wire_format"));
  r.add("shard.wire_parse.ns_per_msg",
        self("shard.wire_parse") * 1e9 / messages, "ns",
        spans("shard.wire_parse"));
  r.add("shard.wire.bytes_per_result", result_bytes / messages, "B",
        spans("shard.wire_format"));
  r.add("shard.lease_rtt.us", wire.small_rtt_s * 1e6, "us", wire.samples);
  r.add("shard.transport.ns_per_byte", wire.ns_per_byte, "ns", wire.samples);
  // What the sweep's stages explain: the store map, the cells themselves,
  // each RESULT through the codec and each lease's round trip.
  const double explained_ms =
      self("shard.store_map") * 1e3 + sum(head_cell_s) * 1e3 +
      (self("shard.wire_format") + self("shard.wire_parse")) * 1e3 / messages *
          hcells +
      leases / kSweeps * wire.small_rtt_s * 1e3;
  r.add("shard_lease.residual_share", (sweep_ms - explained_ms) / sweep_ms,
        "ratio", untraced_ms.size());
  r.add("shard_lease.trace_overhead_share",
        median(traced_ms) / sweep_ms - 1.0, "ratio", traced_ms.size());

  L.print("grid ledger");
  return r;
}

}  // namespace perfbench
