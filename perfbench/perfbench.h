// Shared plumbing of the benchmark program (README.md describes the
// workloads and every metric): clocks, CPU and memory of the program's
// processes read from outside, the in-memory span ledger of traced runs,
// and the report every workload returns.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Settings of one workload run, from the command line.
struct RunArgs {
  std::string pcap;       // the capture generated from the seed
  std::string netsample;  // the CLI binary: serve daemon and shard worker
  std::string work_dir;   // working files (the trace store) go here
  std::uint64_t seed{1};
  double seconds{10};     // length of the timed phase
};

// ---- clocks and outside accounting ---------------------------------------

[[nodiscard]] double now_s();  // steady clock
/// User + system CPU of this process (all threads) / of its reaped children.
[[nodiscard]] double self_cpu_s();
[[nodiscard]] double children_cpu_s();
[[nodiscard]] long self_minor_faults();
/// User + system CPU of a live process, from /proc/<pid>/stat.
[[nodiscard]] double proc_cpu_s(pid_t pid);
/// Peak RSS (VmHWM) of a live process in MiB; pid 0 reads this process.
[[nodiscard]] double proc_peak_rss_mb(pid_t pid);
/// Peak RSS of the largest reaped child, in MiB.
[[nodiscard]] double children_peak_rss_mb();

/// The host's CPU time counters (/proc/stat, all CPUs): the share of time
/// the hypervisor ran something else while this VM wanted to run, over an
/// interval, explains wall-clock swings that CPU time does not show.
struct HostTicks {
  double steal{0};
  double total{0};
};
[[nodiscard]] HostTicks host_ticks();
[[nodiscard]] double steal_share(const HostTicks& from, const HostTicks& to);

/// stats::quantile_sorted of a copy (linear interpolation, q in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// FNV-1a 64, chained: pass the previous hash to extend it.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 1469598103934665603ULL);

/// A child process started from argv, optionally with its stdout on a pipe.
struct Child {
  pid_t pid{-1};
  int stdout_fd{-1};
};
[[nodiscard]] Child spawn(const std::vector<std::string>& argv,
                          bool capture_stdout);
/// Reads one '\n'-terminated line from fd (blocking); "" on EOF.
[[nodiscard]] std::string read_fd_line(int fd);
/// SIGTERM, then wait; true when the process exited with status 0.
[[nodiscard]] bool terminate_and_wait(Child& child);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::uint64_t samples{0};  // measurements the value summarizes
};

/// What one workload run returns: operations attempted and failed (a
/// mismatch against the reference counts as failed), and its metrics.
struct Report {
  std::size_t capture_packets{0};
  double steal_share{0};  // host steal during the timed phase
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;  // the first few failures, for the log
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples);
  void fail(std::uint64_t ops, const std::string& why);
  void merge(const Report& other);
};

// ---- traced runs ------------------------------------------------------------

/// Spans of a traced run, kept in memory and summarized when the run ends.
/// Every span has a name, start, end and parent; all spans of one cell or
/// one session share a group id. Spans nest on one thread, so a stage's
/// self time is its duration minus the time its direct children cover.
class Ledger {
 public:
  /// A span nested in the innermost open one (see Scope).
  std::uint64_t open(const std::string& name, std::uint64_t group);
  void close(std::uint64_t id);
  /// A span with an explicit parent and start, for replies the closed loop
  /// waits for while other sessions' spans interleave.
  std::uint64_t begin(const std::string& name, std::uint64_t group,
                      std::uint64_t parent, double start = now_s());
  void end(std::uint64_t id);
  /// Work counted at a stage boundary (packets offered, indices, ...).
  void count(const std::string& what, double n) { counts_[what] += n; }

  struct Stage {
    double self_s{0};
    double total_s{0};
    std::uint64_t spans{0};
    std::uint64_t groups{0};  // distinct cells or sessions with this stage
  };
  [[nodiscard]] std::map<std::string, Stage> stages() const;
  [[nodiscard]] double counted(const std::string& what) const;
  /// The per-stage self times and counts, one line per stage.
  void print(const char* title) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t parent{0};
    std::uint64_t group{0};
    double start{0};
    double end{0};
  };
  std::vector<Span> spans_;  // id = index + 1
  std::vector<std::uint64_t> open_;
  std::map<std::string, double> counts_;
};

/// One stage of a stages() result; a stage that never ran reads as zero.
[[nodiscard]] Ledger::Stage stage(
    const std::map<std::string, Ledger::Stage>& stages,
    const std::string& name);

/// RAII span.
class Scope {
 public:
  Scope(Ledger& ledger, const std::string& name, std::uint64_t group)
      : ledger_(ledger), id_(ledger.open(name, group)) {}
  ~Scope() { ledger_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger& ledger_;
  std::uint64_t id_;
};

// ---- workloads -------------------------------------------------------------

[[nodiscard]] Report run_paper_grid(const RunArgs& args);
[[nodiscard]] Report run_shard_lease(const RunArgs& args);
[[nodiscard]] Report run_serve_windows(const RunArgs& args);

/// Round trip of one line over a loopback Listener/dial pair, the cost the
/// lease and serve wires share. Measured once per traced run.
struct TransportProbe {
  double small_rtt_s{0};      // a LEASE-sized line there and back
  double ns_per_byte{0};      // one-way cost per byte of a long line
  std::uint64_t samples{0};
};
[[nodiscard]] TransportProbe probe_transport(std::size_t round_trips);

/// Traced runs: each splits one workload into its stages (per-layer
/// metrics), with its residual against an untraced run in the same process
/// and the tracing overhead.
[[nodiscard]] Report trace_grids(const RunArgs& args,
                                 const TransportProbe& wire);
[[nodiscard]] Report trace_serve_windows(const RunArgs& args,
                                         const TransportProbe& wire);

}  // namespace perfbench
