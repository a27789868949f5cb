// netsample -- command-line front end to the whole library.
//
//   netsample generate --minutes 10 --seed 23 --out trace.pcap [--poisson]
//   netsample inspect  trace.pcap
//   netsample sample   trace.pcap --method systematic --k 50 --out out.pcap
//   netsample score    trace.pcap --method systematic --k 50 [--reps 5]
//   netsample flows    trace.pcap [--timeout 30] [--top 10]
//   netsample flows    trace.pcap --sweep [--estimators rescale,em]
//                      [--grid-k 10,100,1000] [--flow-cap N] [--workers N]
//   netsample design   --mu 232 --sigma 236 --accuracy 5 [--population N]
//   netsample charact  trace.pcap [--node t1|t3] [--k 50]
//   netsample impair   trace.pcap --method systematic --k 50 [--fault all]
//   netsample watch    trace.pcap --method systematic --k 50 --window 5
//   netsample serve    [--listen 127.0.0.1:0] [--lanes N] [--max-sessions N]
//   netsample loadgen  trace.pcap --connect HOST:PORT [--sessions N]
//   netsample stats    metrics.json [--masked]
//   netsample sweep    trace.pcap [--workers N] [--resume journal.ckpt]
//   netsample worker   --store trace.nstore   (spawned by sweep, not users)
//   netsample journal  compact journal.ckpt
//
// score/impair (and the figure binaries) accept --metrics-out FILE /
// --trace-out FILE to export an observability snapshot of the run;
// `netsample stats` pretty-prints one, and with --masked emits the
// deterministic-only JSON that golden tests diff (docs/OBSERVABILITY.md).
//
// Every subcommand is a thin veneer over the public API; see examples/ for
// annotated versions of the same flows.
//
// Exit codes follow the sysexits convention (see docs/ROBUSTNESS.md):
//   0 success, 64 usage / bad input, 65 data loss (corrupt capture),
//   70 internal failure, 75 deadline exceeded or cancelled.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "netsample/netsample.h"
#include "tools/cli_args.h"

using namespace netsample;

namespace {

// sysexits-style mapping so scripts can distinguish "your fault" (64),
// "your data's fault" (65), "our fault" (70), and "ran out of time" (75).
constexpr int kExitUsage = 64;
constexpr int kExitDataLoss = 65;
constexpr int kExitInternal = 70;
constexpr int kExitDeadline = 75;

int exit_code_for(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound: return kExitUsage;
    case StatusCode::kDataLoss: return kExitDataLoss;
    case StatusCode::kUnimplemented:
    case StatusCode::kInternal: return kExitInternal;
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded: return kExitDeadline;
  }
  return kExitInternal;
}

int fail(const Status& status) {
  std::cerr << "error: " << status.to_string() << "\n";
  return exit_code_for(status);
}

int usage() {
  std::cout <<
      "netsample -- packet sampling methodology toolkit\n"
      "usage: netsample <command> [args]\n\n"
      "commands:\n"
      "  generate   synthesize a calibrated SDSC-like trace to a pcap file\n"
      "  inspect    summarize a pcap capture (Tables 2/3 style)\n"
      "  sample     draw a sampled sub-trace and write it as pcap\n"
      "  score      score a sampling discipline against the capture (phi)\n"
      "  flows      assemble 5-tuple flows and print top talkers; with\n"
      "             --sweep, run the sampled-flow inversion workload\n"
      "  design     Cochran sample-size planning\n"
      "  charact    run the NSFNET characterization objects\n"
      "  impair     sweep measurement impairments and report phi degradation\n"
      "  watch      stream a capture and emit windowed phi snapshots\n"
      "  serve      multi-tenant streaming scoring daemon: watch sessions\n"
      "             multiplexed over TCP with per-tenant budgets\n"
      "  loadgen    replay a capture as N concurrent serve sessions and\n"
      "             assert latency and cross-session determinism\n"
      "  stats      pretty-print a --metrics-out JSON snapshot\n"
      "  sweep      score the whole method x k grid, optionally sharded\n"
      "             over --workers N processes on a memory-mapped store\n"
      "  worker     sharded-sweep worker (spawned by sweep; speaks the\n"
      "             lease protocol on stdin/stdout)\n"
      "  journal    maintain checkpoint journals (journal compact FILE)\n"
      "run 'netsample <command> --help' for flags.\n";
  return kExitUsage;
}

// Numeric flag ranges: a seed, k or population may be any u64 (k >= 1: the
// library divides by it); replications stop where the SweepSpec and
// SessionSpec codecs stop; other counts and reals get a generous bound.
constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxCount = 1000000000;
constexpr std::uint64_t kMaxReps = 1000000;
constexpr double kMaxReal = 1e9;

/// Every numeric flag reads through the shared checked readers
/// (tools/cli_args.h): the whole token, inside the flag's range, or a usage
/// error (64) that names the flag.
template <class T = std::uint64_t>
T count_flag(const ArgParser& args, const std::string& name,
             std::uint64_t max_value, std::uint64_t min_value = 0) {
  return static_cast<T>(tools::checked_count("--" + name, args.get_string(name),
                                             max_value, min_value));
}

double real_flag(const ArgParser& args, const std::string& name,
                 double max_value = kMaxReal) {
  return tools::checked_real("--" + name, args.get_string(name), max_value);
}

/// Load a capture honoring --strict / --salvage, surfacing every counter the
/// parse and decode produced so a dirty capture is never silently "fine".
/// `out` lets machine-readable commands (impair --csv) divert the human
/// summary to stderr and keep stdout pure.
StatusOr<trace::Trace> load(const std::string& path, const ArgParser& args,
                            std::ostream& out = std::cout) {
  pcap::ParseOptions options;
  if (args.get_bool("strict")) options.on_corrupt = pcap::OnCorrupt::kFail;
  if (args.get_bool("salvage")) options.on_corrupt = pcap::OnCorrupt::kSalvage;
  pcap::ParseStats parse_stats;
  pcap::DecodeStats stats;
  auto t = pcap::read_trace(path, options, &parse_stats, &stats);
  if (t) {
    out << path << ": " << fmt_count(stats.decoded) << " IPv4 packets ("
        << stats.non_ipv4 << " non-IPv4, " << stats.malformed
        << " malformed skipped)\n";
    if (!parse_stats.clean()) {
      out << "  data loss: " << parse_stats.corrupt_records
          << " corrupt records, " << parse_stats.skipped_bytes
          << " bytes skipped resyncing, " << parse_stats.torn_tail_bytes
          << " torn tail bytes\n";
    }
  }
  return t;
}

/// Translate --on-error / --retries / --cell-timeout / --resume into sweep
/// RunOptions. The journal (when --resume is given) is owned by the caller
/// so it outlives the run.
exper::RunOptions sweep_options(const ArgParser& args,
                                exper::CheckpointJournal* journal) {
  exper::RunOptions opts;
  const std::string policy = args.get_string("on-error");
  if (policy == "abort") {
    opts.on_error = exper::FailPolicy::kAbort;
  } else if (policy == "skip") {
    opts.on_error = exper::FailPolicy::kSkip;
  } else if (policy == "retry") {
    opts.on_error = exper::FailPolicy::kRetry;
  } else {
    throw std::invalid_argument("unknown --on-error '" + policy +
                                "' (abort|skip|retry)");
  }
  opts.max_attempts = 1 + count_flag<int>(args, "retries", 1000);
  opts.cell_timeout_seconds = real_flag(args, "cell-timeout");
  opts.journal = journal;
  return opts;
}

core::Method parse_method(const std::string& name) {
  if (name == "systematic") return core::Method::kSystematicCount;
  if (name == "stratified") return core::Method::kStratifiedCount;
  if (name == "random") return core::Method::kSimpleRandom;
  if (name == "timer-systematic") return core::Method::kSystematicTimer;
  if (name == "timer-stratified") return core::Method::kStratifiedTimer;
  throw std::invalid_argument(
      "unknown method '" + name +
      "' (systematic|stratified|random|timer-systematic|timer-stratified)");
}

int cmd_generate(ArgParser& args) {
  const double minutes = real_flag(args, "minutes");
  const std::uint64_t seed = count_flag(args, "seed", kAnyCount);
  const std::string out = args.get_string("out");

  if (args.get_bool("flow-mix") && args.get_bool("poisson")) {
    std::cerr << "error: --flow-mix and --poisson are mutually exclusive "
                 "(one adds flow-train structure, the other removes it)\n";
    return kExitUsage;
  }
  auto cfg = args.get_bool("flow-mix")
                 ? synth::flow_mix_minutes_config(minutes, seed)
                 : synth::sdsc_minutes_config(minutes, seed);
  if (args.get_bool("poisson")) cfg = synth::poissonified(cfg);
  synth::TraceModel model(cfg);
  const auto t = model.generate();
  const auto status = pcap::write_trace(out, t, 128);
  if (!status.is_ok()) return fail(status);
  std::cout << "wrote " << fmt_count(t.size()) << " packets ("
            << fmt_double(t.view().duration().to_seconds(), 1) << " s) to "
            << out << "\n";
  return 0;
}

int cmd_inspect(ArgParser& args) {
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  const auto pop = trace::summarize_population(t->view());
  const auto ps = trace::summarize_per_second(t->view());
  TextTable table({"distribution", "min", "5%", "25%", "median", "75%", "95%",
                   "max", "mean", "stddev"});
  auto add = [&](const std::string& name, const stats::Summary& s, int prec) {
    table.add_row({name, fmt_double(s.min, prec), fmt_double(s.p5, prec),
                   fmt_double(s.q1, prec), fmt_double(s.median, prec),
                   fmt_double(s.q3, prec), fmt_double(s.p95, prec),
                   fmt_double(s.max, prec), fmt_double(s.mean, 1),
                   fmt_double(s.stddev, 1)});
  };
  add("packet size (B)", pop.packet_size, 0);
  add("interarrival (us)", pop.interarrival, 0);
  add("packets/s", ps.packet_rate, 0);
  add("kB/s", ps.kilobyte_rate, 1);
  add("mean pkt size (B)", ps.mean_packet_size, 0);
  table.print(std::cout);
  return 0;
}

int cmd_sample(ArgParser& args) {
  core::SamplerSpec spec;
  spec.method = parse_method(args.get_string("method"));
  spec.granularity = count_flag(args, "k", kAnyCount, 1);
  spec.seed = count_flag(args, "seed", kAnyCount);

  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));
  spec.population = ex.population_size();
  spec.mean_interarrival_usec = ex.mean_interarrival_usec();
  auto sampler = core::make_sampler(spec);

  const auto sample = core::draw(ex.full(), *sampler);
  trace::Trace sampled(sample.packets());
  std::cout << sampler->name() << " selected " << fmt_count(sampled.size())
            << " of " << fmt_count(ex.population_size()) << " packets ("
            << fmt_double(100.0 * sample.fraction(), 3) << "%)\n";
  if (args.has("out")) {
    const std::string out = args.get_string("out");
    const auto status = pcap::write_trace(out, sampled, 128);
    if (!status.is_ok()) return fail(status);
    std::cout << "wrote sampled trace to " << out << "\n";
  }
  return 0;
}

int cmd_score(ArgParser& args, const tools::CommonOptions& common) {
  exper::CellConfig cfg;
  cfg.method = parse_method(args.get_string("method"));
  cfg.granularity = count_flag(args, "k", kAnyCount, 1);
  cfg.replications = count_flag<int>(args, "reps", kMaxReps, 1);
  cfg.base_seed = count_flag(args, "seed", kAnyCount);
  exper::RunOptions ropts = sweep_options(args, nullptr);

  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));
  cfg.interval = ex.full();
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.cache = &ex.binned_cache();

  const std::string which = args.get_string("target");

  // Proportion-based (Section 8) targets score through the categorical
  // machinery; "both" / "size" / "iat" use the paper's histogram targets.
  if (which == "ports" || which == "protocols" || which == "netmatrix") {
    const auto key_fn = which == "ports"       ? core::service_port_key()
                        : which == "protocols" ? core::protocol_key()
                                               : core::network_pair_key();
    const core::CategoricalTarget target(which, key_fn, cfg.interval);
    TextTable table({"replication", "phi", "chi2 sig", "coverage %"});
    for (int r = 0; r < cfg.replications; ++r) {
      auto sampler = core::make_sampler(exper::replication_spec(cfg, r));
      const auto sample = core::draw(cfg.interval, *sampler);
      const auto counts = target.sample_counts(sample);
      const auto m =
          core::score_counts(counts, target.population_counts(),
                             1.0 / static_cast<double>(cfg.granularity));
      table.add_row({std::to_string(r), fmt_double(m.phi, 4),
                     fmt_double(m.significance, 4),
                     fmt_double(100.0 * target.coverage(counts), 1)});
    }
    std::cout << which << ": " << target.category_count()
              << " categories in the population\n";
    table.print(std::cout);
    return 0;
  }

  // The histogram targets are independent grid cells; fan them out over the
  // parallel runner. Seeds derive from cell coordinates, so the scores are
  // identical at every --jobs level.
  std::vector<exper::GridTask> tasks;
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    if (which == "size" && target != core::Target::kPacketSize) continue;
    if (which == "iat" && target != core::Target::kInterarrivalTime) continue;
    cfg.target = target;
    tasks.push_back({cfg, 0});
  }
  exper::CheckpointJournal journal;
  if (args.has("resume")) {
    auto opened = exper::CheckpointJournal::open(args.get_string("resume"));
    if (!opened) return fail(opened.status());
    journal = std::move(*opened);
    std::cout << "journal " << journal.path() << ": " << journal.size()
              << " cells already complete";
    if (journal.dropped_lines() > 0) {
      std::cout << " (" << journal.dropped_lines() << " torn lines dropped)";
    }
    std::cout << "\n";
    ropts.journal = &journal;
  }

  exper::ParallelRunner runner(common.jobs);
  // The unified presentation path: RunReport -> Result<T> -> emit. The same
  // rows render as CSV/JSON lines for any machine consumer of the facade.
  const auto result = as_result(runner.run(tasks, cfg.base_seed, ropts));
  emit(result.rows, RowFormat::kAligned, std::cout);
  for (const std::size_t i : result->quarantined()) {
    std::cerr << "quarantined: cell " << i << " ("
              << core::target_name(tasks[i].config.target) << ") after "
              << result->cells[i].attempts << " attempt(s): "
              << result->cells[i].status.to_string() << "\n";
  }
  if (!result.ok()) return fail(result.status);
  return 0;
}

int cmd_impair(ArgParser& args) {
  const bool csv = args.get_bool("csv");
  // In CSV mode stdout carries nothing but the header and data rows; the
  // human-facing summary moves to stderr.
  std::ostream& info = csv ? std::cerr : std::cout;

  // Intensity ladder: comma-separated per-record probabilities, each
  // checked as a whole token before the capture is read.
  std::vector<double> intensities;
  for (const auto& item : tools::list_items(args.get_string("intensity"))) {
    intensities.push_back(tools::checked_real("--intensity", item, 1.0));
  }
  if (intensities.empty()) {
    throw std::invalid_argument("--intensity needs at least one value");
  }
  const auto method = parse_method(args.get_string("method"));
  const std::uint64_t k = count_flag(args, "k", kAnyCount, 1);
  const int reps = count_flag<int>(args, "reps", kMaxReps, 1);
  const std::uint64_t seed = count_flag(args, "seed", kAnyCount);

  auto loaded = load(args.positionals().at(0), args, info);
  if (!loaded) return fail(loaded.status());
  const trace::Trace clean = std::move(*loaded);

  // Which faults to sweep.
  std::vector<faultsim::Fault> faults;
  const std::string fault_arg = args.get_string("fault");
  if (fault_arg == "all") {
    faults = faultsim::all_faults();
  } else {
    auto parsed = faultsim::parse_fault(fault_arg);
    if (!parsed) return fail(parsed.status());
    faults.push_back(*parsed);
  }

  // Scoring harness: mean phi of `reps` replications against the packet-size
  // target. Impaired traces differ per (fault, intensity), so no shared bin
  // cache covers them: run_cell bins a private one for each trace's cell.
  const auto score_phi = [&](const trace::Trace& t) {
    exper::CellConfig cfg;
    cfg.method = method;
    cfg.target = core::Target::kPacketSize;
    cfg.granularity = k;
    cfg.interval = t.view();
    cfg.mean_interarrival_usec =
        trace::summarize_population(t.view()).interarrival.mean;
    cfg.replications = reps;
    cfg.base_seed = seed;
    return exper::run_cell(cfg).phi_mean();
  };
  const double baseline = score_phi(clean);
  info << "clean capture: " << fmt_count(clean.size())
       << " packets, baseline mean phi " << fmt_double(baseline, 4) << " ("
       << args.get_string("method") << ", k=" << k << ")\n";
  // One Table for both presentations: aligned text for humans, CSV (same
  // columns, same cells) for machines. The loss counters that used to be
  // CSV-only are worth seeing in the human table too.
  Table table;
  table.columns = {"fault",      "intensity",       "affected",
                   "packets",    "clamped",         "quarantined",
                   "corrupt_records", "skipped_bytes", "phi", "delta_phi"};
  for (const faultsim::Fault fault : faults) {
    for (const double intensity : intensities) {
      faultsim::ImpairmentSpec spec;
      spec.fault = fault;
      spec.intensity = intensity;
      spec.seed = derive_seed({seed, static_cast<std::uint64_t>(fault)});

      trace::Trace impaired;
      faultsim::ImpairmentReport rep;
      trace::AppendStats astats;
      pcap::ParseStats pstats;
      if (fault == faultsim::Fault::kTruncateRecords ||
          fault == faultsim::Fault::kBitFlips) {
        // Byte-level: corrupt the serialized capture, then ingest it back
        // through the salvage path exactly as a tool reading a damaged file
        // would.
        auto bytes = pcap::serialize(pcap::encode(clean, 128));
        rep = faultsim::impair_pcap_bytes(bytes, spec);
        pcap::ParseOptions popts;
        popts.on_corrupt = pcap::OnCorrupt::kSalvage;
        auto parsed = pcap::parse(bytes, popts, &pstats);
        if (!parsed) return fail(parsed.status());
        impaired = pcap::decode(*parsed);
      } else {
        impaired =
            faultsim::impair_trace(clean, spec, trace::TimePolicy::kClamp,
                                   &rep, &astats);
      }
      const double phi = impaired.size() > 1
                             ? score_phi(impaired)
                             : std::numeric_limits<double>::quiet_NaN();
      table.add_row({faultsim::fault_name(fault), fmt_double(intensity, 3),
                     std::to_string(rep.affected),
                     std::to_string(impaired.size()),
                     std::to_string(astats.clamped),
                     std::to_string(astats.quarantined),
                     std::to_string(pstats.corrupt_records),
                     std::to_string(pstats.skipped_bytes),
                     fmt_double(phi, 4), fmt_double(phi - baseline, 4)});
    }
  }
  emit(table, csv ? RowFormat::kCsv : RowFormat::kAligned, std::cout);
  return 0;
}

/// Session description shared by `watch`, `serve` defaults, and `loadgen`:
/// the watch flag vocabulary maps 1:1 onto the facade's SessionSpec (API
/// v1.1), and the one validator behind watch and serve OPEN runs here — a
/// bad combination is kInvalidArgument (exit 64) before any capture opens.
SessionSpec session_spec_from_args(const ArgParser& args) {
  SessionSpec spec;
  spec.method = parse_method(args.get_string("method"));
  spec.granularity = count_flag(args, "k", kAnyCount, 1);
  spec.replications = count_flag<int>(args, "reps", kMaxReps, 1);
  spec.seed = count_flag(args, "seed", kAnyCount);
  spec.targets = args.get_string("target");
  spec.window_s = real_flag(args, "window");
  spec.stride_s = real_flag(args, "stride");
  spec.population = count_flag(args, "population", kAnyCount);
  spec.mean_iat_usec = real_flag(args, "mean-iat");
  spec.chunk_packets = count_flag(args, "chunk", kMaxCount, 1);
  spec.ring_capacity = count_flag(args, "ring", kMaxCount, 1);
  spec.deadline_s = real_flag(args, "deadline");
  spec.tenant = args.get_string("tenant");
  const Status status = validate_session_spec(spec);
  if (!status.is_ok()) throw StatusError(status);
  return spec;
}

/// `netsample watch` — the streaming scorer on a capture: the pcap is
/// decoded record-at-a-time through the SPSC pipeline into a stream::Engine,
/// which emits one row per (window, lane) as snapshots tick by. Memory is
/// O(window), never O(trace); stdout carries nothing but the rows.
///
/// Since API v1.1 the engine is built entirely from a SessionSpec — the same
/// struct `serve` decodes from an OPEN line — so a serve session's ROWS
/// payloads are byte-identical to this subcommand's jsonl by construction.
int cmd_watch(ArgParser& args) {
  const std::string format = args.get_string("format");
  if (format != "jsonl" && format != "csv") {
    throw std::invalid_argument("unknown --format '" + format +
                                "' (jsonl|csv)");
  }
  const SessionSpec spec = session_spec_from_args(args);

  util::CancelToken cancel;
  cancel.set_deadline_after(spec.deadline_s);
  stream::Engine engine(session_lanes(spec),
                        session_engine_options(spec, &cancel));

  const std::vector<std::string>& columns = session_row_columns();
  if (format == "csv") std::cout << csv_line(columns) << "\n";
  const auto emit_score = [&](const stream::WindowScore& w) {
    for (const auto& cells : session_row_cells(w)) {
      std::cout << (format == "csv" ? csv_line(cells)
                                    : json_line(columns, cells))
                << "\n";
    }
  };
  engine.on_snapshot(emit_score);

  stream::PcapSource source(args.positionals().at(0));
  if (!source.ok()) return fail(source.status());

  stream::PipelineOptions popts;
  popts.chunk_packets = spec.chunk_packets;
  popts.ring_capacity = spec.ring_capacity;
  popts.cancel = &cancel;
  const auto report = stream::run_pipeline(source, engine, popts);
  if (!report.status.is_ok()) return fail(report.status);
  emit_score(engine.finish());

  // Stream health goes to stderr so the machine rows on stdout stay pure.
  const auto& ds = source.decode_stats();
  std::cerr << args.positionals().at(0) << ": " << fmt_count(report.packets)
            << " packets in " << fmt_count(report.chunks) << " chunks ("
            << ds.non_ipv4 << " non-IPv4, " << ds.malformed << " malformed, "
            << source.clamped() << " clamped timestamps); ring peak "
            << report.ring.occupancy_peak << "/" << popts.ring_capacity
            << ", blocked pushes " << report.ring.blocked_pushes << "\n";
  return 0;
}

// `serve` leaves cleanly on SIGTERM/SIGINT: the handlers only raise a flag,
// the daemon's poll loop notices it via ServeOptions::stop_check and drains
// every open session (final ROWS + CLOSED) before run() returns — the same
// discipline as the sharded worker's clean departure.
volatile std::sig_atomic_t g_serve_stop = 0;
void serve_stop_handler(int) { g_serve_stop = 1; }

/// Installs the drain-on-signal handlers for the rest of the process, before
/// the daemon binds, and never restores the default action: a SIGTERM sent
/// the moment the `listening` banner appears, or repeated while the drain,
/// the Server destructor and the metrics write finish, only raises the flag,
/// so the process still exits 0. No SA_RESTART: poll() must wake with EINTR
/// so the flag is seen promptly. SIGPIPE is ignored for the whole process —
/// a client that disconnects mid-write must surface as EPIPE on that
/// transport, not kill the daemon.
void install_serve_signal_handlers() {
  g_serve_stop = 0;
  struct sigaction sa{};
  sa.sa_handler = serve_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

/// `netsample serve` — the multi-tenant streaming scoring daemon
/// (docs/SERVING.md): sessions arrive over TCP as OPEN lines carrying an
/// encoded SessionSpec, each one scored by a per-session engine fed from a
/// bounded ring and drained on a shared lane pool. --max-sessions /
/// --max-ring-bytes / --max-pps set the default per-tenant budget (0 =
/// unlimited). Prints `listening HOST:PORT` to stdout (flushed) once bound
/// so scripts can parse the ephemeral port, then serves until
/// SIGTERM/SIGINT and exits 0 after the drain.
int cmd_serve(ArgParser& args) {
  serve::ServeOptions sopts;
  sopts.listen = args.get_string("listen");
  sopts.lanes = count_flag(args, "lanes", 4096);
  sopts.default_budget.max_sessions =
      count_flag(args, "max-sessions", kMaxCount);
  sopts.default_budget.max_ring_bytes =
      count_flag(args, "max-ring-bytes", 2000000000);
  sopts.default_budget.max_pps = real_flag(args, "max-pps", 1e12);
  sopts.stop_check = [] { return g_serve_stop != 0; };

  install_serve_signal_handlers();
  serve::Server server(std::move(sopts));
  server.start();  // StatusError on a bad/busy bind (exit 64)
  std::cout << "listening " << server.address() << "\n" << std::flush;
  server.run();

  const serve::ServeStats s = server.stats();
  std::cerr << "serve: " << s.sessions_opened << " opened, "
            << s.sessions_closed << " closed, " << s.sessions_rejected
            << " rejected, " << s.sessions_shed << " shed; "
            << fmt_count(s.packets) << " packets in, " << fmt_count(s.rows)
            << " rows out\n";
  return 0;
}

/// `netsample loadgen` — drive a running serve daemon with N concurrent
/// sessions replaying the capture and assert the serving contract: every
/// un-shed session reaches CLOSED, sessions sharing a seed group emit
/// byte-identical rows however the daemon interleaved them, and (with
/// --p99-ms) the p99 CLOSE->CLOSED latency stays under the bound. The
/// capture is read through stream::PcapSource so the packet sequence —
/// clamping rule included — is exactly what `watch` scores, which is what
/// makes --dump-rows byte-diffable against a watch run.
int cmd_loadgen(ArgParser& args) {
  if (!args.has("connect")) {
    std::cerr << "error: loadgen requires --connect HOST:PORT (a running "
                 "`netsample serve`)\n";
    return kExitUsage;
  }
  serve::LoadgenOptions lopts;
  lopts.connect = args.get_string("connect");
  auto hp = shard::parse_host_port(lopts.connect);
  if (!hp.has_value()) return fail(hp.status());
  lopts.sessions = count_flag(args, "sessions", 1000000);
  lopts.connections = count_flag(args, "connections", 100000);
  lopts.seed_groups = count_flag(args, "seed-groups", 1000000);
  lopts.feed_packets = count_flag(args, "feed-chunk", kMaxCount);
  if (lopts.sessions == 0 || lopts.connections == 0 ||
      lopts.seed_groups == 0 || lopts.feed_packets == 0) {
    throw std::invalid_argument(
        "loadgen --sessions/--connections/--seed-groups/--feed-chunk must "
        "be >= 1");
  }
  lopts.p99_ms = real_flag(args, "p99-ms");
  if (args.has("dump-rows")) lopts.dump_rows_path = args.get_string("dump-rows");
  lopts.close_sessions = !args.get_bool("no-close");
  lopts.spec = session_spec_from_args(args);
  // --deadline bounds the whole drill (daemons that wedge must fail it),
  // not each session: a per-session deadline would shed under load and
  // make the latency assertion vacuous.
  const double deadline = real_flag(args, "deadline");
  if (deadline > 0) lopts.timeout_s = deadline;
  lopts.spec.deadline_s = 0;

  std::vector<trace::PacketRecord> packets;
  {
    stream::PcapSource source(args.positionals().at(0));
    if (!source.ok()) return fail(source.status());
    std::vector<trace::PacketRecord> chunk;
    while (true) {
      chunk.clear();
      if (!source.next_chunk(4096, chunk)) break;
      packets.insert(packets.end(), chunk.begin(), chunk.end());
    }
    if (!source.status().is_ok()) return fail(source.status());
  }

  std::signal(SIGPIPE, SIG_IGN);  // daemon death -> report, not our death
  const serve::LoadgenReport report = serve::run_loadgen(lopts, packets);
  std::cerr << "loadgen: " << report.completed << "/" << report.sessions
            << " sessions closed, " << report.shed << " shed, "
            << report.rejected << " rejected, " << fmt_count(report.rows)
            << " rows; p99 " << fmt_double(report.p99_ms, 2) << " ms, max "
            << fmt_double(report.max_ms, 2) << " ms, "
            << (report.deterministic ? "deterministic" : "NONDETERMINISTIC")
            << "\n";
  if (!report.ok) {
    std::cerr << "error: loadgen: " << report.error << "\n";
    return kExitInternal;
  }
  return 0;
}

/// `netsample flows` without --sweep: assemble every flow and print the top
/// talkers (the original behavior of the subcommand).
int flow_top_talkers(ArgParser& args) {
  const double timeout_s = real_flag(args, "timeout");
  const std::uint64_t top_n = count_flag(args, "top", kMaxCount);
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  trace::FlowTable table(MicroDuration::from_seconds(timeout_s));
  table.run(t->view());
  const auto s = table.stats();
  std::cout << fmt_count(s.flows) << " flows, " << fmt_count(s.packets)
            << " packets, " << fmt_count(s.bytes) << " bytes; mean "
            << fmt_double(s.mean_flow_packets, 2) << " pkts/flow\n\n";

  TextTable top({"src", "dst", "proto", "dport", "packets", "bytes", "sec"});
  for (const auto& f :
       table.top_by_packets(static_cast<std::size_t>(top_n))) {
    top.add_row({f.key.src.to_string(), f.key.dst.to_string(),
                 net::ip_proto_name(f.key.protocol),
                 std::to_string(f.key.dst_port), fmt_count(f.packets),
                 fmt_count(f.bytes), fmt_double(f.duration().to_seconds(), 2)});
  }
  top.print(std::cout);
  return 0;
}

int cmd_design(ArgParser& args) {
  const double mu = real_flag(args, "mu");
  const double sigma = real_flag(args, "sigma");
  const double acc = real_flag(args, "accuracy");
  const double conf = real_flag(args, "confidence", 1.0);
  const std::uint64_t pop = count_flag(args, "population", kAnyCount);
  const auto p = core::plan_sample_size(mu, sigma, acc, conf, pop);
  std::cout << "to estimate a mean of " << fmt_double(mu, 1) << " (sd "
            << fmt_double(sigma, 1) << ") to +-" << fmt_double(acc, 1)
            << "% at " << fmt_double(conf * 100, 0) << "% confidence:\n"
            << "  n (infinite population) = " << fmt_count(p.n) << "\n";
  if (pop > 0) {
    std::cout << "  n (with FPC for N=" << fmt_count(pop)
              << ") = " << fmt_count(p.n_fpc) << "\n"
              << "  sampling fraction = "
              << fmt_double(100.0 * p.sampling_fraction, 3) << "%\n";
  }
  return 0;
}

int cmd_charact(ArgParser& args) {
  const std::uint64_t k = count_flag(args, "k", kAnyCount, 1);
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  const auto node = args.get_string("node") == "t1" ? charact::NodeType::kT1
                                                    : charact::NodeType::kT3;
  std::uint64_t counter = 0;
  charact::Selector selector;
  if (k > 1) {
    selector = [&counter, k](const trace::PacketRecord&) {
      return counter++ % k == 0;
    };
  }
  charact::CollectionAgent agent(node, selector);
  agent.run(t->view());
  std::cout << agent.reports().size() << " collection cycles\n";
  for (const auto& rep : agent.reports()) {
    std::cout << "\ncycle " << rep.cycle << ": offered "
              << fmt_count(rep.packets_offered) << ", examined "
              << fmt_count(rep.packets_examined) << "\n";
    TextTable protos({"protocol", "packets (est.)", "bytes (est.)"});
    for (const auto& [proto, vol] : rep.protocols) {
      protos.add_row({net::ip_proto_name(proto), fmt_count(vol.packets * k),
                      fmt_count(vol.bytes * k)});
    }
    protos.print(std::cout);
  }
  return 0;
}

int cmd_stats(ArgParser& args) {
  const std::string path = args.positionals().at(0);
  std::ifstream in(path);
  if (!in) {
    return fail(Status(StatusCode::kNotFound,
                       "stats: cannot open '" + path + "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  if (args.get_bool("masked")) {
    // Deterministic-only JSON: what golden/cross-jobs diffs compare.
    std::cout << obs::masked_json(json);
  } else {
    std::cout << obs::pretty_metrics(json);
  }
  return 0;
}

/// --grid-k's comma-separated granularities ("2,4,8"): each item a whole
/// base-10 integer in [1, INT_MAX]; throws on anything else or an empty list.
std::vector<std::uint64_t> parse_k_list(const std::string& list) {
  std::vector<std::uint64_t> out;
  for (const std::string& item : tools::list_items(list)) {
    const std::uint64_t k = tools::checked_count(
        "--grid-k", item, std::numeric_limits<int>::max());
    if (k == 0) throw std::invalid_argument("--grid-k: k must be >= 1");
    out.push_back(k);
  }
  if (out.empty()) {
    throw std::invalid_argument("--grid-k needs at least one granularity");
  }
  return out;
}

/// Apply --methods to a spec: "all" keeps the default 5, otherwise a
/// comma-separated token list replaces them. Throws on empties/unknowns.
void apply_methods_flag(const ArgParser& args, shard::SweepSpec* spec) {
  const std::string methods = args.get_string("methods");
  if (methods == "all") return;
  spec->methods.clear();
  for (const std::string& item : tools::list_items(methods)) {
    spec->methods.push_back(shard::parse_method_token(item));
  }
  if (spec->methods.empty()) {
    throw std::invalid_argument("--methods needs at least one method");
  }
}

/// The sweep grid requested on the command line: the full paper grid pruned
/// by --target / --methods / --grid-k.
shard::SweepSpec sweep_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.base_seed = count_flag(args, "seed", kAnyCount);
  spec.replications = count_flag<int>(args, "reps", kMaxReps, 1);
  const std::string which = args.get_string("target");
  if (which == "size") {
    spec.targets = {core::Target::kPacketSize};
  } else if (which == "iat") {
    spec.targets = {core::Target::kInterarrivalTime};
  } else if (which != "both") {
    throw std::invalid_argument("sweep --target must be both|size|iat");
  }
  apply_methods_flag(args, &spec);
  const std::string ks = args.get_string("grid-k");
  if (ks != "ladder") spec.granularities = parse_k_list(ks);
  return spec;
}

/// The flow-workload grid of `netsample flows --sweep`: estimators x methods
/// x granularities, with the flow-table/inversion parameters attached.
shard::SweepSpec flow_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.workload = shard::Workload::kFlow;
  // Placeholder target: required by the spec codec, ignored by flow cells.
  spec.targets = {core::Target::kPacketSize};
  spec.base_seed = count_flag(args, "seed", kAnyCount);
  spec.replications = count_flag<int>(args, "reps", kMaxReps, 1);
  apply_methods_flag(args, &spec);
  const std::string ks = args.get_string("grid-k");
  spec.granularities = ks == "ladder" ? flow::flow_ladder() : parse_k_list(ks);

  for (const auto& item : tools::list_items(args.get_string("estimators"))) {
    spec.estimators.push_back(flow::parse_estimator_token(item));
  }
  if (spec.estimators.empty()) {
    throw std::invalid_argument("--estimators needs at least one of rescale|em");
  }

  const double timeout_s = real_flag(args, "timeout");
  if (!(timeout_s > 0.0)) {
    throw std::invalid_argument("flows --timeout must be > 0 seconds");
  }
  spec.flow.idle_timeout_usec = static_cast<std::uint64_t>(timeout_s * 1e6);
  spec.flow.capacity = count_flag(args, "flow-cap", kMaxCount);
  spec.flow.em_iters = count_flag<int>(args, "em-iters", 100000);
  if (spec.flow.em_iters == 0) {
    throw std::invalid_argument("--em-iters must be >= 1");
  }
  return spec;
}

/// Path of the running binary, for respawning ourselves as `netsample
/// worker` (argv[0] may be bare and $PATH-relative; the exec must not be).
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// The validated sharding vocabulary, read up front so a malformed flag is
/// a usage error (64) before any capture is parsed or store written.
struct ShardFlags {
  int workers{0};
  int chaos{0};
  int max_respawns{0};
  int depart{0};
  int connect_retries{0};
  double heartbeat{0};
  double lease_timeout{0};
  std::string transport;
  std::string listen;
  std::string netfault;
};

/// Throws std::invalid_argument / StatusError on malformed flags — both map
/// to exit 64 in main().
ShardFlags shard_flags_from_args(const ArgParser& args) {
  ShardFlags f;
  f.workers = count_flag<int>(args, "workers", 4096);
  f.chaos = count_flag<int>(args, "chaos-kill-after", kMaxCount);
  f.max_respawns = count_flag<int>(args, "max-respawns", kMaxCount);
  f.depart = count_flag<int>(args, "depart-after", kMaxCount);
  f.heartbeat = real_flag(args, "heartbeat-interval", 3600.0);
  f.lease_timeout = real_flag(args, "lease-timeout", 3600.0);
  f.connect_retries = count_flag<int>(args, "connect-retries", 1000);
  f.transport = args.get_string("transport");
  if (f.transport != "pipe" && f.transport != "socket") {
    throw std::invalid_argument("--transport must be pipe or socket, got \"" +
                                f.transport + "\"");
  }
  f.listen = args.get_string("listen");
  if (f.transport == "socket") {
    auto hp = shard::parse_host_port(f.listen);
    if (!hp.has_value()) throw StatusError(hp.status());
  }
  if (args.has("netfault")) {
    f.netfault = args.get_string("netfault");
    // Validate the schedule coordinator-side so a typo is a usage error
    // here, not a kInternal after W workers die trying to parse it.
    auto nf = faultsim::parse_netfault_spec(f.netfault);
    if (!nf.has_value()) throw StatusError(nf.status());
  }
  return f;
}

/// Run `spec` sharded over f.workers processes and re-dress the shard
/// outcomes as an exper::RunReport so the table renders through the exact
/// same code path as the in-process run (byte-identical output). Throws
/// StatusError on store/coordinator failure. Scheduling facts (store reuse,
/// leases, respawns) go to stderr so stdout stays byte-diffable across
/// worker counts.
exper::RunReport run_sharded_report(const shard::SweepSpec& spec,
                                    const std::vector<exper::GridTask>& grid,
                                    exper::Experiment& ex,
                                    const ShardFlags& f, const ArgParser& args,
                                    const char* argv0,
                                    exper::CheckpointJournal* journal) {
  const std::string store_path = args.has("store")
                                     ? args.get_string("store")
                                     : args.positionals().at(0) + ".nstore";
  shard::StoreBackend& backend =
      shard::store_backend(args.get_string("store-backend"));
  // Amortization: a valid store for this population is reused as-is; the
  // trace is re-binned and re-serialized only when none exists yet.
  bool wrote_store = false;
  {
    auto existing = shard::TraceStore::open(store_path, backend);
    if (!existing.has_value() ||
        existing->packet_count() != ex.population_size()) {
      const double mean_size =
          trace::summarize_population(ex.full()).packet_size.mean;
      const Status st = shard::write_trace_store(
          store_path, ex.binned_cache(), ex.mean_interarrival_usec(),
          mean_size);
      if (!st.is_ok()) throw StatusError(st);
      wrote_store = true;
    }
  }
  std::cerr << "store: " << (wrote_store ? "wrote " : "reusing ") << store_path
            << "\n";

  shard::CoordinatorOptions copts;
  copts.workers = f.workers;
  copts.store_path = store_path;
  copts.backend = args.get_string("store-backend");
  copts.journal = journal;
  copts.worker_command = {self_exe(argv0), "worker"};
  copts.chaos_kill_after = f.chaos > 0 ? f.chaos : -1;
  copts.max_respawns = f.max_respawns;
  copts.first_worker_depart_after = f.depart > 0 ? f.depart : -1;
  if (f.transport == "socket") {
    copts.transport = shard::TransportKind::kSocket;
  }
  copts.listen = f.listen;
  copts.heartbeat_interval_s = f.heartbeat;
  copts.lease_timeout_s = f.lease_timeout;
  copts.connect_retries = f.connect_retries;
  copts.netfault = f.netfault;

  auto sharded = shard::run_sharded_sweep(spec, copts);
  if (wrote_store && !args.get_bool("keep-store")) {
    (void)std::remove(store_path.c_str());
  }
  if (!sharded.has_value()) throw StatusError(sharded.status());

  std::cerr << "workers: " << sharded->workers_spawned << " spawned, "
            << sharded->leases_granted << " leases, "
            << sharded->reassignments << " reassigned, "
            << sharded->workers_departed << " departed, "
            << sharded->leases_expired << " expired, " << sharded->reconnects
            << " reconnects, " << sharded->workers_died
            << " died; worker cache builds " << sharded->worker_cache_builds
            << ", maps " << sharded->worker_cache_maps << "\n";

  exper::RunReport rr;
  rr.cells.resize(sharded->cells.size());
  for (std::size_t i = 0; i < sharded->cells.size(); ++i) {
    auto& cell = rr.cells[i];
    auto& from = sharded->cells[i];
    cell.status = from.status;
    cell.from_journal = from.from_journal;
    cell.attempts = from.from_journal ? 0 : 1;
    cell.result.config = shard::derived_cell_config(grid[i], spec.base_seed);
    cell.result.replications = std::move(from.replications);
  }
  return rr;
}

/// `netsample sweep` — the whole method x granularity grid over one capture.
/// --workers 0 (default) runs in-process on ParallelRunner threads (--jobs);
/// --workers N shards the grid over N processes that mmap a shared
/// TraceStore. Both paths print bit-identical tables and write bit-identical
/// journals: seeds derive from grid coordinates, never from scheduling.
int cmd_sweep(ArgParser& args, const tools::CommonOptions& common,
              const char* argv0) {
  const ShardFlags flags = shard_flags_from_args(args);
  const shard::SweepSpec spec = sweep_spec_from_args(args);

  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));

  exper::CheckpointJournal journal;
  bool have_journal = false;
  if (args.has("resume")) {
    auto opened = exper::CheckpointJournal::open(args.get_string("resume"));
    if (!opened) return fail(opened.status());
    journal = std::move(*opened);
    std::cout << "journal " << journal.path() << ": " << journal.size()
              << " cells already complete";
    if (journal.dropped_lines() > 0) {
      std::cout << " (" << journal.dropped_lines() << " torn lines dropped)";
    }
    std::cout << "\n";
    have_journal = true;
  }

  const auto grid = shard::build_grid(spec, ex.full(),
                                      ex.mean_interarrival_usec(),
                                      &ex.binned_cache());

  exper::RunReport rr;
  if (flags.workers == 0) {
    // In-process path: ParallelRunner with kSkip matches the coordinator's
    // quarantine-and-continue semantics.
    exper::RunOptions ropts;
    ropts.on_error = exper::FailPolicy::kSkip;
    if (have_journal) ropts.journal = &journal;
    exper::ParallelRunner runner(common.jobs);
    rr = runner.run(grid, spec.base_seed, ropts);
  } else {
    rr = run_sharded_report(spec, grid, ex, flags, args, argv0,
                            have_journal ? &journal : nullptr);
  }

  const auto result = as_result(std::move(rr));
  emit(result.rows, RowFormat::kAligned, std::cout);
  for (const std::size_t i : result->quarantined()) {
    std::cerr << "quarantined: cell " << i << " ("
              << core::target_name(grid[i].config.target) << ") after "
              << result->cells[i].attempts << " attempt(s): "
              << result->cells[i].status.to_string() << "\n";
  }
  if (!result.ok()) return fail(result.status);
  return 0;
}

/// `netsample flows` — top talkers by default; with --sweep, the flow
/// workload: estimators x methods x granularities cells that sample the
/// capture, aggregate sampled flows under memory pressure (--flow-cap),
/// invert the sampled flow-size distribution, and score the estimate
/// against the interval's ground truth. Like `sweep`, --workers N shards
/// the grid over processes and stdout stays byte-diffable across
/// --jobs/--workers, and --resume replays journaled cells: flow tasks carry
/// a per-estimator journal-key suffix (docs/FLOWS.md §4), so the two
/// estimator blocks — identical CellConfigs by design — never alias.
int cmd_flows(ArgParser& args, const tools::CommonOptions& common,
              const char* argv0) {
  if (!args.get_bool("sweep")) return flow_top_talkers(args);
  const ShardFlags flags = shard_flags_from_args(args);
  const shard::SweepSpec spec = flow_spec_from_args(args);

  exper::CheckpointJournal journal;
  bool have_journal = false;
  if (args.has("resume")) {
    auto opened = exper::CheckpointJournal::open(args.get_string("resume"));
    if (!opened) return fail(opened.status());
    journal = std::move(*opened);
    // Banner on stderr, unlike sweep's: the flows table on stdout must stay
    // byte-diffable between a resumed and an uninterrupted run.
    std::cerr << "journal " << journal.path() << ": " << journal.size()
              << " cells already complete";
    if (journal.dropped_lines() > 0) {
      std::cerr << " (" << journal.dropped_lines() << " torn lines dropped)";
    }
    std::cerr << "\n";
    have_journal = true;
  }

  auto t = load(args.positionals().at(0), args, std::cerr);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));

  const auto grid = shard::build_grid(spec, ex.full(),
                                      ex.mean_interarrival_usec(),
                                      &ex.binned_cache());

  exper::RunReport rr;
  if (flags.workers == 0) {
    exper::RunOptions ropts;
    ropts.on_error = exper::FailPolicy::kSkip;
    if (have_journal) ropts.journal = &journal;
    // The workload hook: identical to what sharded workers run per cell.
    ropts.cell_runner = [&spec](const exper::CellConfig& cfg,
                                std::size_t index) {
      return flow::run_flow_cell(cfg, spec.flow,
                                 shard::grid_estimator(spec, index));
    };
    exper::ParallelRunner runner(common.jobs);
    rr = runner.run(grid, spec.base_seed, ropts);
  } else {
    rr = run_sharded_report(spec, grid, ex, flags, args, argv0,
                            have_journal ? &journal : nullptr);
  }

  const auto result = as_flow_result(std::move(rr), spec);
  emit(result.rows, RowFormat::kAligned, std::cout);
  for (const std::size_t i : result->quarantined()) {
    std::cerr << "quarantined: cell " << i << " ("
              << flow::estimator_name(shard::grid_estimator(spec, i))
              << ") after " << result->cells[i].attempts << " attempt(s): "
              << result->cells[i].status.to_string() << "\n";
  }
  if (!result.ok()) return fail(result.status);
  return 0;
}

/// `netsample worker` — one sharded-sweep worker, speaking the lease
/// protocol on stdin/stdout, or dialing a socket coordinator when --connect
/// is given. Not meant for interactive use; `sweep --workers N` execs these.
int cmd_worker(ArgParser& args) {
  if (!args.has("store")) {
    std::cerr << "error: worker requires --store FILE\n";
    return kExitUsage;
  }
  shard::WorkerOptions wopts;
  wopts.store_path = args.get_string("store");
  wopts.backend = args.get_string("store-backend");
  const int die = count_flag<int>(args, "die-after", kMaxCount);
  wopts.die_after_cells = die > 0 ? die : -1;
  const int depart = count_flag<int>(args, "depart-after", kMaxCount);
  wopts.depart_after_cells = depart > 0 ? depart : -1;
  wopts.connect_retries = count_flag<int>(args, "connect-retries", 1000);
  if (args.has("netfault")) {
    wopts.netfault = args.get_string("netfault");
    auto nf = faultsim::parse_netfault_spec(wopts.netfault);
    if (!nf.has_value()) return fail(nf.status());
  }
  if (args.has("connect")) {
    wopts.connect = args.get_string("connect");
    auto hp = shard::parse_host_port(wopts.connect);
    if (!hp.has_value()) return fail(hp.status());
    const Status status = shard::run_socket_worker(wopts);
    if (!status.is_ok()) return fail(status);
    return 0;
  }
  const Status status = shard::run_worker(wopts, stdin, stdout);
  if (!status.is_ok()) return fail(status);
  return 0;
}

int cmd_journal(ArgParser& args) {
  const auto& pos = args.positionals();
  if (pos.size() != 2 || pos[0] != "compact") {
    std::cerr << "error: usage: netsample journal compact FILE\n";
    return kExitUsage;
  }
  auto stats = exper::CheckpointJournal::compact_file(pos[1]);
  if (!stats) return fail(stats.status());
  std::cout << "journal " << pos[1] << ": " << stats->lines_before
            << " lines -> " << stats->lines_after << " ("
            << stats->duplicate_keys << " superseded, " << stats->dropped_lines
            << " torn/malformed dropped)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);

  ArgParser args;
  args.add_flag("help", "", "show this help");
  // Declare the union of flags; each command reads what it needs.
  args.add_flag("minutes", "N", "trace duration in minutes", "10");
  args.add_flag("seed", "S", "RNG seed", "23");
  args.add_flag("out", "FILE", "output pcap path");
  args.add_flag("poisson", "", "disable burst structure (ablation workload)");
  args.add_flag("method", "M", "sampling method", "systematic");
  args.add_flag("k", "K", "sampling granularity (1-in-k)", "50");
  args.add_flag("reps", "R", "replications", "5");
  args.add_flag("target", "T",
                "score target: both|size|iat|ports|protocols|netmatrix",
                "both");
  args.add_flag("timeout", "SEC", "flow idle timeout seconds", "30");
  args.add_flag("top", "N", "top talkers to print", "10");
  args.add_flag("sweep", "",
                "flows: run the flow-workload sweep (sampled-flow "
                "aggregation + size-distribution inversion) instead of "
                "printing top talkers");
  args.add_flag("estimators", "LIST",
                "flows --sweep: comma-separated inversion estimators "
                "(rescale|em)", "rescale,em");
  args.add_flag("flow-cap", "N",
                "flows --sweep: sampled-flow table capacity, 0 = unbounded",
                "0");
  args.add_flag("em-iters", "N", "flows --sweep: EM iteration budget", "60");
  args.add_flag("flow-mix", "",
                "generate: heavy-tailed flow-train mix (Pareto train "
                "lengths) for the flow workload");
  args.add_flag("mu", "M", "population mean (design)", "232");
  args.add_flag("sigma", "S", "population stddev (design)", "236");
  args.add_flag("accuracy", "R", "accuracy percent (design)", "5");
  args.add_flag("confidence", "C", "confidence level (design)", "0.95");
  args.add_flag("population", "N", "population size, 0=infinite", "0");
  args.add_flag("node", "T", "node type: t1 or t3 (charact)", "t1");
  args.add_flag("strict", "",
                "reject corrupt captures outright (exit 65) instead of "
                "keeping the clean prefix");
  args.add_flag("salvage", "",
                "skip corrupt records and resync instead of stopping at the "
                "first bad header");
  args.add_flag("on-error", "P",
                "score: cell failure policy abort|skip|retry", "abort");
  args.add_flag("retries", "N",
                "score: extra attempts per failed cell under --on-error retry",
                "2");
  args.add_flag("cell-timeout", "SEC",
                "score: per-cell watchdog deadline, 0 = none", "0");
  args.add_flag("resume", "FILE",
                "score/sweep/flows --sweep: checkpoint journal; completed "
                "cells are replayed from it and new ones appended");
  args.add_flag("fault", "F",
                "impair: truncate|bitflip|clock-back|clock-forward|duplicate|"
                "drop-burst, or 'all'", "all");
  args.add_flag("intensity", "LIST",
                "impair: comma-separated per-record probabilities",
                "0.001,0.01,0.05,0.1");
  args.add_flag("csv", "", "impair: machine-readable CSV output");
  args.add_flag("window", "SEC",
                "watch: rolling window length in seconds, 0 = whole stream",
                "0");
  args.add_flag("stride", "SEC",
                "watch: snapshot period in seconds, 0 = one per window", "0");
  args.add_flag("format", "F", "watch: output rows as jsonl or csv", "jsonl");
  args.add_flag("chunk", "N", "watch: packets per pipeline chunk", "4096");
  args.add_flag("ring", "N", "watch: pipeline ring capacity in chunks", "16");
  args.add_flag("deadline", "SEC",
                "watch: wall-clock budget, 0 = none (exit 75 when exceeded)",
                "0");
  args.add_flag("mean-iat", "USEC",
                "watch: population mean interarrival for timer methods", "0");
  args.add_flag("tenant", "NAME",
                "watch/loadgen: budget bucket the session bills to",
                "default");
  args.add_flag("lanes", "N",
                "serve: scoring threads shared by all sessions, 0 = one per "
                "hardware thread", "0");
  args.add_flag("max-sessions", "N",
                "serve: per-tenant concurrent-session budget, 0 = unlimited",
                "0");
  args.add_flag("max-ring-bytes", "N",
                "serve: per-tenant queued-packet-bytes budget before "
                "shedding, 0 = unlimited", "0");
  args.add_flag("max-pps", "RATE",
                "serve: per-tenant sustained packets/sec budget (1 s burst), "
                "0 = unlimited", "0");
  args.add_flag("sessions", "N", "loadgen: concurrent sessions to replay",
                "64");
  args.add_flag("connections", "N",
                "loadgen: transports the sessions multiplex over", "8");
  args.add_flag("seed-groups", "N",
                "loadgen: distinct seeds; sessions within a group must emit "
                "byte-identical rows", "1");
  args.add_flag("feed-chunk", "N", "loadgen: packets per FEED line", "512");
  args.add_flag("p99-ms", "MS",
                "loadgen: assert p99 CLOSE->CLOSED latency <= MS, 0 = "
                "report only", "0");
  args.add_flag("dump-rows", "FILE",
                "loadgen: write session s0's ROWS payloads here (byte-diff "
                "vs watch)");
  args.add_flag("no-close", "",
                "loadgen: never send CLOSE; wait for the daemon's drain "
                "(SIGTERM drill)");
  args.add_flag("masked", "",
                "stats: print the deterministic-only JSON instead of the "
                "human table");
  // --jobs / --metrics-out / --trace-out / --simd come from the
  // shared vocabulary (tools/cli_args.h) so the CLI and the figure binaries
  // cannot drift; the capture stays positional here, hence no --pcap.
  tools::add_common_flags(args, /*with_pcap=*/false);
  // --workers / --store / --store-backend / ... likewise (sweep + worker).
  tools::add_sweep_flags(args);

  const auto status = args.parse(rest);
  if (!status.is_ok()) {
    std::cerr << "error: " << status.message() << "\n";
    return kExitUsage;
  }
  if (args.get_bool("help")) {
    std::cout << "flags for '" << cmd << "':\n" << args.help();
    return 0;
  }

  // Observability plumbing: read_common_options() validates the shared
  // flags and flips the obs switches; the snapshot is written on every exit
  // path out of the command — a quarantined sweep's metrics are exactly the
  // interesting ones.
  struct ObsOutputs {
    std::string metrics_path;
    std::string trace_path;
    ~ObsOutputs() {
      (void)obs::write_metrics_file(metrics_path);
      (void)obs::write_trace_file(trace_path);
    }
  } obs_outputs;

  try {
    const tools::CommonOptions common = tools::read_common_options(args);
    obs_outputs.metrics_path = common.metrics_out;
    obs_outputs.trace_path = common.trace_out;
    if (cmd == "generate") {
      if (!args.has("out")) {
        std::cerr << "error: generate requires --out FILE\n";
        return kExitUsage;
      }
      return cmd_generate(args);
    }
    if (cmd == "inspect" || cmd == "sample" || cmd == "score" ||
        cmd == "flows" || cmd == "charact" || cmd == "impair" ||
        cmd == "watch" || cmd == "sweep" || cmd == "loadgen") {
      if (args.positionals().empty()) {
        std::cerr << "error: " << cmd << " requires a pcap file argument\n";
        return kExitUsage;
      }
      if (cmd == "inspect") return cmd_inspect(args);
      if (cmd == "sample") return cmd_sample(args);
      if (cmd == "score") return cmd_score(args, common);
      if (cmd == "flows") return cmd_flows(args, common, argv[0]);
      if (cmd == "impair") return cmd_impair(args);
      if (cmd == "watch") return cmd_watch(args);
      if (cmd == "sweep") return cmd_sweep(args, common, argv[0]);
      if (cmd == "loadgen") return cmd_loadgen(args);
      return cmd_charact(args);
    }
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "worker") return cmd_worker(args);
    if (cmd == "journal") return cmd_journal(args);
    if (cmd == "design") return cmd_design(args);
    if (cmd == "stats") {
      if (args.positionals().empty()) {
        std::cerr << "error: stats requires a metrics JSON file argument\n";
        return kExitUsage;
      }
      return cmd_stats(args);
    }
  } catch (const StatusError& e) {
    return fail(e.status());
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitInternal;
  }
  return usage();
}
