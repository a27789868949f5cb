// netsample -- command-line front end to the whole library.
//
// Every subcommand is one row of the command table at the end of this file:
// its one-line summary, its positionals, and the flags its handler (or a
// helper it calls) reads. Each flag is declared once, in the flag table,
// with its value domain. main() builds the chosen subcommand's parser from
// its row alone and checks arity, required flags and every domain before
// the handler runs, so a flag the subcommand does not read, an extra
// positional, or a value outside its domain exits 64 naming it. `netsample`
// and `netsample <command> --help` print from the same two tables.
//
// Every subcommand is a thin veneer over the public API; see examples/ for
// annotated versions of the same flows.
//
// Exit codes follow the sysexits convention (see docs/ROBUSTNESS.md):
//   0 success, 64 usage / bad input, 65 data loss (corrupt capture),
//   70 internal failure, 75 deadline exceeded or cancelled.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
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

// ---------------------------------------------------------------------------
// Flag declarations

/// The values a flag, or each item of a LIST flag, may take.
struct Domain {
  enum Kind { kText, kCount, kReal, kChoice } kind{kText};
  std::uint64_t min{0}, max{0};      // kCount: an integer in [min, max]
  double bound{0};                   // kReal: a number in [0, bound]
  std::string choices;               // kChoice: "a|b|c"
};

Domain count(std::uint64_t min, std::uint64_t max) {
  return {Domain::kCount, min, max, 0, {}};
}
Domain real(double bound) { return {Domain::kReal, 0, 0, bound, {}}; }
Domain choice(std::string choices) {
  return {Domain::kChoice, 0, 0, 0, std::move(choices)};
}

struct Flag {
  std::string name;
  std::string value;  // metavariable: empty for a switch; LIST for a list
  std::optional<std::string> def;
  Domain domain;
  std::string help;
  std::string command = "";  // the one subcommand it is for; empty: all
};

/// Throws std::invalid_argument naming the flag unless `text` is in its
/// domain. A LIST value is comma-separated items, at least one, each in the
/// domain, unless it is the flag's default (a keyword such as all).
void check_flag(const Flag& f, const std::string& text) {
  const std::string source = "--" + f.name;
  if (f.value == "LIST" && text == f.def) return;
  const auto items = f.value == "LIST" ? tools::list_items(text)
                                       : std::vector<std::string>{text};
  if (items.empty()) {
    throw std::invalid_argument(source + " needs at least one value");
  }
  const Domain& d = f.domain;
  for (const std::string& item : items) {
    if (d.kind == Domain::kCount) {
      (void)tools::checked_count(source, item, d.max, d.min);
    } else if (d.kind == Domain::kReal) {
      (void)tools::checked_real(source, item, d.bound);
    } else if (d.kind == Domain::kChoice &&
               ("|" + d.choices + "|").find("|" + item + "|") ==
                   std::string::npos) {
      throw std::invalid_argument(source + ": expected " + d.choices +
                                  ", got \"" + item + "\"");
    }
  }
}

// Numeric flag ranges: a seed, k or population may be any u64 (k >= 1: the
// library divides by it); replications stop where the SweepSpec and
// SessionSpec codecs stop; other counts and reals get a generous bound.
constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxCount = 1000000000;
constexpr std::uint64_t kMaxReps = 1000000;
constexpr double kMaxReal = 1e9;

/// "a|b|c": the names of every element of `all`.
template <class T, class Name>
std::string names(const std::vector<T>& all, Name name) {
  std::string out;
  for (const T& x : all) out += (out.empty() ? "" : "|") + std::string(name(x));
  return out;
}

/// Every flag a subcommand reads, each declared once, apart from the common
/// group tools::add_common_flags declares for the figure binaries too. A
/// subcommand that reads a flag with a domain of its own has a declaration
/// for it alone, ahead of the shared one.
const std::vector<Flag>& flag_table() {
  static const Domain any = count(0, kAnyCount), counts = count(0, kMaxCount);
  static const Domain number = real(kMaxReal);
  static const Domain methods =
      choice(names(shard::default_sweep_spec().methods, shard::method_token));
  static const std::vector<Flag> table = {
      // capture input and output
      {"out", "FILE", {}, {}, "output pcap path"},
      {"strict", "", {}, {}, "refuse a damaged capture (exit 65)"},
      {"salvage", "", {}, {}, "resync past corrupt records, do not stop"},
      // generate
      {"minutes", "N", "10", number, "trace duration in minutes"},
      {"poisson", "", {}, {}, "disable burst structure (ablation workload)"},
      {"flow-mix", "", {}, {}, "heavy-tailed flow-train mix for flow sweeps"},
      // sampling and scoring
      {"seed", "S", "23", any, "RNG seed"},
      {"method", "M", "systematic", methods, "sampling method"},
      {"k", "K", "50", count(1, kAnyCount), "sampling granularity (1-in-k)"},
      {"reps", "R", "5", count(1, kMaxReps), "replications"},
      {"target", "T", "both",
       choice("both|size|iat|ports|protocols|netmatrix"),
       "paper histogram(s), or port/protocol/network-pair proportions",
       "score"},
      {"target", "T", "both", choice("both|size|iat"), "paper histogram(s)"},
      {"population", "N", "0", any, "population size, 0 = infinite"},
      {"resume", "FILE", {}, {}, "checkpoint journal: replay its cells"},
      {"on-error", "P", "abort", choice("abort|skip|retry"), "failure policy"},
      {"retries", "N", "2", count(0, 1000), "retries under --on-error retry"},
      {"cell-timeout", "SEC", "0", number, "per-cell deadline, 0 = none"},
      // flows
      {"timeout", "SEC", "30", number, "flow idle timeout"},
      {"top", "N", "10", counts, "top talkers to print"},
      {"sweep", "", {}, {}, "run the sampled-flow inversion grid instead"},
      {"estimators", "LIST", "rescale,em", choice("rescale|em"),
       "inversion estimators"},
      {"flow-cap", "N", "0", counts, "flow table capacity, 0 = unbounded"},
      {"em-iters", "N", "60", count(1, 100000), "EM iteration budget"},
      // design
      {"mu", "M", "232", number, "population mean"},
      {"sigma", "S", "236", number, "population stddev"},
      {"accuracy", "R", "5", number, "accuracy percent"},
      {"confidence", "C", "0.95", real(1.0), "confidence level"},
      // charact and impair
      {"node", "T", "t1", choice("t1|t3"), "node type"},
      {"fault", "F", "all",
       choice("all|" + names(faultsim::all_faults(), faultsim::fault_name)),
       "impairment to sweep"},
      {"intensity", "LIST", "0.001,0.01,0.05,0.1", real(1.0),
       "per-record probabilities"},
      {"csv", "", {}, {}, "machine-readable CSV output"},
      // streaming sessions (watch, loadgen)
      {"window", "SEC", "0", number, "rolling window, 0 = whole stream"},
      {"stride", "SEC", "0", number, "snapshot period, 0 = one per window"},
      {"format", "F", "jsonl", choice("jsonl|csv"), "row format"},
      {"chunk", "N", "4096", count(1, kMaxCount), "packets per pipeline chunk"},
      {"ring", "N", "16", count(1, kMaxCount), "ring capacity in chunks"},
      {"deadline", "SEC", "0", number, "wall-clock budget, 0 = none"},
      {"mean-iat", "USEC", "0", number, "mean interarrival (timer methods)"},
      {"tenant", "NAME", "default", {}, "budget bucket the session bills to"},
      // serve and loadgen
      {"listen", "HOST:PORT", "127.0.0.1:0", {}, "bind address, port 0 = any"},
      {"lanes", "N", "0", count(0, 4096), "scoring threads, 0 = one per core"},
      {"max-sessions", "N", "0", counts, "sessions per tenant, 0 = unlimited"},
      {"max-ring-bytes", "N", "0", count(0, 2000000000),
       "queued bytes per tenant before shedding, 0 = unlimited"},
      {"max-pps", "RATE", "0", real(1e12), "pkt/s per tenant, 0 = unlimited"},
      {"connect", "HOST:PORT", {}, {}, "serve daemon or coordinator to dial"},
      {"sessions", "N", "64", count(1, 1000000), "concurrent sessions"},
      {"connections", "N", "8", count(1, 100000), "connections they share"},
      {"seed-groups", "N", "1", count(1, 1000000), "distinct session seeds"},
      // A FEED line must fit the daemon's line cap at the widest tokens.
      {"feed-chunk", "N", "512", count(1, serve::kMaxFeedPackets),
       "packets per FEED line"},
      {"p99-ms", "MS", "0", number, "assert p99 CLOSE->CLOSED <= MS, 0 = off"},
      {"dump-rows", "FILE", {}, {}, "write session s0's ROWS payloads here"},
      {"no-close", "", {}, {}, "never CLOSE; wait for the daemon's drain"},
      {"masked", "", {}, {}, "print the deterministic-only JSON"},
      // sharded grids (sweep, flows --sweep) and their workers
      {"methods", "LIST", "all", methods, "sampling methods"},
      {"grid-k", "LIST", "ladder",
       count(1, std::numeric_limits<int>::max()),
       "granularities (ladder: sweep 2..32768, flows 10,100,1000)"},
      {"workers", "N", "0", count(0, 4096), "processes, 0 = threads (--jobs)"},
      {"store", "FILE", {}, {}, "trace store (default CAPTURE.nstore)"},
      {"store-backend", "B", "mmap", choice("mmap|read"), "store source"},
      {"keep-store", "", {}, {}, "keep an auto-written store"},
      {"transport", "KIND", "pipe", choice("pipe|socket"), "lease wire"},
      {"heartbeat-interval", "SEC", "0", real(3600), "PING period, 0 = off"},
      {"lease-timeout", "SEC", "0", real(3600), "lease expiry, 0 = off"},
      {"connect-retries", "N", "5", count(0, 1000), "redials per lost link"},
      {"netfault", "SPEC", {}, {}, "wire impairments, e.g. seed=7,drop=0.1"},
      // worker failures: scripted drills (0 = off) and the respawn budget
      {"chaos-kill-after", "N", "0", counts, "SIGKILL a worker at N results"},
      {"max-respawns", "N", "8", counts, "replacements after worker deaths"},
      {"depart-after", "N", "0", counts, "first worker leaves after N cells"},
      {"die-after", "N", "0", counts, "_exit(137) after N cells"},
  };
  return table;
}

/// The declaration of --name that `command` reads.
const Flag& flag(const std::string& name, const std::string& command = "") {
  for (const Flag& f : flag_table()) {
    if (f.name == name && (f.command.empty() || f.command == command)) {
      return f;
    }
  }
  throw std::logic_error("undeclared flag --" + name);
}

/// Numeric flags and list items read back through the shared checked
/// readers (tools/cli_args.h) with the range their declaration gives.
std::uint64_t count_item(const std::string& name, const std::string& text) {
  const Domain& d = flag(name).domain;
  return tools::checked_count("--" + name, text, d.max, d.min);
}

double real_item(const std::string& name, const std::string& text) {
  return tools::checked_real("--" + name, text, flag(name).domain.bound);
}

template <class T = std::uint64_t>
T count_flag(const ArgParser& args, const std::string& name) {
  return static_cast<T>(count_item(name, args.get_string(name)));
}

double real_flag(const ArgParser& args, const std::string& name) {
  return real_item(name, args.get_string(name));
}

/// Each item of a LIST flag, read by `read`.
template <class Read>
auto list_flag(const ArgParser& args, const std::string& name, Read read) {
  std::vector<std::invoke_result_t<Read, const std::string&>> out;
  for (const std::string& item : tools::list_items(args.get_string(name))) {
    out.push_back(read(item));
  }
  return out;
}

/// A fault-drill count: N > 0 scripts the drill, 0 turns it off (-1).
int drill_flag(const ArgParser& args, const std::string& name) {
  const int n = count_flag<int>(args, name);
  return n > 0 ? n : -1;
}

/// A free-text flag that `parse` must accept (a HOST:PORT, a --netfault
/// schedule), checked before any capture opens, socket binds or worker
/// starts: a typo is a usage error, not a kInternal after every worker dies
/// trying to parse it. Empty when the flag is absent.
template <class Parse>
std::string parsed_flag(const ArgParser& args, const std::string& name,
                        Parse parse) {
  if (!args.has(name)) return "";
  const std::string value = args.get_string(name);
  const auto parsed = parse(value);
  if (!parsed.has_value()) throw StatusError(parsed.status());
  return value;
}

// ---------------------------------------------------------------------------
// Subcommands

std::vector<std::string> words(const std::string& text) {
  std::istringstream in(text);
  return {std::istream_iterator<std::string>(in), {}};
}

// Flags that only one mode of a subcommand reads: run_grid()'s grid and
// coordinator flags, flows --sweep's inversion parameters, and the
// ParallelRunner flags of score's histogram targets.
const char* const kGridFlags =
    "seed reps methods grid-k resume workers store store-backend keep-store "
    "transport listen heartbeat-interval lease-timeout connect-retries "
    "netfault chaos-kill-after max-respawns depart-after";
const char* const kFlowSweepFlags = "estimators flow-cap em-iters";
const char* const kRunnerFlags = "on-error retries cell-timeout resume";

/// A mode reads fewer of its subcommand's flags: each of `flags` given on
/// the command line is a usage error (64) naming it.
void refuse_flags(const ArgParser& args, const std::string& mode,
                  const std::string& flags) {
  for (const std::string& name : words(flags)) {
    if (args.given(name)) {
      throw std::invalid_argument(mode + " does not take --" + name);
    }
  }
}

struct Context {
  tools::CommonOptions common;
  const char* argv0;
};

/// `--resume FILE`: opens the journal into `journal` and says on `banner`
/// how many cells it already holds. Null when the flag is absent.
StatusOr<exper::CheckpointJournal*> open_resume(
    const ArgParser& args, exper::CheckpointJournal& journal,
    std::ostream& banner) {
  if (!args.has("resume")) return {nullptr};
  auto opened = exper::CheckpointJournal::open(args.get_string("resume"));
  if (!opened) return opened.status();
  journal = std::move(*opened);
  banner << "journal " << journal.path() << ": " << journal.size()
         << " cells already complete";
  if (journal.dropped_lines() > 0) {
    banner << " (" << journal.dropped_lines() << " torn lines dropped)";
  }
  banner << "\n";
  return &journal;
}

/// Names each quarantined cell on stderr; `label(i)` says what cell i is.
template <class Label>
void report_quarantined(const Result<exper::RunReport>& result,
                        const Label& label) {
  for (const std::size_t i : result->quarantined()) {
    std::cerr << "quarantined: cell " << i << " (" << label(i) << ") after "
              << result->cells[i].attempts << " attempt(s): "
              << result->cells[i].status.to_string() << "\n";
  }
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

int cmd_generate(const ArgParser& args, const Context&) {
  const double minutes = real_flag(args, "minutes");
  const std::uint64_t seed = count_flag(args, "seed");
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

int cmd_inspect(const ArgParser& args, const Context&) {
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

int cmd_sample(const ArgParser& args, const Context&) {
  core::SamplerSpec spec;
  spec.method = shard::parse_method_token(args.get_string("method"));
  spec.granularity = count_flag(args, "k");
  spec.seed = count_flag(args, "seed");

  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));
  spec.population = ex.population_size();
  spec.mean_interarrival_usec = ex.mean_interarrival_usec();

  const auto sample = core::draw(ex.full(), spec);
  trace::Trace sampled(sample.packets());
  std::cout << core::sampler_name(spec) << " selected "
            << fmt_count(sampled.size()) << " of "
            << fmt_count(ex.population_size()) << " packets ("
            << fmt_double(100.0 * sample.fraction(), 3) << "%)\n";
  if (args.has("out")) {
    const std::string out = args.get_string("out");
    const auto status = pcap::write_trace(out, sampled, 128);
    if (!status.is_ok()) return fail(status);
    std::cout << "wrote sampled trace to " << out << "\n";
  }
  return 0;
}

int cmd_score(const ArgParser& args, const Context& ctx) {
  // Proportion-based (Section 8) targets score through the categorical
  // machinery, one replication after another with no runner behind them;
  // "both" / "size" / "iat" use the paper's histogram targets.
  const std::string which = args.get_string("target");
  const bool categorical =
      which == "ports" || which == "protocols" || which == "netmatrix";
  if (categorical) refuse_flags(args, "score --target " + which, kRunnerFlags);

  exper::CellConfig cfg;
  cfg.method = shard::parse_method_token(args.get_string("method"));
  cfg.granularity = count_flag(args, "k");
  cfg.replications = count_flag<int>(args, "reps");
  cfg.base_seed = count_flag(args, "seed");
  exper::RunOptions ropts;
  const std::string policy = args.get_string("on-error");
  ropts.on_error = policy == "abort"  ? exper::FailPolicy::kAbort
                   : policy == "skip" ? exper::FailPolicy::kSkip
                                      : exper::FailPolicy::kRetry;
  ropts.max_attempts = 1 + count_flag<int>(args, "retries");
  ropts.cell_timeout_seconds = real_flag(args, "cell-timeout");

  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));
  cfg.interval = ex.full();
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.cache = &ex.binned_cache();

  if (categorical) {
    const auto key_fn = which == "ports"       ? core::service_port_key()
                        : which == "protocols" ? core::protocol_key()
                                               : core::network_pair_key();
    const core::CategoricalTarget target(which, key_fn, cfg.interval);
    TextTable table({"replication", "phi", "chi2 sig", "coverage %"});
    for (int r = 0; r < cfg.replications; ++r) {
      const auto sample =
          core::draw(cfg.interval, exper::replication_spec(cfg, r));
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
  const auto resume = open_resume(args, journal, std::cout);
  if (!resume) return fail(resume.status());
  ropts.journal = *resume;

  exper::ParallelRunner runner(ctx.common.jobs);
  // The unified presentation path: RunReport -> Result<T> -> emit. The same
  // rows render as CSV/JSON lines for any machine consumer of the facade.
  const auto result = as_result(runner.run(tasks, cfg.base_seed, ropts));
  emit(result.rows, RowFormat::kAligned, std::cout);
  report_quarantined(result, [&](std::size_t i) {
    return core::target_name(tasks[i].config.target);
  });
  if (!result.ok()) return fail(result.status);
  return 0;
}

int cmd_impair(const ArgParser& args, const Context&) {
  const bool csv = args.get_bool("csv");
  // In CSV mode stdout carries nothing but the header and data rows; the
  // human-facing summary moves to stderr.
  std::ostream& info = csv ? std::cerr : std::cout;

  // Intensity ladder: comma-separated per-record probabilities.
  const auto intensities =
      list_flag(args, "intensity",
                [](const std::string& p) { return real_item("intensity", p); });
  const auto method = shard::parse_method_token(args.get_string("method"));
  const std::uint64_t k = count_flag(args, "k");
  const int reps = count_flag<int>(args, "reps");
  const std::uint64_t seed = count_flag(args, "seed");
  const std::string fault_arg = args.get_string("fault");
  const auto faults = fault_arg == "all"
                          ? faultsim::all_faults()
                          : std::vector{*faultsim::parse_fault(fault_arg)};

  auto loaded = load(args.positionals().at(0), args, info);
  if (!loaded) return fail(loaded.status());
  const trace::Trace clean = std::move(*loaded);

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

/// Session description shared by `watch` and `loadgen`: the session flag
/// vocabulary maps 1:1 onto the facade's SessionSpec (API v1.1), and the one
/// validator behind watch and serve OPEN runs here — a bad combination is
/// kInvalidArgument (exit 64) before any capture opens.
SessionSpec session_spec_from_args(const ArgParser& args) {
  SessionSpec spec;
  spec.method = shard::parse_method_token(args.get_string("method"));
  spec.granularity = count_flag(args, "k");
  spec.replications = count_flag<int>(args, "reps");
  spec.seed = count_flag(args, "seed");
  spec.targets = args.get_string("target");
  spec.window_s = real_flag(args, "window");
  spec.stride_s = real_flag(args, "stride");
  spec.population = count_flag(args, "population");
  spec.mean_iat_usec = real_flag(args, "mean-iat");
  spec.chunk_packets = count_flag(args, "chunk");
  spec.ring_capacity = count_flag(args, "ring");
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
int cmd_watch(const ArgParser& args, const Context&) {
  const bool csv = args.get_string("format") == "csv";
  const SessionSpec spec = session_spec_from_args(args);

  util::CancelToken cancel;
  cancel.set_deadline_after(spec.deadline_s);
  stream::Engine engine(session_lanes(spec),
                        session_engine_options(spec, &cancel));

  const std::vector<std::string>& columns = session_row_columns();
  if (csv) std::cout << csv_line(columns) << "\n";
  const auto emit_score = [&](const stream::WindowScore& w) {
    for (const auto& cells : session_row_cells(w)) {
      std::cout << (csv ? csv_line(cells) : json_line(columns, cells)) << "\n";
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
int cmd_serve(const ArgParser& args, const Context&) {
  serve::ServeOptions sopts;
  sopts.listen = args.get_string("listen");
  sopts.lanes = count_flag(args, "lanes");
  sopts.default_budget.max_sessions = count_flag(args, "max-sessions");
  sopts.default_budget.max_ring_bytes = count_flag(args, "max-ring-bytes");
  sopts.default_budget.max_pps = real_flag(args, "max-pps");
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
int cmd_loadgen(const ArgParser& args, const Context&) {
  serve::LoadgenOptions lopts;
  lopts.connect = parsed_flag(args, "connect", shard::parse_host_port);
  lopts.sessions = count_flag(args, "sessions");
  lopts.connections = count_flag(args, "connections");
  lopts.seed_groups = count_flag(args, "seed-groups");
  lopts.feed_packets = count_flag(args, "feed-chunk");
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

int cmd_design(const ArgParser& args, const Context&) {
  const double mu = real_flag(args, "mu");
  const double sigma = real_flag(args, "sigma");
  const double acc = real_flag(args, "accuracy");
  const double conf = real_flag(args, "confidence");
  const std::uint64_t pop = count_flag(args, "population");
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

int cmd_charact(const ArgParser& args, const Context&) {
  const std::uint64_t k = count_flag(args, "k");
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

int cmd_stats(const ArgParser& args, const Context&) {
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

/// The grid flags both grid subcommands share: the full paper grid with
/// --seed / --reps, pruned by --methods and --grid-k.
shard::SweepSpec grid_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.base_seed = count_flag(args, "seed");
  spec.replications = count_flag<int>(args, "reps");
  if (args.get_string("methods") != "all") {
    spec.methods = list_flag(args, "methods", shard::parse_method_token);
  }
  if (args.get_string("grid-k") != "ladder") {
    spec.granularities = list_flag(args, "grid-k", [](const std::string& k) {
      return count_item("grid-k", k);
    });
  }
  return spec;
}

/// The sweep grid requested on the command line: the full paper grid pruned
/// by --target / --methods / --grid-k.
shard::SweepSpec sweep_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = grid_spec_from_args(args);
  const std::string which = args.get_string("target");
  if (which != "both") spec.targets = {shard::parse_target_token(which)};
  return spec;
}

/// The flow-workload grid of `netsample flows --sweep`: estimators x methods
/// x granularities, with the flow-table/inversion parameters attached.
shard::SweepSpec flow_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = grid_spec_from_args(args);
  spec.workload = shard::Workload::kFlow;
  // Placeholder target: required by the spec codec, ignored by flow cells.
  spec.targets = {core::Target::kPacketSize};
  if (args.get_string("grid-k") == "ladder") {
    spec.granularities = flow::flow_ladder();
  }
  spec.estimators = list_flag(args, "estimators", flow::parse_estimator_token);

  const double timeout_s = real_flag(args, "timeout");
  if (!(timeout_s > 0.0)) {
    throw std::invalid_argument("flows --timeout must be > 0 seconds");
  }
  spec.flow.idle_timeout_usec = static_cast<std::uint64_t>(timeout_s * 1e6);
  spec.flow.capacity = count_flag(args, "flow-cap");
  spec.flow.em_iters = count_flag<int>(args, "em-iters");
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

/// The sharding flags, read up front so a malformed one is a usage error
/// (64) before any capture is parsed or store written.
shard::CoordinatorOptions coordinator_options(const ArgParser& args,
                                              const char* argv0) {
  shard::CoordinatorOptions copts;
  copts.workers = count_flag<int>(args, "workers");
  copts.store_path = args.has("store") ? args.get_string("store")
                                       : args.positionals().at(0) + ".nstore";
  copts.backend = args.get_string("store-backend");
  copts.worker_command = {self_exe(argv0), "worker"};
  copts.chaos_kill_after = drill_flag(args, "chaos-kill-after");
  copts.max_respawns = count_flag<int>(args, "max-respawns");
  copts.first_worker_depart_after = drill_flag(args, "depart-after");
  copts.listen = args.get_string("listen");
  if (args.get_string("transport") == "socket") {
    copts.transport = shard::TransportKind::kSocket;
    copts.listen = parsed_flag(args, "listen", shard::parse_host_port);
  }
  copts.heartbeat_interval_s = real_flag(args, "heartbeat-interval");
  copts.lease_timeout_s = real_flag(args, "lease-timeout");
  copts.connect_retries = count_flag<int>(args, "connect-retries");
  copts.netfault = parsed_flag(args, "netfault", faultsim::parse_netfault_spec);
  return copts;
}

/// True when the store at copts.store_path holds exactly this capture: its
/// records, binned tables and means equal the cache just built from it.
/// Says on stderr when a store that opens does not.
bool store_holds_capture(const shard::CoordinatorOptions& copts,
                         exper::Experiment& ex, double mean_size) {
  const auto store = shard::TraceStore::open(
      copts.store_path, shard::store_backend(copts.backend));
  if (!store.has_value()) return false;
  const auto same = [](auto a, auto b) { return std::ranges::equal(a, b); };
  const core::BinnedTables s = store->cache().tables();
  const core::BinnedTables c = ex.binned_cache().tables();
  if (same(store->view().packets(), ex.full().packets()) &&
      same(s.timestamps, c.timestamps) && same(s.size_bins, c.size_bins) &&
      same(s.gap_bins, c.gap_bins) && same(s.size_prefix, c.size_prefix) &&
      same(s.gap_prefix, c.gap_prefix) && same(s.size_edges, c.size_edges) &&
      same(s.gap_edges, c.gap_edges) &&
      store->mean_interarrival_usec() == ex.mean_interarrival_usec() &&
      store->mean_packet_size() == mean_size) {
    return true;
  }
  std::cerr << "store: " << copts.store_path
            << " does not hold this capture; rewriting\n";
  return false;
}

/// Run `spec` sharded over copts.workers processes and re-dress the shard
/// outcomes as an exper::RunReport so the table renders through the exact
/// same code path as the in-process run (byte-identical output). Throws
/// StatusError on store/coordinator failure. Scheduling facts (store reuse,
/// leases, respawns) go to stderr so stdout stays byte-diffable across
/// worker counts.
exper::RunReport run_sharded_report(const shard::SweepSpec& spec,
                                    const std::vector<exper::GridTask>& grid,
                                    exper::Experiment& ex,
                                    const shard::CoordinatorOptions& copts,
                                    bool keep_store) {
  // Amortization: a store holding exactly this capture's cache is reused
  // as-is; any other store is rewritten from the cache just built.
  const double mean_size =
      trace::summarize_population(ex.full()).packet_size.mean;
  const bool reuse = store_holds_capture(copts, ex, mean_size);
  if (!reuse) {
    const Status st = shard::write_trace_store(
        copts.store_path, ex.binned_cache(), ex.mean_interarrival_usec(),
        mean_size);
    if (!st.is_ok()) throw StatusError(st);
  }
  std::cerr << "store: " << (reuse ? "reusing " : "wrote ")
            << copts.store_path << "\n";

  auto sharded = shard::run_sharded_sweep(spec, copts);
  if (!reuse && !keep_store) {
    (void)std::remove(copts.store_path.c_str());
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

/// The one grid driver behind `sweep` and `flows --sweep`. --workers 0 runs
/// the grid in-process on ParallelRunner threads (--jobs) with kSkip, the
/// coordinator's quarantine-and-continue semantics; --workers N shards it
/// over N processes that mmap a shared TraceStore. Both paths print
/// bit-identical tables and write bit-identical journals: seeds derive from
/// grid coordinates, never from scheduling. The spec's workload picks the
/// cell payload, the result adapter and the quarantine label.
int run_grid(const ArgParser& args, const Context& ctx,
             const shard::SweepSpec& spec) {
  shard::CoordinatorOptions copts = coordinator_options(args, ctx.argv0);
  const bool flows = spec.workload == shard::Workload::kFlow;
  std::ostringstream summary, banner;
  auto t = load(args.positionals().at(0), args, summary);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));
  exper::CheckpointJournal journal;
  const auto resume = open_resume(args, journal, banner);
  if (!resume) return fail(resume.status());
  // The flows table alone owns stdout, so a resumed run and an uninterrupted
  // one diff equal: its journal banner and capture summary go to stderr,
  // banner first. sweep prints both on stdout, summary first.
  (flows ? std::cerr : std::cout)
      << (flows ? banner.str() + summary.str() : summary.str() + banner.str());

  const auto grid = shard::build_grid(spec, ex.full(),
                                      ex.mean_interarrival_usec(),
                                      &ex.binned_cache());
  exper::RunReport rr;
  if (copts.workers == 0) {
    exper::RunOptions ropts;
    ropts.on_error = exper::FailPolicy::kSkip;
    ropts.journal = *resume;
    // The workload hook: identical to what sharded workers run per cell.
    if (flows) {
      ropts.cell_runner = [&spec](const exper::CellConfig& cfg,
                                  std::size_t index) {
        return flow::run_flow_cell(cfg, spec.flow,
                                   shard::grid_estimator(spec, index));
      };
    }
    exper::ParallelRunner runner(ctx.common.jobs);
    rr = runner.run(grid, spec.base_seed, ropts);
  } else {
    copts.journal = *resume;
    rr = run_sharded_report(spec, grid, ex, copts, args.get_bool("keep-store"));
  }

  const auto result = flows ? as_flow_result(std::move(rr), spec)
                            : as_result(std::move(rr));
  emit(result.rows, RowFormat::kAligned, std::cout);
  report_quarantined(result, [&](std::size_t i) -> std::string {
    return flows ? flow::estimator_name(shard::grid_estimator(spec, i))
                 : core::target_name(grid[i].config.target);
  });
  if (!result.ok()) return fail(result.status);
  return 0;
}

/// `netsample sweep` — the whole method x granularity grid over one capture.
int cmd_sweep(const ArgParser& args, const Context& ctx) {
  return run_grid(args, ctx, sweep_spec_from_args(args));
}

/// `netsample flows` without --sweep: assemble every flow and print the top
/// talkers (the original behavior of the subcommand).
int flow_top_talkers(const ArgParser& args) {
  const double timeout_s = real_flag(args, "timeout");
  const std::uint64_t top_n = count_flag(args, "top");
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

/// `netsample flows` — top talkers by default; with --sweep, the flow
/// workload: estimators x methods x granularities cells that sample the
/// capture, aggregate sampled flows under memory pressure (--flow-cap),
/// invert the sampled flow-size distribution, and score the estimate
/// against the interval's ground truth, through the same grid driver as
/// `sweep`. Flow tasks carry a per-estimator journal-key suffix
/// (docs/FLOWS.md §4), so the two estimator blocks — identical CellConfigs
/// by design — never alias under --resume.
int cmd_flows(const ArgParser& args, const Context& ctx) {
  if (!args.get_bool("sweep")) {
    refuse_flags(args, "flows without --sweep",
                 std::string(kGridFlags) + " " + kFlowSweepFlags);
    return flow_top_talkers(args);
  }
  refuse_flags(args, "flows --sweep", "top");
  return run_grid(args, ctx, flow_spec_from_args(args));
}

/// `netsample worker` — one sharded-sweep worker, speaking the lease
/// protocol on stdin/stdout, or dialing a socket coordinator when --connect
/// is given. Not meant for interactive use; `sweep --workers N` execs these.
int cmd_worker(const ArgParser& args, const Context&) {
  shard::WorkerOptions wopts;
  wopts.store_path = args.get_string("store");
  wopts.backend = args.get_string("store-backend");
  wopts.die_after_cells = drill_flag(args, "die-after");
  wopts.depart_after_cells = drill_flag(args, "depart-after");
  wopts.connect_retries = count_flag<int>(args, "connect-retries");
  wopts.netfault = parsed_flag(args, "netfault", faultsim::parse_netfault_spec);
  wopts.connect = parsed_flag(args, "connect", shard::parse_host_port);
  const Status status =
      wopts.connect.empty()
          ? shard::run_worker(wopts, STDIN_FILENO, STDOUT_FILENO)
          : shard::run_socket_worker(wopts);
  if (!status.is_ok()) return fail(status);
  return 0;
}

int cmd_journal(const ArgParser& args, const Context&) {
  const std::string& path = args.positionals().at(1);
  auto stats = exper::CheckpointJournal::compact_file(path);
  if (!stats) return fail(stats.status());
  std::cout << "journal " << path << ": " << stats->lines_before
            << " lines -> " << stats->lines_after << " ("
            << stats->duplicate_keys << " superseded, " << stats->dropped_lines
            << " torn/malformed dropped)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// The command table

struct Command {
  std::string name;
  std::string summary;
  std::string positionals;  // a lowercase word must be given as written
  std::string flags;        // every flag the handler, or a helper, reads
  std::string required;     // the flags of those that must be given
  int (*run)(const ArgParser&, const Context&);
};

const std::vector<Command>& command_table() {
  // The flags of the helpers several handlers share: load(),
  // session_spec_from_args(), and run_grid() with the grid spec and
  // coordinator options it reads.
  static const std::string kLoad = " strict salvage";
  static const std::string kSession =
      " method k reps seed target window stride population mean-iat chunk "
      "ring deadline tenant";
  static const std::string kGrid = std::string(" ") + kGridFlags + kLoad;
  static const std::vector<Command> table = {
      {"generate", "synthesize a calibrated SDSC-like trace to a pcap file",
       "", "out minutes seed poisson flow-mix", "out", cmd_generate},
      {"inspect", "summarize a pcap capture (Tables 2/3 style)", "CAPTURE",
       kLoad, "", cmd_inspect},
      {"sample", "draw a sampled sub-trace and write it as pcap", "CAPTURE",
       "method k seed out" + kLoad, "", cmd_sample},
      {"score", "score a sampling discipline against the capture (phi)",
       "CAPTURE",
       std::string("method k reps seed target ") + kRunnerFlags + kLoad, "",
       cmd_score},
      {"flows", "top talkers; --sweep runs the sampled-flow inversion grid",
       "CAPTURE", std::string("timeout top sweep ") + kFlowSweepFlags + kGrid,
       "", cmd_flows},
      {"design", "Cochran sample-size planning", "",
       "mu sigma accuracy confidence population", "", cmd_design},
      {"charact", "run the NSFNET characterization objects", "CAPTURE",
       "node k" + kLoad, "", cmd_charact},
      {"impair", "sweep measurement impairments and report phi degradation",
       "CAPTURE", "method k reps seed fault intensity csv" + kLoad, "",
       cmd_impair},
      {"watch", "stream a capture and emit windowed phi snapshots", "CAPTURE",
       "format" + kSession, "", cmd_watch},
      {"serve", "multi-tenant streaming scoring daemon over TCP", "",
       "listen lanes max-sessions max-ring-bytes max-pps", "", cmd_serve},
      {"loadgen", "replay a capture as N serve sessions; assert determinism",
       "CAPTURE",
       "connect sessions connections seed-groups feed-chunk p99-ms dump-rows "
       "no-close" + kSession,
       "connect", cmd_loadgen},
      {"stats", "pretty-print a --metrics-out JSON snapshot", "METRICS",
       "masked", "", cmd_stats},
      {"sweep", "score the method x k grid, in-process or over --workers N",
       "CAPTURE", "target" + kGrid, "", cmd_sweep},
      {"worker", "sharded-sweep worker, spawned by sweep (lease protocol)", "",
       "store store-backend connect connect-retries netfault die-after "
       "depart-after",
       "store", cmd_worker},
      {"journal", "maintain checkpoint journals", "compact JOURNAL", "", "",
       cmd_journal},
  };
  return table;
}

int usage() {
  std::cout << "netsample -- packet sampling methodology toolkit\n"
               "usage: netsample <command> [args]\n\ncommands:\n";
  for (const Command& c : command_table()) {
    std::cout << "  " << std::left << std::setw(11) << c.name << c.summary
              << "\n";
  }
  std::cout << "run 'netsample <command> --help' for flags.\n";
  return kExitUsage;
}

/// The parser for one subcommand: --help, the common group, and its flags,
/// each documented with its domain.
ArgParser parser_for(const Command& c) {
  ArgParser args;
  args.add_flag("help", "", "show this help");
  tools::add_common_flags(args, /*with_pcap=*/false);
  for (const std::string& name : words(c.flags)) {
    const Flag& f = flag(name, c.name);
    const Domain& d = f.domain;
    std::ostringstream help;
    help << f.help;
    if (d.kind == Domain::kCount) help << " [" << d.min << ", " << d.max << "]";
    if (d.kind == Domain::kReal) help << " [0, " << d.bound << "]";
    if (d.kind == Domain::kChoice) help << ": " << d.choices;
    args.add_flag(name, f.value, help.str(), f.def);
  }
  return args;
}

/// Arity, required flags and every declared domain (defaults included),
/// before the handler opens anything. Throws std::invalid_argument (64).
void check_invocation(const Command& c, const ArgParser& args) {
  const auto& given = args.positionals();
  const auto wanted = words(c.positionals);
  for (std::size_t i = 0; i < std::max(given.size(), wanted.size()); ++i) {
    if (i >= given.size() || i >= wanted.size() ||
        (std::islower(wanted[i][0]) && given[i] != wanted[i])) {
      throw std::invalid_argument(
          "netsample " + c.name + " takes " +
          (wanted.empty() ? "no arguments" : c.positionals) +
          (i < given.size() ? ", not \"" + given[i] + "\"" : ""));
    }
  }
  for (const std::string& name : words(c.required)) {
    if (!args.has(name)) {
      throw std::invalid_argument(c.name + " requires --" + name + " " +
                                  flag(name, c.name).value);
    }
  }
  for (const std::string& name : words(c.flags)) {
    const Flag& f = flag(name, c.name);
    if (!f.value.empty() && args.has(name)) {
      check_flag(f, args.get_string(name));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : command_table()) {
    if (argc >= 2 && c.name == argv[1]) cmd = &c;
  }
  if (cmd == nullptr) return usage();

  ArgParser args = parser_for(*cmd);
  const auto status = args.parse({argv + 2, argv + argc});
  if (!status.is_ok()) {
    std::cerr << "error: " << status.message() << "\n";
    return kExitUsage;
  }
  if (args.get_bool("help")) {
    std::cout << "usage: netsample " << cmd->name
              << (cmd->positionals.empty() ? "" : " ") << cmd->positionals
              << " [flags]\n  " << cmd->summary << "\n\nflags:\n"
              << args.help();
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
    check_invocation(*cmd, args);
    const Context ctx{tools::read_common_options(args), argv[0]};
    obs_outputs.metrics_path = ctx.common.metrics_out;
    obs_outputs.trace_path = ctx.common.trace_out;
    return cmd->run(args, ctx);
  } catch (const StatusError& e) {
    return fail(e.status());
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitInternal;
  }
}
