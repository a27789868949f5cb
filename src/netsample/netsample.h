// netsample — the versioned public API facade.
//
// This is the one header applications, tools, and benchmarks include; it
// re-exports the *supported* surface of the library (docs/API.md spells
// out what "supported" means and lists the internal headers that are
// deliberately absent). Everything here compiles standalone under
// -Wall -Wextra -Werror — the CI header-hygiene leg builds exactly this
// header in an otherwise empty translation unit.
//
// Layering: the facade sits on top of every module and may be included
// from anywhere outside src/; modules never include it.
//
//   Versioning      netsample/version.h (NETSAMPLE_API_VERSION)
//   Results/rows    netsample/result.h (Result<T>, Table, emit)
//   Substrate       Status/StatusOr, CancelToken, Rng, MicroTime, ArgParser
//   Traces          trace::Trace/TraceView, flows, summaries, pcap I/O
//   Synthesis       synth:: traffic models and presets
//   Sampling        core:: draw(view, spec) and sampler_name (v1.3), which
//                   select through the one SelectCursor per method;
//                   SamplerSpec; the per-packet Sampler extension API
//                   (BernoulliSampler, ScheduledStratifiedSampler);
//                   targets, φ metrics, design helpers. The five streaming
//                   paper samplers and make_sampler are deprecated (v1.3)
//   Experiments     exper:: Experiment, CellConfig/run_cell, sweeps,
//                   ParallelRunner, checkpoint journal; the streaming
//                   oracle run_cell_reference is deprecated (v1.3)
//   Flow workload   flow:: sampled-flow tables, flow-size distributions,
//                   inversion estimators, run_flow_cell
//   Streaming       stream:: Engine, sources, SPSC ring, run_pipeline
//   Sessions        netsample::SessionSpec (v1.1) — the shared session
//                   vocabulary of `watch` and `serve`
//   Serving         serve:: daemon, wire protocol, loadgen driver
//   Fault injection faultsim::, characterization charact::, NSFNET
//                   collection model collector::
//   Observability   obs:: metrics registry, spans, exporters
#pragma once

#include "netsample/result.h"   // IWYU pragma: export
#include "netsample/session.h"  // IWYU pragma: export
#include "netsample/version.h"  // IWYU pragma: export

// Substrate.
#include "util/args.h"        // IWYU pragma: export
#include "util/asciichart.h"  // IWYU pragma: export
#include "util/cancel.h"      // IWYU pragma: export
#include "util/format.h"      // IWYU pragma: export
#include "util/rng.h"         // IWYU pragma: export
#include "util/status.h"      // IWYU pragma: export
#include "util/timeval.h"     // IWYU pragma: export

// Packet headers and addresses.
#include "net/headers.h"  // IWYU pragma: export
#include "net/ipv4.h"     // IWYU pragma: export
#include "net/ports.h"    // IWYU pragma: export

// Traces and capture I/O.
#include "pcap/pcap.h"           // IWYU pragma: export
#include "pcap/stream.h"         // IWYU pragma: export
#include "trace/flow_export.h"   // IWYU pragma: export
#include "trace/flows.h"         // IWYU pragma: export
#include "trace/packet_record.h" // IWYU pragma: export
#include "trace/summary.h"       // IWYU pragma: export
#include "trace/trace.h"         // IWYU pragma: export

// Statistics toolkit (supported subset).
#include "stats/boxplot.h"      // IWYU pragma: export
#include "stats/descriptive.h"  // IWYU pragma: export
#include "stats/histogram.h"    // IWYU pragma: export

// Synthetic traffic.
#include "synth/model.h"    // IWYU pragma: export
#include "synth/presets.h"  // IWYU pragma: export

// Sampling disciplines and scoring.
#include "core/categorical.h"  // IWYU pragma: export
#include "core/design.h"       // IWYU pragma: export
#include "core/metrics.h"      // IWYU pragma: export
#include "core/sampler.h"      // IWYU pragma: export
#include "core/samplers.h"     // IWYU pragma: export
#include "core/simd/simd.h"    // IWYU pragma: export
#include "core/targets.h"      // IWYU pragma: export
#include "core/theory.h"       // IWYU pragma: export
#include "core/trace_cache.h"  // IWYU pragma: export

// Characterization, collection model, fault injection.
#include "charact/agent.h"       // IWYU pragma: export
#include "collector/backbone.h"  // IWYU pragma: export
#include "faultsim/faultsim.h"   // IWYU pragma: export
#include "faultsim/netfault.h"   // IWYU pragma: export

// Experiments.
#include "exper/experiment.h"  // IWYU pragma: export
#include "exper/journal.h"     // IWYU pragma: export
#include "exper/parallel.h"    // IWYU pragma: export
#include "exper/runner.h"      // IWYU pragma: export

// Flow workload: sampled-flow aggregation and size-distribution inversion.
#include "flow/inversion.h"      // IWYU pragma: export
#include "flow/sampled_table.h"  // IWYU pragma: export
#include "flow/size_dist.h"      // IWYU pragma: export
#include "flow/sweep.h"          // IWYU pragma: export

// Sharded multi-process sweeps over a memory-mapped trace store.
#include "shard/coordinator.h"  // IWYU pragma: export
#include "shard/grid.h"         // IWYU pragma: export
#include "shard/protocol.h"     // IWYU pragma: export
#include "shard/store.h"        // IWYU pragma: export
#include "shard/transport.h"    // IWYU pragma: export
#include "shard/worker.h"       // IWYU pragma: export

// Streaming scorer.
#include "stream/engine.h"    // IWYU pragma: export
#include "stream/pipeline.h"  // IWYU pragma: export
#include "stream/ring.h"      // IWYU pragma: export
#include "stream/source.h"    // IWYU pragma: export

// Multi-tenant scoring daemon (link netsample_serve to use these).
#include "serve/loadgen.h"    // IWYU pragma: export
#include "serve/protocol.h"   // IWYU pragma: export
#include "serve/serve.h"      // IWYU pragma: export

// Observability.
#include "obs/export.h"   // IWYU pragma: export
#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/span.h"     // IWYU pragma: export
