// The one field grammar (util/fields.h) and every text codec written over
// it: the lease wire, the serve wire and FEED payloads, the SweepSpec,
// SessionSpec and NetFaultSpec codecs, replication arrays, journal lines
// and HOST:PORT. Two checks run over every decoder:
//   - a table of hostile integer forms, put into every unsigned field, must
//     be refused;
//   - a fixed-seed mutation loop (tests/mutation.h): every mutant is either
//     refused or decodes to a value y with decode(encode(y)) == y, and
//     nothing crashes (the suite also runs under ASan+UBSan).
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exper/journal.h"
#include "faultsim/netfault.h"
#include "mutation.h"
#include "netsample/session.h"
#include "serve/protocol.h"
#include "shard/grid.h"
#include "shard/protocol.h"
#include "shard/transport.h"
#include "util/fields.h"
#include "util/rng.h"

namespace netsample {
namespace {

// ---------------------------------------------------------------------------
// The grammar itself.

TEST(FieldGrammar, UnsignedIsDigitsOnlyWithinTheFieldMaximum) {
  std::uint64_t v = 0;
  EXPECT_TRUE(fields::parse_uint("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(fields::parse_uint("18446744073709551615", &v));
  EXPECT_EQ(v, fields::kMaxUint);
  EXPECT_TRUE(fields::parse_uint("007", &v));  // leading zeros: the value
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(fields::parse_uint("65535", &v, 65535));
  EXPECT_FALSE(fields::parse_uint("65536", &v, 65535));
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "0x10", "1e3", "1.0",
                          "18446744073709551616", "5x", "\t5"}) {
    EXPECT_FALSE(fields::parse_uint(bad, &v)) << "accepted: [" << bad << "]";
  }
}

TEST(FieldGrammar, RealIsOneWholeFiniteToken) {
  double v = 0;
  for (const char* good : {"0", "-0", "1.5", "-2.25", "1e+20", ".5", "1.",
                           "4.9406564584124654e-324"}) {
    EXPECT_TRUE(fields::parse_real(good, &v)) << "refused: " << good;
  }
  for (const char* bad : {"", "+1", " 1", "1 ", "inf", "-inf", "nan",
                          "1e400", "1e-400", "0x10", "1,5", "--1"}) {
    EXPECT_FALSE(fields::parse_real(bad, &v)) << "accepted: [" << bad << "]";
  }
}

TEST(FieldGrammar, HexfloatRoundTripsEveryBitIncludingNonFinite) {
  const double zero = 0.0;
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           0.1,
                           -3.5,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           zero / zero};
  for (const double x : values) {
    std::string text;
    fields::append_hexfloat(text, x);
    double back = 1.0;
    ASSERT_TRUE(fields::parse_hexfloat(text, &back)) << text;
    EXPECT_EQ(std::memcmp(&x, &back, sizeof x), 0) << text;
  }
  double v = 0;
  for (const char* bad : {"", "1.5", "0x", "0x-1p0", "0xinf", "0x1p",
                          "0x1p+0 ", " 0x1p+0", "--0x1p+0", "+0x1p+0"}) {
    EXPECT_FALSE(fields::parse_hexfloat(bad, &v)) << "accepted: [" << bad
                                                  << "]";
  }
}

TEST(FieldGrammar, ListsSplitOnOneSeparator) {
  std::vector<std::string> items;
  const auto collect = [&items](std::string_view item) {
    items.emplace_back(item);
    return true;
  };
  EXPECT_TRUE(fields::for_each_item("", ',', collect));
  EXPECT_TRUE(items.empty());
  EXPECT_TRUE(fields::for_each_item("a,,b,", ',', collect));
  EXPECT_EQ(items, (std::vector<std::string>{"a", "", "b", ""}));
  std::string out;
  fields::append_list(out, ';', items,
                      [&out](const std::string& item) { out += item; });
  EXPECT_EQ(out, "a;;b;");
}

TEST(FieldGrammar, KeyValueListsTakeKnownKeysOnceAndRequireMandatoryOnes) {
  static constexpr std::string_view kKeys[] = {"a", "b", "c"};
  const auto any = [](std::size_t, std::string_view) { return true; };
  const auto kind = [&](const char* text) {
    return fields::for_each_key_value(text, ',', kKeys, 0b011, any).kind;
  };
  using E = fields::KeyValueError;
  EXPECT_EQ(kind("a=1,b=2"), E::kNone);
  EXPECT_EQ(kind("b=2,c=3,a=1"), E::kNone);
  EXPECT_EQ(kind("a=1"), E::kMissingKey);
  EXPECT_EQ(kind(""), E::kMissingKey);
  EXPECT_EQ(kind("a=1,,b=2"), E::kEmptyItem);
  EXPECT_EQ(kind("a=1,b=2,"), E::kEmptyItem);
  EXPECT_EQ(kind("a=1,b"), E::kNotKeyValue);
  EXPECT_EQ(kind("a=1,b="), E::kNotKeyValue);
  EXPECT_EQ(kind("a=1,=2"), E::kNotKeyValue);
  EXPECT_EQ(kind("a=1,b=2,d=4"), E::kUnknownKey);
  EXPECT_EQ(kind("a=1,b=2,a=3"), E::kDuplicateKey);
  const auto refuse_b = [](std::size_t key, std::string_view) {
    return key != 1;
  };
  const auto err =
      fields::for_each_key_value("a=1,b=2", ',', kKeys, 0b011, refuse_b);
  EXPECT_EQ(err.kind, E::kBadValue);
  EXPECT_EQ(err.where, "b=2");
}

TEST(FieldGrammar, NameTokens) {
  EXPECT_TRUE(fields::is_token("tenant-A_1.x", 64));
  EXPECT_FALSE(fields::is_token("", 64));
  EXPECT_FALSE(fields::is_token("a b", 64));
  EXPECT_FALSE(fields::is_token("a,b", 64));
  EXPECT_FALSE(fields::is_token(std::string(65, 'a'), 64));
  EXPECT_TRUE(serve::valid_session_id(std::string(64, 'a')));
}

// ---------------------------------------------------------------------------
// The codecs as decode/encode pairs over text.

/// One text codec: decode(text) -> accepted?, and re-encode the decoded
/// value; `same` compares two decoded values.
template <class T>
struct Codec {
  std::function<std::optional<T>(const std::string&)> decode;
  std::function<std::string(const T&)> encode;
  std::function<bool(const T&, const T&)> same;
};

std::string journal_path() {
  return (std::filesystem::temp_directory_path() /
          ("netsample_text_codecs_" + std::to_string(::getpid()) + ".ckpt"))
      .string();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_reps(const std::vector<core::DisparityMetrics>& a,
               const std::vector<core::DisparityMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (!same_bits(x.chi2, y.chi2) || !same_bits(x.dof, y.dof) ||
        !same_bits(x.significance, y.significance) ||
        !same_bits(x.cost, y.cost) || !same_bits(x.rcost, y.rcost) ||
        !same_bits(x.x2, y.x2) || !same_bits(x.avg_norm_dev, y.avg_norm_dev) ||
        !same_bits(x.phi, y.phi) || x.sample_n != y.sample_n ||
        x.population_n != y.population_n) {
      return false;
    }
  }
  return true;
}

Codec<shard::Message> lease_codec() {
  return {
      [](const std::string& line) -> std::optional<shard::Message> {
        shard::Message m;
        if (!shard::parse_message(line, &m)) return std::nullopt;
        return m;
      },
      [](const shard::Message& m) { return shard::format_message(m); },
      [](const shard::Message& a, const shard::Message& b) {
        return a.type == b.type && a.index == b.index && a.code == b.code &&
               a.pid == b.pid && a.packets == b.packets &&
               a.cache_builds == b.cache_builds &&
               a.cache_maps == b.cache_maps && a.cells == b.cells &&
               a.text == b.text;
      }};
}

Codec<serve::ClientMessage> client_line_codec() {
  return {
      [](const std::string& line) -> std::optional<serve::ClientMessage> {
        serve::ClientMessage msg;
        std::string error;
        if (!serve::parse_client_line(line, &msg, &error)) return std::nullopt;
        return msg;
      },
      [](const serve::ClientMessage& msg) -> std::string {
        switch (msg.command) {
          case serve::ClientCommand::kStats: return "STATS";
          case serve::ClientCommand::kBye: return "BYE";
          case serve::ClientCommand::kClose: return "CLOSE " + msg.session_id;
          case serve::ClientCommand::kOpen:
            return "OPEN " + msg.session_id + " " + msg.payload;
          case serve::ClientCommand::kFeed:
            return "FEED " + msg.session_id + " " + msg.payload;
        }
        return "";
      },
      [](const serve::ClientMessage& a, const serve::ClientMessage& b) {
        return a.command == b.command && a.session_id == b.session_id &&
               a.payload == b.payload;
      }};
}

Codec<std::vector<trace::PacketRecord>> feed_codec() {
  return {
      [](const std::string& payload)
          -> std::optional<std::vector<trace::PacketRecord>> {
        MicroTime last{};
        serve::FeedChunk chunk;
        if (!serve::parse_feed_payload(payload, &last, &chunk)) {
          return std::nullopt;
        }
        return chunk.packets;
      },
      [](const std::vector<trace::PacketRecord>& packets) {
        return serve::encode_feed_payload(
            std::span<const trace::PacketRecord>(packets));
      },
      [](const std::vector<trace::PacketRecord>& a,
         const std::vector<trace::PacketRecord>& b) {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (a[i].timestamp.usec != b[i].timestamp.usec ||
              a[i].size != b[i].size) {
            return false;
          }
        }
        return true;
      }};
}

Codec<shard::SweepSpec> sweep_spec_codec() {
  return {
      [](const std::string& text) -> std::optional<shard::SweepSpec> {
        shard::SweepSpec spec;
        if (!shard::decode_sweep_spec(text, &spec)) return std::nullopt;
        return spec;
      },
      [](const shard::SweepSpec& spec) {
        return shard::encode_sweep_spec(spec);
      },
      [](const shard::SweepSpec& a, const shard::SweepSpec& b) {
        return a.targets == b.targets && a.methods == b.methods &&
               a.granularities == b.granularities &&
               a.replications == b.replications &&
               a.base_seed == b.base_seed && a.workload == b.workload &&
               a.estimators == b.estimators && a.flow == b.flow;
      }};
}

Codec<SessionSpec> session_spec_codec() {
  return {[](const std::string& text) -> std::optional<SessionSpec> {
            SessionSpec spec;
            if (!decode_session_spec(text, &spec)) return std::nullopt;
            return spec;
          },
          [](const SessionSpec& spec) { return encode_session_spec(spec); },
          [](const SessionSpec& a, const SessionSpec& b) { return a == b; }};
}

Codec<faultsim::NetFaultSpec> netfault_codec() {
  return {
      [](const std::string& text) -> std::optional<faultsim::NetFaultSpec> {
        auto spec = faultsim::parse_netfault_spec(text);
        if (!spec.has_value()) return std::nullopt;
        return *spec;
      },
      [](const faultsim::NetFaultSpec& spec) {
        return faultsim::encode_netfault_spec(spec);
      },
      // delay-ms only means something with a delay probability, and the
      // canonical encoding drops it otherwise.
      [](const faultsim::NetFaultSpec& a, const faultsim::NetFaultSpec& b) {
        return a.seed == b.seed && a.drop == b.drop && a.dup == b.dup &&
               a.trunc == b.trunc && a.delay == b.delay &&
               (a.delay <= 0 || a.delay_ms == b.delay_ms) &&
               a.disconnect_every == b.disconnect_every &&
               a.max_faults == b.max_faults;
      }};
}

Codec<std::vector<core::DisparityMetrics>> replications_codec() {
  return {[](const std::string& text)
              -> std::optional<std::vector<core::DisparityMetrics>> {
            std::vector<core::DisparityMetrics> reps;
            if (!exper::decode_replications(text, &reps)) return std::nullopt;
            return reps;
          },
          [](const std::vector<core::DisparityMetrics>& reps) {
            return exper::encode_replications(reps);
          },
          same_reps};
}

/// A journal line, decoded the way resume reads it: CheckpointJournal::open
/// over a file holding just that line keeps it or drops it.
struct JournalEntry {
  std::string key;
  std::vector<core::DisparityMetrics> reps;
};

Codec<JournalEntry> journal_line_codec() {
  return {
      [](const std::string& line) -> std::optional<JournalEntry> {
        if (line.find('\n') != std::string::npos) return std::nullopt;
        const std::string path = journal_path();
        std::ofstream(path, std::ios::binary | std::ios::trunc) << line << "\n";
        auto journal = exper::CheckpointJournal::open(path);
        std::filesystem::remove(path);
        if (!journal.has_value() || journal->size() != 1) return std::nullopt;
        // open() kept the line, so its key is the text up to the first quote.
        const std::size_t start = std::strlen("{\"key\":\"");
        JournalEntry entry;
        entry.key = line.substr(start, line.find('"', start) - start);
        const auto* reps = journal->find(entry.key);
        if (reps == nullptr) return std::nullopt;
        entry.reps = *reps;
        return entry;
      },
      [](const JournalEntry& entry) {
        return "{\"key\":\"" + entry.key +
               "\",\"reps\":" + exper::encode_replications(entry.reps) + "}";
      },
      [](const JournalEntry& a, const JournalEntry& b) {
        return a.key == b.key && same_reps(a.reps, b.reps);
      }};
}

Codec<std::pair<std::string, int>> host_port_codec() {
  return {[](const std::string& text)
              -> std::optional<std::pair<std::string, int>> {
            auto hp = shard::parse_host_port(text);
            if (!hp.has_value()) return std::nullopt;
            return *hp;
          },
          [](const std::pair<std::string, int>& hp) {
            return hp.first + ":" + std::to_string(hp.second);
          },
          [](const std::pair<std::string, int>& a,
             const std::pair<std::string, int>& b) { return a == b; }};
}

std::vector<core::DisparityMetrics> sample_reps() {
  core::DisparityMetrics m;
  m.chi2 = 12.5;
  m.dof = 4.0;
  m.significance = 0.123456789123456789;
  m.cost = 1000.0;
  m.rcost = 31.25;
  m.x2 = 0.1;
  m.avg_norm_dev = std::numeric_limits<double>::quiet_NaN();
  m.phi = 0.0421;
  m.sample_n = 7;
  m.population_n = 9;
  core::DisparityMetrics n = m;
  n.avg_norm_dev = -std::numeric_limits<double>::infinity();
  n.sample_n = 314;
  return {m, n};
}

// ---------------------------------------------------------------------------
// Hostile integer forms, in every unsigned field of every decoder.

const char* const kHostileIntegers[] = {
    "-1", "+5", " 5", "5 ", "0x10", "1e3", "18446744073709551616", ""};

/// `line` with its one "@" replaced by `value`.
std::string fill(const std::string& line, const std::string& value) {
  const std::size_t at = line.find('@');
  return line.substr(0, at) + value + line.substr(at + 1);
}

/// Each template holds one unsigned field as "@": with "7" it decodes (so a
/// refusal below is the field's doing), and with every hostile form it must
/// be refused.
template <class T>
void expect_hostile_integers_refused(const Codec<T>& codec,
                                     const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    ASSERT_TRUE(codec.decode(fill(line, "7")).has_value());
    for (const char* hostile : kHostileIntegers) {
      EXPECT_FALSE(codec.decode(fill(line, hostile)).has_value())
          << "accepted \"" << hostile << "\": " << fill(line, hostile);
    }
  }
}

TEST(TextCodecs, LeaseWireRefusesHostileIntegers) {
  // RESULT and FAIL end in free text after one space, so a space after
  // their last number belongs to that text ("FAIL 1 5  x" is code 5 with
  // message " x"). Here the text must come back exactly as the template
  // wrote it, so the number is all that varies.
  Codec<shard::Message> codec = lease_codec();
  codec.decode = [](const std::string& line) -> std::optional<shard::Message> {
    auto m = lease_codec().decode(line);
    if (m && !m->text.empty() && m->text != "[]" && m->text != "watchdog") {
      return std::nullopt;
    }
    return m;
  };
  expect_hostile_integers_refused(
      codec,
      {"LEASE @", "HELLO pid=@ packets=2 builds=0 maps=1",
       "HELLO pid=1 packets=@ builds=0 maps=1",
       "HELLO pid=1 packets=2 builds=@ maps=1",
       "HELLO pid=1 packets=2 builds=0 maps=@", "RESULT @ []",
       "FAIL @ 4 watchdog", "FAIL 1 @ watchdog", "BYE cells=@", "PING @",
       "PONG @"});
}

TEST(TextCodecs, FeedPayloadRefusesHostileIntegers) {
  expect_hostile_integers_refused(
      feed_codec(), {"@:100", "1000:@", "1000:100 @:100", "1000:100 2000:@"});
}

TEST(TextCodecs, SweepSpecRefusesHostileIntegers) {
  const std::string packet = "v=1;seed=1;reps=2;targets=size;methods=random;";
  const std::string flow = packet + "k=8;workload=flow;est=em;";
  expect_hostile_integers_refused(
      sweep_spec_codec(),
      {"v=1;seed=@;reps=2;targets=size;methods=random;k=8",
       "v=1;seed=1;reps=@;targets=size;methods=random;k=8", packet + "k=@",
       packet + "k=4,@", flow + "ftimeout=@;fcap=0;emiters=60",
       flow + "ftimeout=30;fcap=@;emiters=60",
       flow + "ftimeout=30;fcap=0;emiters=@"});
}

TEST(TextCodecs, SessionSpecRefusesHostileIntegers) {
  const std::string base =
      "v=1,m=systematic,k=50,r=5,s=1,t=both,w=0,st=0,pop=0,iat=0,"
      "chunk=4096,ring=16,dl=0,tn=default";
  std::vector<std::string> lines;
  for (const char* field : {",k=50", ",r=5", ",s=1", ",pop=0", ",chunk=4096",
                            ",ring=16"}) {
    std::string line = base;
    const std::string f = field;
    const std::size_t at = line.find(f);
    line.replace(at, f.size(), f.substr(0, f.find('=') + 1) + "@");
    lines.push_back(line);
  }
  expect_hostile_integers_refused(session_spec_codec(), lines);
}

TEST(TextCodecs, NetFaultSpecRefusesHostileIntegers) {
  expect_hostile_integers_refused(
      netfault_codec(), {"seed=@", "seed=1,delay=0.2,delay-ms=@",
                         "disconnect-every=@", "drop=0.1,max-faults=@"});
}

TEST(TextCodecs, ReplicationsAndJournalLinesRefuseHostileIntegers) {
  const std::string reps = exper::encode_replications(sample_reps());
  std::vector<std::string> arrays;
  for (const char* field : {"\"sn\":7", "\"pn\":9"}) {
    std::string text = reps;
    const std::string f = field;
    text.replace(text.find(f), f.size(), f.substr(0, f.find(':') + 1) + "@");
    arrays.push_back(text);
  }
  expect_hostile_integers_refused(replications_codec(), arrays);
  std::vector<std::string> lines;
  for (const auto& array : arrays) {
    lines.push_back("{\"key\":\"m=x;k=7\",\"reps\":" + array + "}");
  }
  expect_hostile_integers_refused(journal_line_codec(), lines);
}

TEST(TextCodecs, HostPortRefusesHostileIntegers) {
  expect_hostile_integers_refused(host_port_codec(), {"127.0.0.1:@"});
}

TEST(TextCodecs, ReplicationArraysAreOneSeparatorLists) {
  const std::string one = exper::encode_replications({sample_reps()[0]});
  const std::string object = one.substr(1, one.size() - 2);
  std::vector<core::DisparityMetrics> reps;
  EXPECT_TRUE(exper::decode_replications("[]", &reps));
  EXPECT_TRUE(exper::decode_replications("[" + object + "," + object + "]",
                                         &reps));
  EXPECT_EQ(reps.size(), 2u);
  EXPECT_FALSE(exper::decode_replications("[" + object + ",]", &reps));
  EXPECT_FALSE(exper::decode_replications("[," + object + "]", &reps));
  EXPECT_FALSE(
      exper::decode_replications("[" + object + object + "]", &reps));
  EXPECT_FALSE(exper::decode_replications("[" + object + "] ", &reps));
}

TEST(TextCodecs, SpecsTakeEachKeyAtMostOnce) {
  shard::SweepSpec sweep;
  EXPECT_FALSE(shard::decode_sweep_spec(
      "v=1;seed=1;reps=2;targets=size;methods=random;k=8;k=16", &sweep));
  EXPECT_FALSE(faultsim::parse_netfault_spec("drop=0.1,drop=0.2").has_value());
  SessionSpec session;
  EXPECT_FALSE(decode_session_spec(encode_session_spec(SessionSpec{}) + ",k=9",
                                   &session));
}

// ---------------------------------------------------------------------------
// The mutation loop over every codec.

/// Text edits that aim at the grammar: signs, separators, digits that
/// overflow, hex and exponent markers, non-finite spellings.
const char* const kTextStomps[] = {
    "-", "+", " ", "  ", ",", ";", "=", ":", "\"", "{", "}", "[", "]",
    "0", "9", "00", "0x", "e", "p", ".", "inf", "nan", "-nan",
    "18446744073709551616", "18446744073709551615", "4294967296", "\n"};

template <class T>
void run_mutants(const Codec<T>& codec, const std::vector<std::string>& bases,
                 std::uint64_t seed, int count) {
  for (const auto& base : bases) {
    ASSERT_TRUE(codec.decode(base).has_value()) << "clean base refused: "
                                                << base;
  }
  Rng rng(seed);
  int accepted = 0;
  for (int m = 0; m < count; ++m) {
    std::string text = bases[rng.uniform_below(bases.size())];
    mutation::mutate(rng, text, [&rng](std::string& t, std::size_t pos) {
      t.insert(pos, kTextStomps[rng.uniform_below(std::size(kTextStomps))]);
    });
    const auto y = codec.decode(text);
    if (!y.has_value()) continue;
    ++accepted;
    const std::string again = codec.encode(*y);
    const auto z = codec.decode(again);
    ASSERT_TRUE(z.has_value()) << "mutant " << m << " decoded from \"" << text
                               << "\" but its encoding \"" << again
                               << "\" is refused";
    ASSERT_TRUE(codec.same(*y, *z))
        << "mutant " << m << ": \"" << text << "\" re-encodes as \"" << again
        << "\", which decodes to another value";
  }
  ::testing::Test::RecordProperty("accepted_mutants", accepted);
}

TEST(TextCodecMutation, LeaseLines) {
  std::vector<std::string> bases;
  shard::Message m;
  m.type = shard::MessageType::kSpec;
  m.text = "v=1;seed=7;reps=2;targets=size;methods=random;k=8";
  bases.push_back(shard::format_message(m));
  m = {};
  m.type = shard::MessageType::kHello;
  m.pid = 4242;
  m.packets = 123456;
  m.cache_maps = 1;
  bases.push_back(shard::format_message(m));
  m = {};
  m.type = shard::MessageType::kResult;
  m.index = 17;
  m.text = exper::encode_replications(sample_reps());
  bases.push_back(shard::format_message(m));
  m = {};
  m.type = shard::MessageType::kFail;
  m.index = 3;
  m.code = StatusCode::kDeadlineExceeded;
  m.text = "cell watchdog fired";
  bases.push_back(shard::format_message(m));
  bases.insert(bases.end(), {"LEASE 12", "STOP", "BYE cells=9", "PING 5",
                             "PONG 5"});
  run_mutants(lease_codec(), bases, 0x7e470001, 2000);
}

TEST(TextCodecMutation, ServeClientLines) {
  run_mutants(client_line_codec(),
              {"OPEN s1 " + encode_session_spec(SessionSpec{}),
               "FEED s1 1000:100 2000:1500 2000:40", "CLOSE s1", "STATS",
               "BYE"},
              0x7e470002, 2000);
}

TEST(TextCodecMutation, FeedPayloads) {
  run_mutants(feed_codec(),
              {"1000:100 2000:1500 2000:40 1500:64", "0:1",
               "18446744073709551615:65535"},
              0x7e470003, 2000);
}

TEST(TextCodecMutation, SweepSpecs) {
  shard::SweepSpec flow = shard::default_sweep_spec();
  flow.workload = shard::Workload::kFlow;
  flow.targets = {core::Target::kPacketSize};
  flow.estimators = {flow::Estimator::kTailRescale, flow::Estimator::kEm};
  flow.granularities = {10, 100};
  run_mutants(sweep_spec_codec(),
              {shard::encode_sweep_spec(shard::default_sweep_spec()),
               shard::encode_sweep_spec(flow)},
              0x7e470004, 2000);
}

TEST(TextCodecMutation, SessionSpecs) {
  SessionSpec spec;
  spec.method = core::Method::kStratifiedTimer;
  spec.window_s = 5;
  spec.stride_s = 2.5;
  spec.mean_iat_usec = 1234.5678901234567;
  spec.population = 1000000;
  spec.tenant = "tenant-A";
  run_mutants(session_spec_codec(),
              {encode_session_spec(SessionSpec{}), encode_session_spec(spec)},
              0x7e470005, 2000);
}

TEST(TextCodecMutation, NetFaultSpecs) {
  run_mutants(netfault_codec(),
              {"seed=7,drop=0.1,dup=0.05,trunc=0.01,delay=0.2,delay-ms=9,"
               "disconnect-every=40,max-faults=3",
               "seed=9,drop=0.15,delay=0.2,delay-ms=2,disconnect-every=40", ""},
              0x7e470006, 2000);
}

TEST(TextCodecMutation, ReplicationArrays) {
  run_mutants(replications_codec(),
              {exper::encode_replications(sample_reps()), "[]"}, 0x7e470007,
              2000);
}

TEST(TextCodecMutation, JournalLines) {
  run_mutants(journal_line_codec(),
              {"{\"key\":\"m=systematic;t=size;k=8;i=0;n=100;r=2;"
               "s=00000000000000ff\",\"reps\":" +
               exper::encode_replications(sample_reps()) + "}"},
              0x7e470008, 300);
}

}  // namespace
}  // namespace netsample
