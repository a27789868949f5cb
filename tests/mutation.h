// The fixed-seed mutation loop shared by the parser robustness tests: the
// pcap readers (test_pcap_robustness.cpp) and the text codecs
// (test_text_codecs.cpp). One mutant is one to three edits of a clean
// input, each a byte flip, an insert of 1-32 random bytes, a delete of up to
// 32 bytes, or a caller-supplied "stomp" that knows the format (a pcap
// header field, a hostile text token). The edit sequence is a pure function
// of the Rng, so a failing mutant is reproduced by its shard seed and index.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "util/rng.h"

namespace netsample::mutation {

/// Apply one mutant's edits to `bytes` (a std::vector<std::uint8_t> or a
/// std::string). stomp(bytes, pos) performs the format-aware edit.
template <class Bytes, class Stomp>
void mutate(Rng& rng, Bytes& bytes, Stomp&& stomp) {
  using Byte = typename Bytes::value_type;
  const int edits = 1 + static_cast<int>(rng.uniform_below(3));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const std::size_t pos = rng.uniform_below(bytes.size());
    switch (rng.uniform_below(4)) {
      case 0:  // flip
        bytes[pos] ^= static_cast<Byte>(1 + rng.uniform_below(255));
        break;
      case 1: {  // insert
        const std::size_t n = 1 + rng.uniform_below(32);
        Bytes junk(n, Byte{});
        for (auto& x : junk) x = static_cast<Byte>(rng.uniform_below(256));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     junk.begin(), junk.end());
        break;
      }
      case 2: {  // delete
        const std::size_t n = std::min<std::size_t>(
            1 + rng.uniform_below(32), bytes.size() - pos);
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                    bytes.begin() + static_cast<std::ptrdiff_t>(pos + n));
        break;
      }
      default:
        stomp(bytes, pos);
        break;
    }
  }
}

}  // namespace netsample::mutation
