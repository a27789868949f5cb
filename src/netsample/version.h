// Version of the netsample public API (the facade in netsample.h).
//
// The integer NETSAMPLE_API_VERSION is MAJOR * 1000 + MINOR, with MINOR
// stepping by 100 per minor release (v1.3 = 1300). MAJOR bumps on breaking
// changes to the supported surface, MINOR on additions. Deprecated entry
// points survive exactly one MINOR release after their replacement ships
// (docs/API.md, "Deprecation policy", lists the ones in grace: in v1.3, the
// five streaming paper samplers and the oracle entry points built on them).
#pragma once

#define NETSAMPLE_API_VERSION_MAJOR 1
#define NETSAMPLE_API_VERSION_MINOR 300
#define NETSAMPLE_API_VERSION \
  (NETSAMPLE_API_VERSION_MAJOR * 1000 + NETSAMPLE_API_VERSION_MINOR)

namespace netsample {

inline constexpr int kApiVersionMajor = NETSAMPLE_API_VERSION_MAJOR;
inline constexpr int kApiVersionMinor = NETSAMPLE_API_VERSION_MINOR;
inline constexpr char kApiVersionString[] = "1.3";

}  // namespace netsample
