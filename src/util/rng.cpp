#include "util/rng.h"

#include <cmath>

namespace netsample {

double Rng::exponential(double mean) {
  // Inverse CDF; guard against log(0).
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  have_cached_normal_ = true;
  return u * factor;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double xm, double alpha) {
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::geometric(double p) {
  if (p >= 1.0) return 0;
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

}  // namespace netsample
