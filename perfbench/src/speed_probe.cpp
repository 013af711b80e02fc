#include "speed_probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace perfbench {

namespace {

constexpr int kSide = 64;
constexpr int kIterations = 60;

}  // namespace

SpeedProbe::SpeedProbe() : n_(kSide * kSide) {
  row_ptr_.push_back(0);
  for (int i = 0; i < n_; ++i) {
    const int r = i / kSide, c = i % kSide;
    double diag = 1e-3;  // grounded, so CG runs on an SPD matrix
    const auto add = [&](int j, double w) {
      col_.push_back(j);
      val_.push_back(-w);
      diag += w;
    };
    // Fixed weights in [1, 2], a pure function of the edge's endpoints.
    const auto w = [](int a, int b) { return 1.0 + 0.25 * ((a * 7 + b * 3) % 5); };
    if (r > 0) add(i - kSide, w(i - kSide, i));
    if (c > 0) add(i - 1, w(i - 1, i));
    col_.push_back(i);
    val_.push_back(0.0);
    const std::size_t diag_slot = val_.size() - 1;
    if (c < kSide - 1) add(i + 1, w(i, i + 1));
    if (r < kSide - 1) add(i + kSide, w(i, i + kSide));
    val_[diag_slot] = diag;
    row_ptr_.push_back(static_cast<int>(col_.size()));
  }
  x_.resize(static_cast<std::size_t>(n_));
  r_.resize(x_.size());
  p_.resize(x_.size());
  ap_.resize(x_.size());
}

double SpeedProbe::run() {
  const auto start = std::chrono::steady_clock::now();
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < n; ++i) {
    x_[i] = 0.0;
    r_[i] = static_cast<double>((i * 2654435761ULL) % 1000) / 1000.0 - 0.5;
    p_[i] = r_[i];
  }
  double rr = 0.0;
  for (const double v : r_) rr += v * v;
  for (int it = 0; it < kIterations; ++it) {
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (int k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        s += val_[static_cast<std::size_t>(k)] * p_[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])];
      }
      ap_[i] = s;
      pap += p_[i] * s;
    }
    const double alpha = rr / pap;
    double rr_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x_[i] += alpha * p_[i];
      r_[i] -= alpha * ap_[i];
      rr_next += r_[i] * r_[i];
    }
    const double beta = rr_next / rr;
    rr = rr_next;
    for (std::size_t i = 0; i < n; ++i) p_[i] = r_[i] + beta * p_[i];
  }
  // Keep the solve observable so it cannot be optimized away.
  volatile double sink = x_[0];
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double SpeedProbe::median_of(int runs) {
  std::vector<double> t;
  for (int i = 0; i < runs; ++i) t.push_back(run());
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace perfbench
