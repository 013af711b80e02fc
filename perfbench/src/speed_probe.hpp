#pragma once

/// \file speed_probe.hpp
/// Machine-speed probe. On shared virtual machines the CPU's speed drifts
/// over seconds (on a 4-core x86-64 VM the same single-threaded
/// sparsification took 117–213 ms back to back, with CPU time tracking wall
/// time, so it is not preemption). The probe is a fixed computation shaped
/// like the engine's inner loop — unpreconditioned CG on a weighted 64×64
/// grid Laplacian, CSR SpMV plus vector updates, ~2 ms — written here in
/// plain C++ so that no change to libssp can move it. Timing it right
/// before and after an op and scaling the op's wall time by
/// kReferenceSeconds / probe time reports the op at one reference machine
/// speed; the raw wall-clock medians are printed beside them. On that VM,
/// over ten seeds, it narrowed the run-to-run spread (IQR/median) of the
/// median op time from 0.197 raw to 0.104 on `mesh` and from 0.258 to
/// 0.093 on `network`.
///
/// The probe only runs while the program is idle: a probe sharing the
/// cores with the program's own work would slow down whenever the program
/// got busier, and scaling by it would then report that program as faster.

#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Nominal probe time: reported op times are "as if the probe took this".
  static constexpr double kReferenceSeconds = 2.0e-3;

  SpeedProbe();
  /// Runs the probe once; returns its wall time in seconds.
  double run();
  /// Median of `runs` back-to-back probes, in seconds.
  double median_of(int runs);
  /// `seconds` of wall time measured between probes `before` and `after`,
  /// scaled to the reference speed.
  [[nodiscard]] static double normalize(double seconds, double before,
                                        double after) {
    return seconds * kReferenceSeconds / (0.5 * (before + after));
  }

 private:
  int n_ = 0;
  std::vector<int> row_ptr_, col_;
  std::vector<double> val_, x_, r_, p_, ap_;
};

}  // namespace perfbench
