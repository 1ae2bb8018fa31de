// Host-speed calibration for the end-to-end times.
//
// The benchmark shares its host with other guests. For seconds to minutes
// at a time they crowd the cores it runs on, and the same cells then take
// up to twice their CPU time. A fixed kernel (a branchy bytecode
// interpreter over a 256 KiB table, then a sort) slows with them: over
// 3 s windows of the benchmark's runs, the cells' CPU time moved with the
// square of the kernel's (log-log slope 0.73-1.04 on the four workloads,
// correlation 0.75-0.97), and the set-up probes' wall time with its first
// power. The timed loop runs the kernel after every repetition and before
// every set-up probe, and scales the times to the host speed at which the
// kernel takes kCalibrationNominalNs. A change to the program does not
// touch the kernel, so it still shows in full.
#pragma once

#include <cstdint>

namespace perfbench {

/// CPU time of one run of the calibration kernel on the calling thread. The
/// first call sets up (and touches) its buffers; make it before timing.
/// Allocation-free afterwards, and the same work on every call.
std::uint64_t calibration_ns();

/// The kernel's time at nominal host speed.
inline constexpr double kCalibrationNominalNs = 1.5e6;

/// How fast the host runs, relative to nominal, next to a kernel reading of
/// `calibration` ns (1 when the reading is missing). Set-up times are
/// multiplied by it.
inline double host_speed(std::uint64_t calibration) {
  return calibration == 0
             ? 1.0
             : kCalibrationNominalNs / static_cast<double>(calibration);
}

/// The factor for cell times measured next to that reading: the square of
/// host_speed(), the relation measured above.
inline double host_scale(std::uint64_t calibration) {
  const double speed = host_speed(calibration);
  return speed * speed;
}

}  // namespace perfbench
