// A fixed calibration workload that measures how fast the host runs right
// now. It shares no code with the library under test, so a change to the
// library never moves it; a slow spell of the host does.
#pragma once

namespace perfbench {

/// calibrate_s on the reference host: the host of the first reading in
/// perfbench/README.md (4-vCPU Xeon guest, gcc 12, Release), in its fast
/// state, with four threads. End-to-end times are scaled to this speed.
constexpr double kReferenceCalibrationS = 0.028;

/// Mean seconds per thread of a fixed amount of compute run on `threads`
/// threads at once: each thread evaluates the same pseudo-random 64-lane
/// gate network, a loop shaped like the simulator's (word loads,
/// AND/OR/XOR, stores into a small net array that stays in L1/L2).
double calibrate_s(int threads);

}  // namespace perfbench
