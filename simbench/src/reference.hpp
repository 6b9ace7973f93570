// A fixed reference computation, timed between the end-to-end runs to
// measure how fast the machine is at that moment.
//
// The machine the benchmark was built on is shared: over tens of seconds to
// minutes its speed drifts by up to a factor of two, in CPU time as much as
// in wall time, so two 30 s runs of the same code can differ by more than
// any change worth measuring. The kernel (a 1024-entry binary heap and random table updates,
// the access pattern of the simulator's event loop) slows down with that
// drift, and it never changes with the simulator. Scaling host time by
// kReferenceKernelS / (kernel time) turns host seconds into seconds of a
// machine running at its reference speed.
#pragma once

namespace simbench {

// The kernel's median host time on the reference machine (README.md).
inline constexpr double kReferenceKernelS = 0.18;

// Runs the kernel once; returns its host seconds.
double ReferenceKernelSeconds();

}  // namespace simbench
