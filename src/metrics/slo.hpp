#pragma once

// SLO model for transient-impact measurement (§5.2).
//
// Flows are grouped by (priority class, source metro, destination metro).
// Each class has a loss SLO: 99.99% delivery for the highest class, one
// "nine" less per subsequent class. A flow group violates its SLO when
// more than 5% of its flows lose traffic beyond the class threshold.
// Blast radius (Eq 1) is the fraction of groups in violation; bad seconds
// (Eq 2) integrates blast radius over the convergence window.

#include <cstddef>
#include <string>
#include <vector>

namespace dsdn::metrics {

// Priority classes, highest first. The paper evaluates 3 representative
// classes (Fig 10: highest / intermediate / lowest of 5 production classes).
enum class PriorityClass : int {
  kHigh = 0,
  kIntermediate = 1,
  kLow = 2,
};

inline constexpr int kNumPriorityClasses = 3;

const char* priority_name(PriorityClass c);

// Loss-rate SLO threshold for a class: 1e-4 for kHigh (four nines), one
// order of magnitude looser per lower class.
double slo_loss_threshold(PriorityClass c);

// Fraction of flows within a group that must exceed the threshold for the
// group to count as violating (the paper uses 5%).
inline constexpr double kGroupViolationFraction = 0.05;

// A single sample of blast radius at a point in time (for Fig 12's
// timeline plot).
struct BlastSample {
  double time = 0.0;
  double blast_radius = 0.0;  // fraction of flow groups violating SLO
};

std::string render_timeline(const std::vector<BlastSample>& samples,
                            int width = 64);

}  // namespace dsdn::metrics
