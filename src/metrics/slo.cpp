#include "metrics/slo.hpp"

#include <cmath>
#include <sstream>

#include "util/format.hpp"

namespace dsdn::metrics {

const char* priority_name(PriorityClass c) {
  switch (c) {
    case PriorityClass::kHigh: return "P-high";
    case PriorityClass::kIntermediate: return "P-intermediate";
    case PriorityClass::kLow: return "P-low";
  }
  return "?";
}

double slo_loss_threshold(PriorityClass c) {
  // kHigh: <0.01% loss; each lower class one nine less.
  return 1e-4 * std::pow(10.0, static_cast<double>(c));
}

std::string render_timeline(const std::vector<BlastSample>& samples,
                            int width) {
  std::ostringstream os;
  double max_br = 0.0;
  for (const auto& s : samples) max_br = std::max(max_br, s.blast_radius);
  if (max_br <= 0) max_br = 1.0;
  for (const auto& s : samples) {
    const int bars = static_cast<int>(
        std::lround(s.blast_radius / max_br * static_cast<double>(width)));
    os << util::pad_left(util::format_double(s.time, 2), 10) << "s |"
       << std::string(static_cast<std::size_t>(bars), '#')
       << " " << util::format_double(s.blast_radius * 100.0, 2) << "%\n";
  }
  return os.str();
}

}  // namespace dsdn::metrics
