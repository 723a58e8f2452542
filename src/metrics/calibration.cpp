#include "metrics/calibration.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsdn::metrics {

ProgrammingLatencyModel::ProgrammingLatencyModel(std::size_t n_routers,
                                                 util::Rng& rng) {
  if (n_routers == 0)
    throw std::invalid_argument("ProgrammingLatencyModel: zero routers");
  transit_base_.reserve(n_routers);
  encap_base_.reserve(n_routers);
  for (std::size_t i = 0; i < n_routers; ++i) {
    transit_base_.push_back(
        rng.lognormal_median(CsdnCalibration::transit_router_median_s,
                             CsdnCalibration::transit_router_sigma));
    encap_base_.push_back(
        rng.lognormal_median(CsdnCalibration::encap_router_median_s,
                             CsdnCalibration::encap_router_sigma));
  }
}

double ProgrammingLatencyModel::sample_transit(std::size_t router,
                                               util::Rng& rng) const {
  if (router >= transit_base_.size())
    throw std::out_of_range("sample_transit: router index");
  // Pareto(1, alpha) multiplier: median-to-tail stretch per Fig 19.
  return transit_base_[router] *
         rng.pareto(1.0, CsdnCalibration::transit_tail_alpha);
}

double ProgrammingLatencyModel::sample_encap(std::size_t router,
                                             util::Rng& rng) const {
  if (router >= encap_base_.size())
    throw std::out_of_range("sample_encap: router index");
  return encap_base_[router] *
         rng.pareto(1.0, CsdnCalibration::encap_tail_alpha);
}

std::size_t ProgrammingLatencyModel::slowest_router() const {
  return static_cast<std::size_t>(
      std::max_element(transit_base_.begin(), transit_base_.end()) -
      transit_base_.begin());
}

double sample_csdn_tprop(util::Rng& rng) {
  return rng.lognormal_median(CsdnCalibration::tprop_median_s,
                              CsdnCalibration::tprop_sigma);
}

double sample_csdn_tcomp(util::Rng& rng) {
  return rng.lognormal_median(CsdnCalibration::tcomp_median_s,
                              CsdnCalibration::tcomp_sigma);
}

double sample_dsdn_hop_process(util::Rng& rng) {
  return rng.lognormal_median(DsdnCalibration::nsu_hop_process_median_s,
                              DsdnCalibration::nsu_hop_process_sigma);
}

double sample_dsdn_tprog(util::Rng& rng) {
  return rng.lognormal_median(DsdnCalibration::tprog_median_s,
                              DsdnCalibration::tprog_sigma);
}

double sample_dsdn_tcomp(util::Rng& rng) {
  return rng.lognormal_median(DsdnCalibration::tcomp_median_s,
                              DsdnCalibration::tcomp_sigma);
}

}  // namespace dsdn::metrics
