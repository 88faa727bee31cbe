// Direct-retabulation writers for frequency-batched plans.
//
// The batched steady state bypasses the Netlist closures: each writer
// fills a plan value table with exactly what the corresponding closure
// in netlist.cpp (or noisy_twoport.cpp / the line and FET closures in
// lna.cpp) would have returned at every grid frequency, so a re-tabulated
// plan is bit-identical to one compiled fresh from the new design's
// netlist (pinned by tests/test_batched.cpp).  Each writer returns the
// number of value tables it rewrote (one per stamp, two-port or noise
// CSD), which BandEvaluator::last_retabulated() reports.
//
// Shared-helper contract: a writer and its oracle closure compute an
// element's values through ONE helper, so changing a formula changes both
// sides and batched == oracle stays exact.  Every Y-table is formed
// directly, with no detour through another parameter set:
//   - lines: microstrip::Line::y_from (closed form from exp(-gamma l));
//   - the FET: device::fet_y_params (fet_s_params is s_from_y of it);
//   - dispersive passives: impedance(omega, sqrt_f_ghz) of the part, fed
//     from frequency_table (passives::frequency_factors, through which
//     impedance(f) is defined).
// Their per-lane inputs are tabulated outside the writers: the passive
// factors once per plan build, the length-independent line dispersion
// once per plan build (per trial board in the yield engine).
//
// Shared by BandEvaluator (optimizer loops) and the yield engine's
// YieldTrialEvaluator (tolerance trials).  `noise_lanes` bounds how many
// leading grid lanes get their noise CSDs rewritten: noise data are only
// ever read for the in-band lanes (noise_sweep / noise_at stop at the
// band), so a caller that knows its band size can skip the stability
// lanes' CSDs without changing any produced figure.  The default rewrites
// every lane.
//
// Internal amplifier header, not part of the public API surface.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "circuit/batched.h"
#include "circuit/noisy_twoport.h"
#include "device/small_signal.h"
#include "microstrip/line.h"
#include "passives/component.h"
#include "rf/twoport.h"
#include "rf/units.h"

namespace gnsslna::amplifier::planw {

inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

inline constexpr std::size_t kAllLanes =
    std::numeric_limits<std::size_t>::max();

/// Frequency-only factors of the dispersive passive models at every lane
/// of a plan grid (passives::frequency_factors, the very function the
/// models' impedance(f) calls), tabulated once per plan build.
inline std::vector<passives::FrequencyFactors> frequency_table(
    const std::vector<double>& grid) {
  std::vector<passives::FrequencyFactors> table(grid.size());
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    table[fi] = passives::frequency_factors(grid[fi]);
  }
  return table;
}

/// Dispersive one-port (z_of(part) through add_lossy_impedance).  The
/// impedance model is evaluated once per lane, from the plan's
/// frequency_table, and feeds both the stamp and (for the first
/// noise_lanes lanes) the thermal-noise CSD — the same values the two
/// closure tabulations would compute independently.
template <typename Part>
std::size_t write_lossy(circuit::BatchedPlan& plan,
                        const circuit::ElementRef& ref, const Part& part,
                        const std::vector<passives::FrequencyFactors>& ff,
                        double temperature_k,
                        std::size_t noise_lanes = kAllLanes) {
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(ref.element.index);
  const bool noisy = ref.noise_group != circuit::kNoNoiseGroup;
  const circuit::BatchedPlan::NoiseView nv =
      noisy ? plan.noise_view(ref.noise_group)
            : circuit::BatchedPlan::NoiseView{};
  for (std::size_t fi = 0; fi < sv.count; ++fi) {
    const circuit::Complex z = part.impedance(ff[fi].omega, ff[fi].sqrt_f_ghz);
    // |z| >= max(|Re z|, |Im z|), so the hypot of the closure's check only
    // runs when that bound leaves the answer open: same verdict, cheaper.
    if (std::max(std::abs(z.real()), std::abs(z.imag())) < 1e-12 &&
        std::abs(z) < 1e-12) {
      throw std::domain_error("add_lossy_impedance: near-short element");
    }
    const circuit::Complex y = 1.0 / z;
    sv.values[fi] = y;
    if (noisy && fi < noise_lanes) {
      nv.csd[fi] = circuit::Complex{
          4.0 * rf::kBoltzmann * temperature_k * std::max(0.0, y.real()), 0.0};
    }
  }
  return noisy ? 2 : 1;
}

inline std::size_t write_capacitor(circuit::BatchedPlan& plan,
                                   const circuit::ElementId& id,
                                   double farads) {
  if (farads <= 0.0) {
    throw std::invalid_argument("write_capacitor: capacitance must be positive");
  }
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(id.index);
  for (std::size_t fi = 0; fi < sv.count; ++fi) {
    sv.values[fi] = circuit::Complex{0.0, kTwoPi * grid[fi] * farads};
  }
  return 1;
}

inline std::size_t write_inductor(circuit::BatchedPlan& plan,
                                  const circuit::ElementId& id,
                                  double henries) {
  if (henries <= 0.0) {
    throw std::invalid_argument("write_inductor: inductance must be positive");
  }
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(id.index);
  for (std::size_t fi = 0; fi < sv.count; ++fi) {
    sv.values[fi] = circuit::Complex{0.0, -1.0 / (kTwoPi * grid[fi] * henries)};
  }
  return 1;
}

inline std::size_t write_resistor(circuit::BatchedPlan& plan,
                                  const circuit::ElementRef& ref, double ohms,
                                  double temperature_k,
                                  std::size_t noise_lanes = kAllLanes) {
  if (ohms <= 0.0) {
    throw std::invalid_argument("write_resistor: resistance must be positive");
  }
  const double g = 1.0 / ohms;
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(ref.element.index);
  for (std::size_t fi = 0; fi < sv.count; ++fi) {  // 1: freq-independent
    sv.values[fi] = circuit::Complex{g, 0.0};
  }
  if (ref.noise_group == circuit::kNoNoiseGroup) return 1;
  const double psd = 4.0 * rf::kBoltzmann * temperature_k * g;
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < nn; ++fi) {
    nv.csd[fi] = circuit::Complex{psd, 0.0};
  }
  return 2;
}

inline std::size_t write_line(
    circuit::BatchedPlan& plan, const circuit::ElementRef& ref,
    double length_m, const std::vector<microstrip::Line::Propagation>& prop,
    double temperature_k, std::size_t noise_lanes = kAllLanes) {
  // `prop` caches the length-independent dispersion curve of the line's
  // (substrate, width) over the plan grid, so Line::y_from(prop[fi],
  // length) is exactly what the line_y closure computes, and no Line (with
  // its width-dependent set-up) is built per write.
  if (length_m <= 0.0) {
    throw std::invalid_argument("Line: width and length must be positive");
  }
  const circuit::BatchedPlan::TwoPortView tv =
      plan.twoport_view(ref.element.index);
  for (std::size_t fi = 0; fi < tv.count; ++fi) {
    tv.set(fi, microstrip::Line::y_from(prop[fi], length_m));
  }
  if (ref.noise_group == circuit::kNoNoiseGroup) return 1;
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < nn; ++fi) {
    circuit::passive_twoport_csd_into(tv.values[fi], temperature_k,
                                      nv.csd + fi * 4);
  }
  return 2;
}

inline std::size_t write_fet(circuit::BatchedPlan& plan,
                             const circuit::ElementRef& ref,
                             const device::IntrinsicParams& ip,
                             const device::ExtrinsicParams& ex,
                             const device::NoiseTemperatures& nt,
                             std::size_t noise_lanes = kAllLanes) {
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::TwoPortView tv =
      plan.twoport_view(ref.element.index);
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < tv.count; ++fi) {
    const rf::YParams yp = device::fet_y_params(ip, ex, grid[fi]);
    tv.set(fi, yp);
    if (fi < nn) {
      const rf::NoiseParams np =
          device::pospieszalski_noise(ip, ex, nt, grid[fi]);
      circuit::noise_correlation_y_into(yp, np, nv.csd + fi * 4);
    }
  }
  return 2;
}

}  // namespace gnsslna::amplifier::planw
