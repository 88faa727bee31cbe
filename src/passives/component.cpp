#include "passives/component.h"

#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>

namespace gnsslna::passives {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

double require_positive(double v, const char* who) {
  if (v <= 0.0) {
    throw std::invalid_argument(std::string(who) + ": value must be positive");
  }
  return v;
}

double omega(double frequency_hz) {
  return kTwoPi * require_positive(frequency_hz, "Component frequency");
}

std::string engineering(double value, const char* unit) {
  struct Scale {
    double factor;
    const char* prefix;
  };
  static constexpr Scale kScales[] = {{1e-15, "f"}, {1e-12, "p"}, {1e-9, "n"},
                                      {1e-6, "u"},  {1e-3, "m"},  {1.0, ""},
                                      {1e3, "k"},   {1e6, "M"},   {1e9, "G"}};
  const Scale* best = &kScales[0];
  for (const Scale& s : kScales) {
    if (value >= s.factor) best = &s;
  }
  std::ostringstream oss;
  oss << value / best->factor << ' ' << best->prefix << unit;
  return oss.str();
}
}  // namespace

FrequencyFactors frequency_factors(double frequency_hz) {
  return {omega(frequency_hz), std::sqrt(frequency_hz / 1e9)};
}

double Component::q_factor(double frequency_hz) const {
  const Complex z = impedance(frequency_hz);
  if (z.real() <= 0.0) {
    throw std::domain_error("Component::q_factor: non-positive ESR");
  }
  return std::abs(z.imag()) / z.real();
}

double Component::esr(double frequency_hz) const {
  return impedance(frequency_hz).real();
}

// ---------------------------------------------------------------------------
// Capacitor

Capacitor::Capacitor(Params p) : p_(p) {
  require_positive(p_.capacitance_f, "Capacitor capacitance");
  if (p_.esl_h < 0.0 || p_.tan_delta < 0.0 || p_.r_metal_1ghz < 0.0) {
    throw std::invalid_argument("Capacitor: parasitics must be non-negative");
  }
}

Capacitor Capacitor::ideal(double capacitance_f) {
  return Capacitor({.capacitance_f = capacitance_f,
                    .esl_h = 0.0,
                    .tan_delta = 0.0,
                    .r_metal_1ghz = 0.0});
}

Complex Capacitor::impedance(double frequency_hz) const {
  const FrequencyFactors ff = frequency_factors(frequency_hz);
  return impedance(ff.omega, ff.sqrt_f_ghz);
}

Complex Capacitor::impedance(double w, double sqrt_f_ghz) const {
  // ESR = dielectric term (tan_delta / (w C)) + electrode skin term.
  const double esr_dielectric = p_.tan_delta / (w * p_.capacitance_f);
  const double esr_metal = p_.r_metal_1ghz * sqrt_f_ghz;
  const double esr = esr_dielectric + esr_metal;
  const double reactance = w * p_.esl_h - 1.0 / (w * p_.capacitance_f);
  return {esr, reactance};
}

double Capacitor::self_resonance_hz() const {
  if (p_.esl_h <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (kTwoPi * std::sqrt(p_.esl_h * p_.capacitance_f));
}

std::string Capacitor::name() const {
  return engineering(p_.capacitance_f, "F capacitor");
}

// ---------------------------------------------------------------------------
// Inductor

Inductor::Inductor(Params p) : p_(p) {
  require_positive(p_.inductance_h, "Inductor inductance");
  if (p_.r_dc < 0.0 || p_.r_skin_1ghz < 0.0 || p_.c_parallel_f < 0.0) {
    throw std::invalid_argument("Inductor: parasitics must be non-negative");
  }
}

Inductor Inductor::ideal(double inductance_h) {
  return Inductor({.inductance_h = inductance_h,
                   .r_dc = 0.0,
                   .r_skin_1ghz = 0.0,
                   .c_parallel_f = 0.0});
}

Complex Inductor::impedance(double frequency_hz) const {
  const FrequencyFactors ff = frequency_factors(frequency_hz);
  return impedance(ff.omega, ff.sqrt_f_ghz);
}

Complex Inductor::impedance(double w, double sqrt_f_ghz) const {
  const double rs = p_.r_dc + p_.r_skin_1ghz * sqrt_f_ghz;
  const Complex z_branch{rs, w * p_.inductance_h};
  if (p_.c_parallel_f <= 0.0) return z_branch;
  const Complex y_cap{0.0, w * p_.c_parallel_f};
  const Complex y_total = 1.0 / z_branch + y_cap;
  return 1.0 / y_total;
}

double Inductor::self_resonance_hz() const {
  if (p_.c_parallel_f <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (kTwoPi * std::sqrt(p_.inductance_h * p_.c_parallel_f));
}

std::string Inductor::name() const {
  return engineering(p_.inductance_h, "H inductor");
}

// ---------------------------------------------------------------------------
// Resistor

Resistor::Resistor(Params p) : p_(p) {
  require_positive(p_.resistance_ohm, "Resistor resistance");
  if (p_.l_series_h < 0.0 || p_.c_parallel_f < 0.0) {
    throw std::invalid_argument("Resistor: parasitics must be non-negative");
  }
}

Resistor Resistor::ideal(double resistance_ohm) {
  return Resistor({.resistance_ohm = resistance_ohm,
                   .l_series_h = 0.0,
                   .c_parallel_f = 0.0});
}

Complex Resistor::impedance(double frequency_hz) const {
  const double w = omega(frequency_hz);
  Complex z{p_.resistance_ohm, 0.0};
  if (p_.c_parallel_f > 0.0) {
    const Complex y = 1.0 / z + Complex{0.0, w * p_.c_parallel_f};
    z = 1.0 / y;
  }
  z += Complex{0.0, w * p_.l_series_h};
  return z;
}

std::string Resistor::name() const {
  return engineering(p_.resistance_ohm, "ohm resistor");
}

}  // namespace gnsslna::passives
