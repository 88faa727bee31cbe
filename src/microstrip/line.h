// Microstrip transmission-line model with frequency dispersion and loss.
//
// Quasi-static effective permittivity and characteristic impedance follow
// Hammerstad-Jensen (1980) including the conductor-thickness correction;
// frequency dispersion of eps_eff follows Kirschning-Jansen (1982); Z0
// dispersion uses the Edwards/Owens relation tied to eps_eff(f).  Losses:
// conductor loss from surface resistance with the Hammerstad roughness
// correction, dielectric loss from the standard mixed-media formula.
//
// This is exactly the kind of "carefully defined equations of passive
// elements including transmission lines" (part 3 of the paper's abstract)
// the optimizer must see: a 50-ohm line on FR4 at 1.6 GHz is measurably
// dispersive and lossy.
#pragma once

#include "microstrip/substrate.h"
#include "rf/twoport.h"

namespace gnsslna::microstrip {

/// A microstrip line of physical width and length on a given substrate.
class Line {
 public:
  /// Per-unit-length propagation data at one frequency.  Depends only on
  /// (substrate, width, frequency) — NOT on length — so a table of these
  /// can be shared by all lines of one width while an optimizer varies
  /// their lengths.  Values are exactly what alpha()/beta()/z0() return.
  struct Propagation {
    double frequency_hz = 0.0;
    double alpha_np_m = 0.0;  ///< total attenuation [Np/m]
    double beta_rad_m = 0.0;  ///< phase constant [rad/m]
    double z0_ohm = 0.0;      ///< dispersive characteristic impedance [ohm]
  };

  /// Constructs a line; width and length in metres, both > 0.
  Line(const Substrate& substrate, double width_m, double length_m);

  /// Quasi-static (f -> 0) effective permittivity (Hammerstad-Jensen).
  double epsilon_eff_static() const { return eeff0_; }

  /// Quasi-static characteristic impedance [ohm].
  double z0_static() const { return z0_static_; }

  /// Dispersive effective permittivity at f (Kirschning-Jansen).
  double epsilon_eff(double frequency_hz) const;

  /// Dispersive characteristic impedance at f [ohm].
  double z0(double frequency_hz) const;

  /// Conductor attenuation [Np/m] at f (with roughness correction).
  double alpha_conductor(double frequency_hz) const;

  /// Dielectric attenuation [Np/m] at f.
  double alpha_dielectric(double frequency_hz) const;

  /// Total attenuation [Np/m].
  double alpha(double frequency_hz) const;

  /// Phase constant beta [rad/m] at f.
  double beta(double frequency_hz) const;

  /// Guided wavelength [m] at f.
  double guided_wavelength(double frequency_hz) const;

  /// Electrical length [rad] at f.
  double electrical_length(double frequency_hz) const;

  /// All per-unit-length propagation quantities with the dispersion curve
  /// evaluated once (the individual accessors above each re-derive
  /// eps_eff(f); this computes it a single time and reuses it — the
  /// returned values are bit-identical to the accessors').
  Propagation propagation(double frequency_hz) const;

  /// ABCD parameters of the lossy line at f (cosh/sinh of gamma l).
  rf::AbcdParams abcd(double frequency_hz) const;

  /// Y-parameters of a uniform line of length_m > 0 with propagation data
  /// p, formed directly from e = exp(-gamma l):
  ///   y11 = y22 = (1 + e^2) / ((1 - e^2) Zc),
  ///   y12 = y21 = -2 e / ((1 - e^2) Zc),
  /// i.e. coth(gamma l) / Zc and -csch(gamma l) / Zc.  The symmetric
  /// entries are equal by construction.  Static because p carries all the
  /// width dependence: a table of p serves every length of one width.
  /// Throws std::domain_error for a lossless line at a multiple of a half
  /// wavelength (no Y exists).
  static rf::YParams y_from(const Propagation& p, double length_m);

  /// S-parameters at f referenced to z0_ref.
  rf::SParams s_params(double frequency_hz, double z0_ref = rf::kZ0) const;

  double width() const { return width_m_; }
  double length() const { return length_m_; }
  const Substrate& substrate() const { return substrate_; }

 private:
  double z0_from_eeff(double epsilon_eff_f) const;
  double alpha_conductor_from(double frequency_hz, double z0_f) const;
  double alpha_dielectric_from(double frequency_hz, double epsilon_eff_f) const;

  Substrate substrate_;
  double width_m_;
  double length_m_;
  double u_eff_;      // thickness-corrected w/h
  double eeff0_;      // static effective permittivity
  double z0_static_;  // static characteristic impedance
  // Frequency-independent factors of epsilon_eff(f) and the dielectric
  // loss, formed once per line (see the constructor).
  double kj_p1_tail_;
  double kj_p2_;
  double kj_p3_head_;
  double kj_p4_;
  double diel_head_;
};

/// Finds the width giving characteristic impedance z0_target at the given
/// frequency (bisection on the analysis model: ~100 Z0 evaluations, tens
/// of microseconds).  Throws std::domain_error if the target is outside
/// the realizable range for the substrate.  Counted per call as
/// microstrip.width_syntheses.
double synthesize_width(const Substrate& substrate, double z0_target,
                        double frequency_hz);

/// Physical length of a line with electrical length theta_rad at f.
double length_for_electrical(const Substrate& substrate, double width_m,
                             double theta_rad, double frequency_hz);

}  // namespace gnsslna::microstrip
