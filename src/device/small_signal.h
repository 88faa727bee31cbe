// Small-signal pHEMT equivalent circuit -> two-port S-parameters.
//
// The classic 15-element FET topology: an intrinsic core (gm e^{-jw tau},
// gds, Cgs with channel resistance Ri, Cgd, Cds) embedded in an extrinsic
// parasitic shell (Lg/Rg, Ld/Rd, Ls/Rs, pad capacitances Cpg/Cpd).  The
// embedding follows the standard de-embedding order in reverse:
//   Y_int -> Z (+ series R/L) -> Y (+ pad C) -> S.
#pragma once

#include "rf/noise.h"
#include "rf/twoport.h"

namespace gnsslna::device {

/// Bias-dependent intrinsic elements.
struct IntrinsicParams {
  double gm = 0.05;     ///< transconductance [S]
  double tau_s = 3e-12; ///< transit delay [s]
  double gds = 2e-3;    ///< output conductance [S]
  double cgs = 0.45e-12;///< gate-source capacitance [F]
  double cgd = 0.05e-12;///< gate-drain capacitance [F]
  double cds = 0.12e-12;///< drain-source capacitance [F]
  double ri = 2.0;      ///< channel (gate-source) resistance [ohm]

  /// Unity-current-gain frequency gm / (2 pi (Cgs + Cgd)) [Hz].
  double ft() const;
};

/// Bias-independent package/access parasitics.
struct ExtrinsicParams {
  double lg = 0.5e-9;   ///< gate inductance [H]
  double ld = 0.4e-9;   ///< drain inductance [H]
  double ls = 0.15e-9;  ///< source inductance [H]
  double rg = 1.2;      ///< gate metal resistance [ohm]
  double rd = 1.5;      ///< drain access resistance [ohm]
  double rs = 0.8;      ///< source access resistance [ohm]
  double cpg = 0.08e-12;///< gate pad capacitance [F]
  double cpd = 0.10e-12;///< drain pad capacitance [F]
};

/// Intrinsic-core Y-parameters at frequency f (common source).
rf::YParams intrinsic_y(const IntrinsicParams& in, double frequency_hz);

/// Full small-signal Y-parameters including the extrinsic shell: the
/// embedded two-port the circuit stamps directly.
rf::YParams fet_y_params(const IntrinsicParams& in, const ExtrinsicParams& ex,
                         double frequency_hz);

/// Full small-signal S-parameters including the extrinsic shell:
/// s_from_y(fet_y_params(in, ex, f), z0).
rf::SParams fet_s_params(const IntrinsicParams& in, const ExtrinsicParams& ex,
                         double frequency_hz, double z0 = rf::kZ0);

/// Pospieszalski (1989) two-temperature noise model: the intrinsic channel
/// resistance Ri at gate temperature Tg and the output conductance gds at
/// drain temperature Td.  Returns the four IEEE noise parameters; the
/// lossy extrinsic resistances are accounted for with the Fukui-style
/// resistive correction on Fmin and Rn.
struct NoiseTemperatures {
  double tg_k = 300.0;   ///< gate temperature [K] (ambient-ish)
  double td_k = 2500.0;  ///< drain temperature [K] (hot-electron, fitted)
};

rf::NoiseParams pospieszalski_noise(const IntrinsicParams& in,
                                    const ExtrinsicParams& ex,
                                    const NoiseTemperatures& t,
                                    double frequency_hz, double z0 = rf::kZ0);

/// Fukui's empirical minimum noise figure:
///   Fmin = 1 + kf (f/fT) sqrt(gm (Rg + Rs + Ri)),  kf ~ 2.5 for pHEMTs.
/// Cheap cross-check of the Pospieszalski result.
double fukui_fmin(const IntrinsicParams& in, const ExtrinsicParams& ex,
                  double frequency_hz, double kf = 2.5);

}  // namespace gnsslna::device
