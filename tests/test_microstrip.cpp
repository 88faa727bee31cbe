#include <gtest/gtest.h>

#include <complex>
#include <numbers>
#include <random>
#include <vector>

#include "microstrip/discontinuity.h"
#include "microstrip/line.h"
#include "rf/metrics.h"
#include "rf/twoport.h"

namespace gnsslna::microstrip {
namespace {

constexpr double kF = 1.575e9;

TEST(Line, FiftyOhmOnFr4HasExpectedWidth) {
  // Hammerstad-Jensen for er=4.4, h=0.8mm, t=35um: w(50 ohm) ~ 1.5 mm.
  const double w = synthesize_width(Substrate::fr4(), 50.0, kF);
  EXPECT_GT(w, 1.2e-3);
  EXPECT_LT(w, 1.8e-3);
}

TEST(Line, SynthesisAnalysisRoundTrip) {
  const Substrate sub = Substrate::fr4();
  for (const double z0 : {30.0, 50.0, 75.0, 100.0}) {
    const double w = synthesize_width(sub, z0, kF);
    const Line line(sub, w, 10e-3);
    EXPECT_NEAR(line.z0(kF), z0, 0.05) << "target " << z0;
  }
}

TEST(Line, EffectivePermittivityBetweenOneAndEr) {
  const Substrate sub = Substrate::fr4();
  const Line line(sub, 1.5e-3, 10e-3);
  EXPECT_GT(line.epsilon_eff_static(), 1.0);
  EXPECT_LT(line.epsilon_eff_static(), sub.epsilon_r);
  EXPECT_NEAR(line.epsilon_eff_static(), 3.33, 0.15);  // published ~3.3
}

TEST(Line, DispersionRaisesEpsEffWithFrequency) {
  const Line line(Substrate::fr4(), 1.5e-3, 10e-3);
  const double e1 = line.epsilon_eff(1e9);
  const double e5 = line.epsilon_eff(5e9);
  const double e10 = line.epsilon_eff(10e9);
  EXPECT_GT(e5, e1);
  EXPECT_GT(e10, e5);
  EXPECT_LT(e10, Substrate::fr4().epsilon_r);  // bounded by er
  EXPECT_GE(e1, line.epsilon_eff_static());
}

TEST(Line, WiderLineHasLowerImpedance) {
  const Substrate sub = Substrate::fr4();
  const Line narrow(sub, 0.5e-3, 10e-3);
  const Line wide(sub, 3e-3, 10e-3);
  EXPECT_GT(narrow.z0_static(), wide.z0_static());
}

TEST(Line, LossesPositiveAndGrowWithFrequency) {
  const Line line(Substrate::fr4(), 1.5e-3, 10e-3);
  EXPECT_GT(line.alpha_conductor(kF), 0.0);
  EXPECT_GT(line.alpha_dielectric(kF), 0.0);
  EXPECT_GT(line.alpha(4e9), line.alpha(1e9));
}

TEST(Line, Ro4350LessLossyThanFr4) {
  const Line fr4(Substrate::fr4(), 1.7e-3, 10e-3);
  const Line ro(Substrate::ro4350b(), 1.1e-3, 10e-3);
  EXPECT_LT(ro.alpha_dielectric(kF), fr4.alpha_dielectric(kF));
}

TEST(Line, QuarterWaveLengthAtLBand) {
  // lambda_g/4 at 1.575 GHz on FR4 ~ 26 mm.
  const Substrate sub = Substrate::fr4();
  const double w50 = synthesize_width(sub, 50.0, kF);
  const double l =
      length_for_electrical(sub, w50, std::numbers::pi / 2.0, kF);
  EXPECT_GT(l, 22e-3);
  EXPECT_LT(l, 30e-3);
}

TEST(Line, SParamsReciprocalAndPassive) {
  const Line line(Substrate::fr4(), 1.5e-3, 25e-3);
  const rf::SParams s = line.s_params(kF);
  EXPECT_NEAR(std::abs(s.s21 - s.s12), 0.0, 1e-10);  // reciprocity
  EXPECT_LT(std::abs(s.s21), 1.0);                   // lossy
  EXPECT_GT(std::abs(s.s21), 0.9);                   // but not very lossy
  EXPECT_LT(std::abs(s.s11), 0.1);                   // near 50 ohm
}

TEST(Line, MatchedLineElectricalLengthMatchesS21Phase) {
  const Substrate sub = Substrate::fr4();
  const double w50 = synthesize_width(sub, 50.0, kF);
  const Line line(sub, w50, 20e-3);
  const rf::SParams s = line.s_params(kF);
  const double theta = line.electrical_length(kF);
  EXPECT_NEAR(std::arg(s.s21), -theta, 0.02);
}

TEST(Line, InvalidInputsThrow) {
  EXPECT_THROW(Line(Substrate::fr4(), 0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(Line(Substrate::fr4(), 1e-3, -1.0), std::invalid_argument);
  const Line line(Substrate::fr4(), 1e-3, 1e-3);
  EXPECT_THROW(line.epsilon_eff(0.0), std::invalid_argument);
  EXPECT_THROW(synthesize_width(Substrate::fr4(), 400.0, kF),
               std::domain_error);
}

// ---------------------------------------------------------------------------
// Line::y_from against different-method oracles

/// One (line, frequency) draw of the seeded corpus: FR4- and RO4350B-like
/// boards with perturbed permittivity and height, widths from narrow bias
/// traces to wide strips, lengths across the design box, and frequencies
/// across the stability grid.
struct LineCase {
  Line line;
  Line::Propagation p;
};

std::vector<LineCase> line_corpus(std::size_t n) {
  std::mt19937 rng(20240611u);
  std::uniform_real_distribution<double> ur(0.0, 1.0);
  std::vector<LineCase> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    Substrate sub = (k % 2 == 0) ? Substrate::fr4() : Substrate::ro4350b();
    sub.epsilon_r *= 0.9 + 0.2 * ur(rng);
    sub.height_m *= 0.8 + 0.4 * ur(rng);
    const double width = 0.2e-3 + 3.0e-3 * ur(rng);
    const double length = 1e-3 + 39e-3 * ur(rng);
    const double f = 0.5e9 + 3.0e9 * ur(rng);
    const Line line(sub, width, length);
    out.push_back({line, line.propagation(f)});
  }
  return out;
}

/// |a - b| <= tol |b|.
void expect_rel_near(std::complex<double> a, std::complex<double> b,
                     double tol) {
  EXPECT_LE(std::abs(a - b), tol * std::abs(b)) << a << " vs " << b;
}

TEST(LineY, LosslessMatchesCotAndCscClosedForms) {
  // With alpha forced to 0, coth(j theta) = -j cot(theta) and
  // csch(j theta) = -j csc(theta): y11 = -j cot(beta l) / Z0 and
  // y12 = j csc(beta l) / Z0.
  for (const LineCase& c : line_corpus(400)) {
    Line::Propagation p = c.p;
    p.alpha_np_m = 0.0;
    const rf::YParams y = Line::y_from(p, c.line.length());
    const double theta = p.beta_rad_m * c.line.length();
    const std::complex<double> y11{0.0, -std::cos(theta) /
                                            (std::sin(theta) * p.z0_ohm)};
    const std::complex<double> y12{0.0, 1.0 / (std::sin(theta) * p.z0_ohm)};
    expect_rel_near(y.y11, y11, 1e-12);
    expect_rel_near(y.y12, y12, 1e-12);
  }
}

TEST(LineY, LossyMatchesAbcdConversion) {
  // The chain-matrix route (cosh/sinh, then ABCD -> Y) is a different
  // computation of the same two-port.
  for (const LineCase& c : line_corpus(400)) {
    const rf::YParams y = Line::y_from(c.p, c.line.length());
    const rf::YParams ref = rf::y_from_abcd(c.line.abcd(c.p.frequency_hz));
    expect_rel_near(y.y11, ref.y11, 1e-12);
    expect_rel_near(y.y12, ref.y12, 1e-12);
    expect_rel_near(y.y21, ref.y21, 1e-12);
    expect_rel_near(y.y22, ref.y22, 1e-12);
  }
}

TEST(LineY, ReciprocalSymmetricAndPassive) {
  for (const LineCase& c : line_corpus(400)) {
    const rf::YParams y = Line::y_from(c.p, c.line.length());
    // Exact: the symmetric entries are one value each.
    EXPECT_EQ(y.y12, y.y21);
    EXPECT_EQ(y.y11, y.y22);
    // A lossy line dissipates: Re y11 = sinh(a) cosh(a) / |sinh(gamma l)|^2
    // exceeds |Re y12| = sinh(a) |cos(theta)| / |sinh(gamma l)|^2.
    EXPECT_GE(y.y11.real(), std::abs(y.y12.real()));
    EXPECT_GT(y.y11.real(), 0.0);
  }
}

TEST(Substrate, ValidationCatchesNonPhysical) {
  Substrate s = Substrate::fr4();
  s.epsilon_r = 0.5;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = Substrate::fr4();
  s.height_m = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Discontinuities

TEST(OpenEnd, ExtensionIsFractionOfHeight) {
  const Substrate sub = Substrate::fr4();
  const double dl = open_end_extension(sub, 1.5e-3);
  // Classic result: 0.3 h .. 0.6 h for common geometries.
  EXPECT_GT(dl, 0.2 * sub.height_m);
  EXPECT_LT(dl, 0.8 * sub.height_m);
}

TEST(OpenEnd, CapacitanceGrowsWithWidth) {
  const Substrate sub = Substrate::fr4();
  EXPECT_GT(open_end_capacitance(sub, 3e-3),
            open_end_capacitance(sub, 1e-3));
}

TEST(Step, NoStepMeansNoInductance) {
  EXPECT_DOUBLE_EQ(step_inductance(Substrate::fr4(), 1e-3, 1e-3), 0.0);
}

TEST(Step, InductanceGrowsWithImpedanceRatio) {
  const Substrate sub = Substrate::fr4();
  const double small = step_inductance(sub, 1.5e-3, 1.2e-3);
  const double large = step_inductance(sub, 3.0e-3, 0.3e-3);
  EXPECT_GT(large, small);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(large, 1e-9);  // sub-nH for PCB steps
}

TEST(Step, SymmetricInArguments) {
  const Substrate sub = Substrate::fr4();
  EXPECT_DOUBLE_EQ(step_inductance(sub, 2e-3, 0.5e-3),
                   step_inductance(sub, 0.5e-3, 2e-3));
}

TEST(Tee, ParasiticsInPublishedBallpark) {
  // 50-ohm main, high-impedance branch on 0.8 mm FR4: tens of fF, ~0.1 nH.
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  EXPECT_GT(tee.junction_capacitance(), 5e-15);
  EXPECT_LT(tee.junction_capacitance(), 200e-15);
  EXPECT_GT(tee.arm_inductance_main(), 0.02e-9);
  EXPECT_LT(tee.arm_inductance_main(), 0.5e-9);
  EXPECT_GT(tee.arm_inductance_branch(), tee.arm_inductance_main());
}

TEST(Tee, YMatrixRowsSumToSmallValue) {
  // The only path to ground is the junction capacitance, so row sums must
  // equal the (small) capacitive admittance share.
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  const auto y = tee.y_matrix(kF);
  for (int i = 0; i < 3; ++i) {
    rf::Complex row{0.0, 0.0};
    for (int j = 0; j < 3; ++j) {
      row += y[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    // Row sum is the current drawn when all ports ride together = the
    // capacitor path; it must be tiny compared to the arm admittances.
    EXPECT_LT(std::abs(row),
              std::abs(y[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(i)]) *
                  0.2);
  }
}

TEST(Tee, YMatrixIsSymmetric) {
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  const auto y = tee.y_matrix(kF);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(j)] -
                           y[static_cast<std::size_t>(j)]
                            [static_cast<std::size_t>(i)]),
                  0.0, 1e-12);
    }
  }
}

TEST(Tee, OpenBranchIsNearThru) {
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  // Branch terminated in a huge impedance: through path ~ transparent.
  const rf::SParams s =
      tee.through_with_branch_termination(kF, {1e9, 0.0});
  EXPECT_GT(std::abs(s.s21), 0.97);
  EXPECT_LT(std::abs(s.s11), 0.15);
}

TEST(Tee, MatchedBranchSplitsPower) {
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 1.5e-3);
  // Branch terminated in 50 ohm: an ideal tee gives |S21|^2 = 4/9.
  const rf::SParams s = tee.through_with_branch_termination(kF, {50.0, 0.0});
  EXPECT_NEAR(std::norm(s.s21), 4.0 / 9.0, 0.05);
  // And the through port sees 25 ohm -> S11 ~ -1/3.
  EXPECT_NEAR(s.s11.real(), -1.0 / 3.0, 0.05);
}

TEST(Tee, RejectsBadInput) {
  EXPECT_THROW(TeeJunction(Substrate::fr4(), 0.0, 1e-3),
               std::invalid_argument);
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  EXPECT_THROW(tee.y_matrix(0.0), std::invalid_argument);
  EXPECT_THROW(tee.through_with_branch_termination(kF, {0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::microstrip
