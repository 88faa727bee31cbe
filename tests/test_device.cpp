#include <gtest/gtest.h>

#include <random>

#include "device/models.h"
#include "device/phemt.h"
#include "device/small_signal.h"
#include "rf/metrics.h"
#include "rf/units.h"

namespace gnsslna::device {
namespace {

constexpr double kF = 1.575e9;

// ---------------------------------------------------------------------------
// I-V model properties, swept over every comparison model.

struct ModelCase {
  const char* key;
};

class AllIvModels : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<FetModel> model() const { return make_model(GetParam()); }
};

TEST_P(AllIvModels, CurrentIsNonNegative) {
  const auto m = model();
  for (double vgs = -2.0; vgs <= 0.5; vgs += 0.1) {
    for (double vds = 0.0; vds <= 5.0; vds += 0.25) {
      EXPECT_GE(m->drain_current(vgs, vds), 0.0)
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_P(AllIvModels, ZeroVdsGivesZeroCurrent) {
  const auto m = model();
  EXPECT_DOUBLE_EQ(m->drain_current(-0.2, 0.0), 0.0);
}

TEST_P(AllIvModels, DeepPinchoffGivesZeroOrTinyCurrent) {
  const auto m = model();
  EXPECT_LT(m->drain_current(-3.0, 2.0), 1e-3);
}

TEST_P(AllIvModels, CurrentIncreasesWithVgsInActiveRegion) {
  const auto m = model();
  double prev = m->drain_current(-0.6, 2.0);
  for (double vgs = -0.5; vgs <= -0.1; vgs += 0.1) {
    const double id = m->drain_current(vgs, 2.0);
    EXPECT_GE(id, prev - 1e-12) << "vgs=" << vgs;
    prev = id;
  }
}

TEST_P(AllIvModels, CurrentIncreasesWithVdsBeforeKnee) {
  const auto m = model();
  EXPECT_GT(m->drain_current(-0.2, 0.5), m->drain_current(-0.2, 0.1));
}

TEST_P(AllIvModels, SaturationIsFlatish) {
  const auto m = model();
  const double i2 = m->drain_current(-0.2, 2.0);
  const double i4 = m->drain_current(-0.2, 4.0);
  ASSERT_GT(i2, 0.0);
  EXPECT_LT((i4 - i2) / i2, 0.5);  // < 50% growth over 2 V of saturation
}

TEST_P(AllIvModels, ParameterRoundTrip) {
  const auto m = model();
  const std::vector<double> p = m->parameters();
  const auto clone = m->clone();
  std::vector<double> p2 = p;
  for (double& v : p2) v *= 1.01;
  clone->set_parameters(p2);
  EXPECT_EQ(clone->parameters(), p2);
  EXPECT_EQ(m->parameters(), p);  // original untouched
}

TEST_P(AllIvModels, SetParametersRejectsWrongSize) {
  const auto m = model();
  EXPECT_THROW(m->set_parameters({1.0}), std::invalid_argument);
}

TEST_P(AllIvModels, SpecsMatchParameterCount) {
  const auto m = model();
  const auto specs = m->param_specs();
  EXPECT_EQ(specs.size(), m->parameters().size());
  for (const ParamSpec& s : specs) {
    EXPECT_LT(s.lower, s.upper) << s.name;
    EXPECT_GE(s.typical, s.lower) << s.name;
    EXPECT_LE(s.typical, s.upper) << s.name;
  }
}

TEST_P(AllIvModels, TypicalParametersGiveLnaScaleCurrent) {
  const auto m = model();
  const double id = m->drain_current(-0.2, 2.0);
  EXPECT_GT(id, 1e-3);   // > 1 mA
  EXPECT_LT(id, 0.5);    // < 500 mA
}

TEST_P(AllIvModels, GmPositiveInActiveRegion) {
  const auto m = model();
  const Conductances c = m->conductances(-0.25, 2.0);
  EXPECT_GT(c.gm, 0.0);
  EXPECT_GT(c.gds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Models, AllIvModels,
                         ::testing::Values("curtice2", "curtice3", "statz",
                                           "tom", "materka", "angelov"));

// ---------------------------------------------------------------------------
// Analytic vs finite-difference derivatives

TEST(CurticeQuadratic, AnalyticDerivativesMatchFiniteDifference) {
  const CurticeQuadratic m;
  const Conductances a = m.conductances(-0.25, 2.0);
  const Conductances fd = finite_difference_conductances(m, -0.25, 2.0);
  EXPECT_NEAR(a.gm, fd.gm, 1e-6 * std::abs(a.gm) + 1e-9);
  EXPECT_NEAR(a.gds, fd.gds, 1e-5 * std::abs(a.gds) + 1e-9);
  EXPECT_NEAR(a.gm2, fd.gm2, 1e-4 * std::abs(a.gm2) + 1e-6);
  EXPECT_NEAR(a.gmd, fd.gmd, 1e-4 * std::abs(a.gmd) + 1e-6);
}

TEST(Angelov, AnalyticDerivativesMatchFiniteDifference) {
  const Angelov m;
  const Conductances a = m.conductances(-0.2, 2.0);
  const Conductances fd = finite_difference_conductances(m, -0.2, 2.0, 5e-4);
  EXPECT_NEAR(a.gm, fd.gm, 1e-5 * std::abs(a.gm) + 1e-9);
  EXPECT_NEAR(a.gm2, fd.gm2, 1e-3 * std::abs(a.gm2) + 1e-6);
  EXPECT_NEAR(a.gm3, fd.gm3, 2e-2 * std::abs(a.gm3) + 1e-4);
  EXPECT_NEAR(a.gds, fd.gds, 1e-4 * std::abs(a.gds) + 1e-9);
}

TEST(Angelov, PeakGmSitsAtVpkForSymmetricPsi) {
  // With P2 = P3 = 0, psi = P1 (Vgs - Vpk) and gm = Ipk P1 sech^2(psi)
  // peaks exactly at Vpk.
  Angelov::Params p;
  p.p2 = 0.0;
  p.p3 = 0.0;
  const Angelov m(p);
  const Conductances at_peak = m.conductances(p.vpk, 2.0);
  EXPECT_GT(at_peak.gm, m.conductances(p.vpk - 0.3, 2.0).gm);
  EXPECT_GT(at_peak.gm, m.conductances(p.vpk + 0.3, 2.0).gm);
  // gm2 vanishes at the peak; gm3 is negative there (gm maximum).
  EXPECT_NEAR(at_peak.gm2, 0.0, 1e-9);
  EXPECT_LT(at_peak.gm3, 0.0);
}

TEST(Factories, AllModelsReturnsSix) {
  EXPECT_EQ(all_models().size(), 6u);
  EXPECT_THROW(make_model("bogus"), std::invalid_argument);
}

TEST(Materka, PinchOffTracksDrainVoltage) {
  Materka::Params p;
  const Materka m(p);
  // gamma < 0: pinch-off deepens with vds, so a gate voltage just below
  // vp0 conducts at high vds but not at vds ~ 0.
  const double vgs = p.vp0 - 0.05;
  EXPECT_DOUBLE_EQ(m.drain_current(vgs, 0.1), 0.0);
  EXPECT_GT(m.drain_current(vgs, 3.0), 0.0);
}

// ---------------------------------------------------------------------------
// Small-signal model

TEST(SmallSignal, FtMatchesDefinition) {
  IntrinsicParams in;
  in.gm = 0.06;
  in.cgs = 0.5e-12;
  in.cgd = 0.05e-12;
  EXPECT_NEAR(in.ft(), 0.06 / (2.0 * 3.14159265358979 * 0.55e-12), 1e6);
}

TEST(SmallSignal, IntrinsicYLowFrequencyLimits) {
  IntrinsicParams in;
  const rf::YParams y = intrinsic_y(in, 1e6);
  // At 1 MHz: y11 ~ jwCgs (tiny), y21 ~ gm, y22 ~ gds.
  EXPECT_NEAR(y.y21.real(), in.gm, 1e-4);
  EXPECT_NEAR(y.y22.real(), in.gds, 1e-6);
  EXPECT_LT(std::abs(y.y11), 1e-4);
}

TEST(SmallSignal, SParamsLookLikeAFet) {
  IntrinsicParams in;
  ExtrinsicParams ex;
  const rf::SParams s = fet_s_params(in, ex, kF);
  EXPECT_GT(std::abs(s.s21), 1.5);       // forward gain
  EXPECT_LT(std::abs(s.s12), 0.2);       // weak reverse isolation
  EXPECT_LT(std::abs(s.s11), 1.0);       // passive-ish ports
  EXPECT_LT(std::abs(s.s22), 1.0);
  // S11 is capacitive (negative phase) at L-band.
  EXPECT_LT(std::arg(s.s11), 0.0);
}

TEST(SmallSignal, SParamsAreTheEmbeddedYConverted) {
  // fet_s_params is s_from_y(fet_y_params): bit for bit, over a seeded
  // corpus of intrinsic/extrinsic elements and frequencies.
  std::mt19937 rng(4242u);
  std::uniform_real_distribution<double> ur(0.5, 1.5);
  for (int k = 0; k < 200; ++k) {
    IntrinsicParams in;
    in.gm *= ur(rng);
    in.tau_s *= ur(rng);
    in.gds *= ur(rng);
    in.cgs *= ur(rng);
    in.cgd *= ur(rng);
    in.cds *= ur(rng);
    in.ri *= ur(rng);
    ExtrinsicParams ex;
    ex.lg *= ur(rng);
    ex.ld *= ur(rng);
    ex.ls *= ur(rng);
    ex.rg *= ur(rng);
    ex.rd *= ur(rng);
    ex.rs *= ur(rng);
    ex.cpg *= ur(rng);
    ex.cpd *= ur(rng);
    const double f = 0.5e9 + 2.0e9 * ur(rng);
    const rf::SParams s = fet_s_params(in, ex, f);
    const rf::SParams ref = rf::s_from_y(fet_y_params(in, ex, f));
    EXPECT_EQ(s.s11, ref.s11);
    EXPECT_EQ(s.s12, ref.s12);
    EXPECT_EQ(s.s21, ref.s21);
    EXPECT_EQ(s.s22, ref.s22);
  }
}

TEST(SmallSignal, GainFallsWithFrequency) {
  IntrinsicParams in;
  ExtrinsicParams ex;
  EXPECT_GT(std::abs(fet_s_params(in, ex, 1e9).s21),
            std::abs(fet_s_params(in, ex, 10e9).s21));
}

TEST(Noise, PospieszalskiSaneAtLBand) {
  IntrinsicParams in;
  ExtrinsicParams ex;
  NoiseTemperatures t;
  const rf::NoiseParams np = pospieszalski_noise(in, ex, t, kF);
  // pHEMT at 1.5 GHz: Fmin between 0.1 and 1.5 dB.
  EXPECT_GT(np.nf_min_db(), 0.05);
  EXPECT_LT(np.nf_min_db(), 1.5);
  EXPECT_GT(np.r_n, 1.0);
  EXPECT_LT(np.r_n, 60.0);
  EXPECT_LT(std::abs(np.gamma_opt), 1.0);
  EXPECT_GT(std::abs(np.gamma_opt), 0.1);
}

TEST(Noise, FminGrowsWithFrequency) {
  IntrinsicParams in;
  ExtrinsicParams ex;
  NoiseTemperatures t;
  EXPECT_GT(pospieszalski_noise(in, ex, t, 6e9).f_min,
            pospieszalski_noise(in, ex, t, 1e9).f_min);
}

TEST(Noise, HotterDrainIsNoisier) {
  IntrinsicParams in;
  ExtrinsicParams ex;
  EXPECT_GT(pospieszalski_noise(in, ex, {300.0, 4000.0}, kF).f_min,
            pospieszalski_noise(in, ex, {300.0, 1000.0}, kF).f_min);
}

TEST(Noise, FukuiAgreesWithPospieszalskiWithinFactor) {
  IntrinsicParams in;
  ExtrinsicParams ex;
  NoiseTemperatures t;
  const double f_pos = pospieszalski_noise(in, ex, t, kF).f_min;
  const double f_fuk = fukui_fmin(in, ex, kF);
  // Both must predict a sub-dB LNA device and agree within ~2x on (F-1).
  EXPECT_LT(rf::noise_figure_db(f_fuk), 1.5);
  EXPECT_GT((f_pos - 1.0) / (f_fuk - 1.0), 0.3);
  EXPECT_LT((f_pos - 1.0) / (f_fuk - 1.0), 3.0);
}

// ---------------------------------------------------------------------------
// Phemt assembly

TEST(Phemt, ReferenceDeviceBasics) {
  const Phemt dev = Phemt::reference_device();
  const Bias bias{-0.3, 2.0};
  const double id = dev.drain_current(bias);
  EXPECT_GT(id, 5e-3);
  EXPECT_LT(id, 80e-3);
  const IntrinsicParams ssm = dev.small_signal(bias);
  EXPECT_GT(ssm.gm, 0.02);
  EXPECT_GT(ssm.ft(), 10e9);  // pHEMT fT well above L-band
}

TEST(Phemt, SParamsShowGainAtLBand) {
  const Phemt dev = Phemt::reference_device();
  const rf::SParams s = dev.s_params({-0.3, 2.0}, kF);
  EXPECT_GT(rf::db20(s.s21), 8.0);
  EXPECT_LT(rf::db20(s.s12), -15.0);
}

TEST(Phemt, CapacitanceShrinksTowardPinchoff) {
  const Phemt dev = Phemt::reference_device();
  const double c_on = dev.small_signal({-0.1, 2.0}).cgs;
  const double c_off = dev.small_signal({-0.8, 2.0}).cgs;
  EXPECT_GT(c_on, c_off);
}

TEST(Phemt, CopyIsDeep) {
  Phemt a = Phemt::reference_device();
  Phemt b = a;
  std::vector<double> p = b.iv_model().parameters();
  p[0] *= 2.0;
  b.iv_model().set_parameters(p);
  EXPECT_NE(a.iv_model().parameters()[0], b.iv_model().parameters()[0]);
}

TEST(Phemt, NoiseParamsAtBiasAreSane) {
  const Phemt dev = Phemt::reference_device();
  const rf::NoiseParams np = dev.noise({-0.3, 2.0}, kF);
  EXPECT_GT(np.nf_min_db(), 0.05);
  EXPECT_LT(np.nf_min_db(), 1.2);
}

TEST(Phemt, HigherCurrentBiasGivesMoreGm) {
  const Phemt dev = Phemt::reference_device();
  EXPECT_GT(dev.small_signal({-0.15, 2.0}).gm,
            dev.small_signal({-0.5, 2.0}).gm);
}

TEST(Phemt, RejectsNullModel) {
  EXPECT_THROW(Phemt(nullptr, {}, {}, {}), std::invalid_argument);
}

TEST(CapacitanceParams, JunctionLawMonotoneAndContinuous) {
  CapacitanceParams cp;
  const double c0 = 1e-12;
  // Monotone increasing toward forward bias.
  double prev = cp.junction_cap(c0, -2.0);
  for (double v = -1.9; v < 0.7; v += 0.1) {
    const double c = cp.junction_cap(c0, v);
    EXPECT_GT(c, prev * 0.999) << v;
    prev = c;
  }
  // Continuity at the linearization knee.
  const double knee = cp.fc * cp.vbi;
  EXPECT_NEAR(cp.junction_cap(c0, knee - 1e-9),
              cp.junction_cap(c0, knee + 1e-9), 1e-17);
}

}  // namespace
}  // namespace gnsslna::device
