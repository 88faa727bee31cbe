#include <gtest/gtest.h>

#include "passives/catalog.h"
#include "passives/component.h"
#include "passives/eseries.h"

namespace gnsslna::passives {
namespace {

constexpr double kF = 1.575e9;

TEST(Capacitor, IdealImpedanceMatchesFormula) {
  const Capacitor c = Capacitor::ideal(10e-12);
  const Complex z = c.impedance(kF);
  EXPECT_DOUBLE_EQ(z.real(), 0.0);
  EXPECT_NEAR(z.imag(), -1.0 / (2.0 * 3.14159265358979 * kF * 10e-12), 1e-6);
}

TEST(Capacitor, SelfResonanceFromEsl) {
  Capacitor::Params p;
  p.capacitance_f = 10e-12;
  p.esl_h = 0.6e-9;
  const Capacitor c(p);
  const double srf = c.self_resonance_hz();
  EXPECT_NEAR(srf, 2.054e9, 0.01e9);
  // Below SRF the reactance is capacitive, above it inductive.
  EXPECT_LT(c.impedance(srf * 0.5).imag(), 0.0);
  EXPECT_GT(c.impedance(srf * 2.0).imag(), 0.0);
  // At SRF the impedance magnitude is minimal (= ESR).
  EXPECT_LT(std::abs(c.impedance(srf)),
            std::abs(c.impedance(srf * 0.7)));
}

TEST(Capacitor, EsrGrowsWithFrequencyMetalLoss) {
  const Capacitor c = make_capacitor(10e-12);
  EXPECT_GT(c.esr(4e9), c.esr(1e9));
}

TEST(Capacitor, QDropsWithDielectricLoss) {
  const Capacitor c0g = make_capacitor(10e-12, Package::k0402,
                                       CapDielectric::kC0G);
  const Capacitor x7r = make_capacitor(10e-12, Package::k0402,
                                       CapDielectric::kX7R);
  EXPECT_GT(c0g.q_factor(1e9), x7r.q_factor(1e9));
}

TEST(Capacitor, RejectsNonPositiveValue) {
  EXPECT_THROW(Capacitor::ideal(0.0), std::invalid_argument);
  EXPECT_THROW(Capacitor::ideal(-1e-12), std::invalid_argument);
}

TEST(Inductor, IdealImpedanceMatchesFormula) {
  const Inductor l = Inductor::ideal(10e-9);
  const Complex z = l.impedance(kF);
  EXPECT_DOUBLE_EQ(z.real(), 0.0);
  EXPECT_NEAR(z.imag(), 2.0 * 3.14159265358979 * kF * 10e-9, 1e-6);
}

TEST(Inductor, ParallelSelfResonanceMaximizesImpedance) {
  const Inductor l = make_inductor(10e-9);
  const double srf = l.self_resonance_hz();
  EXPECT_GT(srf, 3e9);  // 0402 10 nH parts resonate well above L-band
  EXPECT_GT(std::abs(l.impedance(srf)), std::abs(l.impedance(srf * 0.6)));
  EXPECT_GT(std::abs(l.impedance(srf)), std::abs(l.impedance(srf * 1.6)));
}

TEST(Inductor, QIsRealisticAtLBand) {
  // Catalog 0402 wirewound parts: Q between ~20 and ~120 at 1.5 GHz.
  for (const double l_nh : {2.0, 5.6, 10.0, 22.0}) {
    const Inductor l = make_inductor(l_nh * 1e-9);
    const double q = l.q_factor(kF);
    EXPECT_GT(q, 15.0) << l_nh;
    EXPECT_LT(q, 200.0) << l_nh;
  }
}

TEST(Inductor, SkinLossGrowsWithFrequency) {
  const Inductor l = make_inductor(10e-9);
  EXPECT_GT(l.esr(2e9), l.esr(0.5e9));
}

TEST(Resistor, LowFrequencyImpedanceIsNominal) {
  const Resistor r = make_resistor(100.0);
  EXPECT_NEAR(r.impedance(1e6).real(), 100.0, 0.1);
  EXPECT_NEAR(std::abs(r.impedance(1e6)), 100.0, 0.5);
}

TEST(Resistor, PadCapacitanceShuntsAtHighFrequency) {
  const Resistor r = make_resistor(10000.0);
  EXPECT_LT(std::abs(r.impedance(5e9)), 10000.0);
}

TEST(Component, FrequencyMustBePositive) {
  const Capacitor c = Capacitor::ideal(1e-12);
  EXPECT_THROW(c.impedance(0.0), std::invalid_argument);
  EXPECT_THROW(c.impedance(-1e9), std::invalid_argument);
}

TEST(Catalog, RangesEnforced) {
  EXPECT_THROW(make_capacitor(10e-6), std::invalid_argument);
  EXPECT_THROW(make_inductor(1e-3), std::invalid_argument);
  EXPECT_THROW(make_resistor(0.01), std::invalid_argument);
}

TEST(Catalog, BiggerPackagesHaveMoreEsl) {
  const Capacitor small = make_capacitor(10e-12, Package::k0402);
  const Capacitor big = make_capacitor(10e-12, Package::k0805);
  EXPECT_LT(small.self_resonance_hz() * 0.999, big.self_resonance_hz() * 10);
  EXPECT_GT(small.self_resonance_hz(), big.self_resonance_hz());
}

TEST(Catalog, PackageNames) {
  EXPECT_EQ(package_name(Package::k0402), "0402");
  EXPECT_EQ(package_name(Package::k0805), "0805");
}

// ---------------------------------------------------------------------------
// E-series

TEST(ESeries, KnownE12Values) {
  EXPECT_DOUBLE_EQ(snap(1.05, ESeries::kE12), 1.0);
  EXPECT_DOUBLE_EQ(snap(4.5, ESeries::kE12), 4.7);
  EXPECT_DOUBLE_EQ(snap(83.0, ESeries::kE12), 82.0);
}

TEST(ESeries, KnownE24Values) {
  EXPECT_DOUBLE_EQ(snap(5.3, ESeries::kE24), 5.1);
  EXPECT_DOUBLE_EQ(snap(6.4e-9, ESeries::kE24), 6.2e-9);
  EXPECT_DOUBLE_EQ(snap(9.5, ESeries::kE24), 9.1);
}

TEST(ESeries, ExactValuesAreFixedPoints) {
  for (const double m : series_mantissas(ESeries::kE24)) {
    EXPECT_DOUBLE_EQ(snap(m, ESeries::kE24), m);
    EXPECT_DOUBLE_EQ(snap(m * 1e-12, ESeries::kE24), m * 1e-12);
  }
}

TEST(ESeries, DecadeBoundaryHandled) {
  // 9.6 in E12 must snap up to 10 (next decade), not down to 8.2.
  EXPECT_DOUBLE_EQ(snap(9.6, ESeries::kE12), 10.0);
  EXPECT_DOUBLE_EQ(snap(0.96, ESeries::kE12), 1.0);
}

TEST(ESeries, NeighborsBracketTheValue) {
  const Neighbors nb = neighbors(3.5, ESeries::kE24);
  EXPECT_DOUBLE_EQ(nb.below, 3.3);
  EXPECT_DOUBLE_EQ(nb.above, 3.6);
}

class ESeriesSweep : public ::testing::TestWithParam<ESeries> {};

TEST_P(ESeriesSweep, SnapErrorBoundedBySeriesTolerance) {
  const ESeries series = GetParam();
  const double bound = max_relative_error(series) * 1.05;
  for (double v = 1.0; v < 10.0; v *= 1.01) {
    const double snapped = snap(v * 1e-9, series);
    const double rel = std::abs(snapped - v * 1e-9) / (v * 1e-9);
    EXPECT_LT(rel, bound + 0.02) << "value " << v << " snapped to "
                                 << snapped;
  }
}

TEST_P(ESeriesSweep, SnapIsIdempotent) {
  const ESeries series = GetParam();
  for (double v = 0.8; v < 120.0; v *= 1.37) {
    const double once = snap(v, series);
    EXPECT_DOUBLE_EQ(snap(once, series), once);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSeries, ESeriesSweep,
                         ::testing::Values(ESeries::kE12, ESeries::kE24,
                                           ESeries::kE48, ESeries::kE96));

TEST(ESeries, MaxErrorsOrderedByDensity) {
  EXPECT_GT(max_relative_error(ESeries::kE12),
            max_relative_error(ESeries::kE24));
  EXPECT_GT(max_relative_error(ESeries::kE24),
            max_relative_error(ESeries::kE96));
}

TEST(ESeries, RejectsNonPositive) {
  EXPECT_THROW(snap(0.0, ESeries::kE24), std::invalid_argument);
  EXPECT_THROW(snap(-5.0, ESeries::kE24), std::invalid_argument);
}

TEST(FrequencyFactors, TabulatedFactorsReproduceImpedance) {
  // impedance(omega, sqrt_f_ghz) fed from frequency_factors(f) is the very
  // computation impedance(f) performs.
  const Capacitor c = make_capacitor(2.2e-12);
  const Inductor l = make_inductor(8.2e-9);
  for (const double f : {0.5e9, 1.1e9, 1.575e9, 3.5e9}) {
    const FrequencyFactors ff = frequency_factors(f);
    EXPECT_EQ(c.impedance(ff.omega, ff.sqrt_f_ghz), c.impedance(f));
    EXPECT_EQ(l.impedance(ff.omega, ff.sqrt_f_ghz), l.impedance(f));
  }
  EXPECT_THROW(frequency_factors(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::passives
