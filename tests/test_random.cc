/**
 * @file
 * Deterministic RNG tests.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/random.hh"

namespace fbdp {
namespace {

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ZeroSeedStillWorks)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 100'000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 100'000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanApproximatesTarget)
{
    Rng r(13);
    double sum = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(8.0));
    EXPECT_NEAR(sum / n, 8.0, 0.8);
}

TEST(RngTest, GeometricRespectsFloor)
{
    Rng r(17);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_GE(r.geometric(2.0, 3), 3u);
}

TEST(RngTest, GeometricZeroMean)
{
    Rng r(19);
    EXPECT_EQ(r.geometric(0.0), 0u);
    EXPECT_EQ(r.geometric(-1.0, 5), 5u);
}

// The RNG consumption contract skipGeometric() and the generators'
// nextWarm() depend on.  Two xorshift states are equal iff their next
// outputs are, so comparing one more draw compares the states.

TEST(RngTest, GeometricDrawsOnceForPositiveMean)
{
    for (double mean : {1e-9, 0.5, 8.0, 1e6}) {
        Rng a(21), b(21);
        a.geometric(mean, 3);
        b.next();
        EXPECT_EQ(a.next(), b.next()) << "mean " << mean;
    }
}

TEST(RngTest, GeometricDrawsNothingForNonPositiveMean)
{
    for (double mean : {0.0, -0.0, -1.0}) {
        Rng a(23), b(23);
        a.geometric(mean, 3);
        EXPECT_EQ(a.next(), b.next()) << "mean " << mean;
    }
}

TEST(RngTest, SkipGeometricAdvancesLikeGeometric)
{
    for (double mean : {-1.0, 0.0, 1e-9, 0.5, 8.0, 1e6}) {
        Rng a(29), b(29);
        for (int i = 0; i < 100; ++i) {
            a.geometric(mean);
            b.skipGeometric(mean);
        }
        EXPECT_EQ(a.next(), b.next()) << "mean " << mean;
    }
}

TEST(RngTest, SkipGeometricDrawsOnceForNaNMean)
{
    // The guard is `mean <= 0`, which NaN fails: geometric() would
    // draw, so skipGeometric() must too.
    Rng a(31), b(31);
    a.skipGeometric(std::numeric_limits<double>::quiet_NaN());
    b.next();
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace fbdp
