// Property tests for the indexed evaluation substrate: the k-d-tree
// interpolation path must reproduce the brute-force
// weighted-nearest-neighbour reference bit-for-bit, the batch API must
// equal scalar lookups, and the measure()-grid decimation must handle
// degenerate axes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/landscape.h"
#include "core/parameter_space.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "util/rng.h"

namespace protuner::gs2 {
namespace {

/// Random point in the bounding box of `space`, deliberately NOT snapped to
/// admissibility: interpolation queries arrive from simplex arithmetic and
/// may be anywhere in the box.
core::Point random_box_point(const core::ParameterSpace& space,
                             util::Rng& rng) {
  core::Point x(space.size());
  for (std::size_t d = 0; d < space.size(); ++d) {
    x[d] = rng.uniform(space.param(d).lower(), space.param(d).upper());
  }
  return x;
}

/// Random *on-grid* point (every coordinate admissible), which exercises
/// the exact-hit fast path when the point is a stored measurement and the
/// tie-handling of the k-NN selection when it is not.
core::Point random_grid_point(const core::ParameterSpace& space,
                              util::Rng& rng) {
  return space.random_point(rng);
}

TEST(DatabaseIndex, IndexedInterpolationMatchesReferenceBitForBit) {
  // >= 1000 random on/off-grid points per (stride, k, power) setting, on
  // both the GS2 space and a 4-D integer space.  EXPECT_EQ on doubles is
  // exact equality: the indexed path selects the same k neighbours in the
  // same order and accumulates with the same arithmetic as the reference,
  // so equality is bit-for-bit, not approximate.
  const Gs2Surface surface;
  const auto gs2 = gs2_space();
  const core::ParameterSpace grid4({
      core::Parameter::integer("a", 0, 9),
      core::Parameter::integer("b", 0, 9),
      core::Parameter::integer("c", 0, 9),
      core::Parameter::integer("d", 0, 9),
  });
  const core::QuadraticLandscape bowl(core::Point{4.0, 5.0, 3.0, 6.0}, 1.0,
                                      0.2);

  struct Setting {
    std::size_t stride;
    std::size_t neighbors;
    double power;
  };
  const Setting settings[] = {
      {2, 4, 2.0}, {1, 1, 2.0}, {2, 8, 1.0}, {3, 3, 3.0}};

  util::Rng rng(20260806);
  for (const Setting& s : settings) {
    const DatabaseOptions opt{.stride = s.stride,
                              .interpolation_neighbors = s.neighbors,
                              .idw_power = s.power};
    const Database dbs[] = {Database::measure(gs2, surface, opt),
                            Database::measure(grid4, bowl, opt)};
    const core::ParameterSpace* spaces[] = {&gs2, &grid4};
    for (int which = 0; which < 2; ++which) {
      const Database& db = dbs[which];
      const core::ParameterSpace& space = *spaces[which];
      for (int i = 0; i < 300; ++i) {
        const core::Point x = (i % 2 == 0) ? random_box_point(space, rng)
                                           : random_grid_point(space, rng);
        const double ref = db.interpolate_reference(x);
        EXPECT_EQ(db.interpolate_uncached(x), ref)
            << "stride=" << s.stride << " k=" << s.neighbors
            << " power=" << s.power << " which=" << which << " i=" << i;
        // The production path agrees too (exact hits resolve to the stored
        // value, which the reference-free clean_time contract requires).
        if (const auto hit = db.exact(x)) {
          EXPECT_EQ(db.clean_time(x), *hit);
        } else {
          EXPECT_EQ(db.clean_time(x), ref);
        }
      }
    }
  }
}

TEST(DatabaseIndex, BatchLookupEqualsScalarLookups) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    std::vector<core::Point> xs;
    for (std::size_t i = 0; i < n; ++i) {
      if (!xs.empty() && rng.bernoulli(0.3)) {
        xs.push_back(xs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<long>(xs.size()) - 1))]);
      } else {
        xs.push_back(round % 2 == 0 ? random_box_point(space, rng)
                                    : random_grid_point(space, rng));
      }
    }
    std::vector<double> batch(n);
    db.clean_times(xs, batch);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], db.clean_time(xs[i])) << "round=" << round;
    }
  }
}

TEST(DatabaseIndex, BatchOnFreshDatabaseMatchesScalarOnFreshDatabase) {
  // Same queries against two fresh databases: batch first vs scalar first —
  // catches any batch-order dependence in what gets memoised.
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db_batch = Database::measure(space, surface, {});
  const Database db_scalar = Database::measure(space, surface, {});
  util::Rng rng(11);
  std::vector<core::Point> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(random_box_point(space, rng));
  xs.push_back(xs[0]);  // intra-batch duplicate
  xs.push_back(xs[3]);
  std::vector<double> batch(xs.size());
  db_batch.clean_times(xs, batch);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(batch[i], db_scalar.clean_time(xs[i]));
  }
}

TEST(DatabaseIndex, ExactHitsResolveThroughIndex) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  // Every stored entry must be found exactly, through both APIs.
  std::ostringstream dump;
  db.save(dump);
  std::istringstream in(dump.str());
  const Database reloaded = Database::load(in, space, {});
  EXPECT_EQ(reloaded.entries(), db.entries());
  const core::Point probe{16.0, 8.0, 4.0};
  ASSERT_TRUE(db.exact(probe).has_value());
  EXPECT_EQ(db.clean_time(probe), *db.exact(probe));
  EXPECT_EQ(reloaded.clean_time(probe), *db.exact(probe));
}

TEST(DatabaseIndex, SignedZeroQueryHitsPositiveZeroEntry) {
  // operator== treats -0.0 == 0.0, so the hash must too — a -0.0 query
  // (easily produced by simplex arithmetic) must take the exact-hit path.
  core::ParameterSpace space({core::Parameter::integer("x", 0, 10),
                              core::Parameter::integer("y", 0, 10)});
  const Database db(space, {.stride = 1, .interpolation_neighbors = 1},
                    {{core::Point{0.0, 5.0}, 3.5},
                     {core::Point{10.0, 5.0}, 9.0}});
  EXPECT_EQ(db.clean_time(core::Point{-0.0, 5.0}), 3.5);
  EXPECT_TRUE(db.exact(core::Point{-0.0, 5.0}).has_value());
}

TEST(DatabaseIndex, DecimateAxisHandlesDegenerateAxes) {
  // Regression for the empty-axis UB: decimate_axis used to dereference
  // out.back() unconditionally, which was UB for an empty admissible set
  // (a discrete parameter with no values in an assertion-free build, or
  // any future empty-axis path).
  EXPECT_TRUE(Database::decimate_axis({}, 2).empty());
  // Single-value axis survives any stride.
  EXPECT_EQ(Database::decimate_axis({3.0}, 5),
            (std::vector<double>{3.0}));
  // Stride larger than the axis keeps first and last.
  EXPECT_EQ(Database::decimate_axis({1.0, 2.0, 3.0}, 10),
            (std::vector<double>{1.0, 3.0}));
  // Normal decimation keeps every stride-th value plus the last.
  EXPECT_EQ(Database::decimate_axis({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 2),
            (std::vector<double>{1.0, 3.0, 5.0, 6.0}));
}

TEST(DatabaseIndex, MovedDatabaseStillAnswers) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  Database db = Database::measure(space, surface, {});
  const core::Point off{16.0, 9.0, 4.0};
  const double expect = db.clean_time(off);  // memoises
  Database moved = std::move(db);
  EXPECT_EQ(moved.clean_time(off), expect);
  Database assigned(space, {}, {});
  assigned = std::move(moved);
  EXPECT_EQ(assigned.clean_time(off), expect);
}

}  // namespace
}  // namespace protuner::gs2
