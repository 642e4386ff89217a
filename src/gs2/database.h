// Measured-performance database with weighted-nearest-neighbour
// interpolation — the paper's evaluation substrate (§6): "we used a data
// base that contains the performance of the GS2 application for different
// parameter values ... the data base does not contain all possible
// combinations.  If a point is not in the data base, we use weighted
// average of its closest neighbors performance values."
//
// Here the "measurements" are generated by sampling a Landscape (normally
// Gs2Surface) on a sparse sub-grid, optionally with one-shot measurement
// noise baked in — exactly the role the authors' measured database played.
//
// Evaluation hot path (every optimizer step bottoms out here):
//   1. exact hit      — open-addressing hash table over the stored points,
//   2. memo hit       — sharded open-addressing cache of interpolated
//                       values (shared_mutex read path, no allocation),
//   3. interpolation  — k-NN over a k-d tree built on the stored points
//                       (O(log N + k) instead of the former O(N) scan),
//                       bit-identical to the brute-force reference.
// A Database never changes once constructed: the constructor builds the
// index and the exact table, and a memoised value never goes stale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/landscape.h"
#include "core/parameter_space.h"
#include "util/rng.h"
#include "varmodel/noise_model.h"

namespace protuner::gs2 {

struct DatabaseOptions {
  /// Keep every `stride`-th admissible value per axis when sampling the
  /// source surface (stride 2 reproduces "not all combinations present").
  std::size_t stride = 2;
  /// Number of neighbours used for off-grid interpolation.
  std::size_t interpolation_neighbors = 4;
  /// Inverse-distance weighting exponent.
  double idw_power = 2.0;
};

/// A sparse table of (configuration -> measured time) implementing
/// core::Landscape via weighted-nearest-neighbour lookup.
///
/// Immutable once constructed, so any number of threads may call
/// clean_time()/clean_times()/exact() concurrently.
class Database final : public core::Landscape {
 public:
  /// Takes the whole table and builds the interpolation index and the
  /// exact-hit table.  Throws std::invalid_argument unless every key has
  /// space.size() coordinates and every time is positive.
  Database(core::ParameterSpace space, DatabaseOptions options,
           std::map<core::Point, double> table);
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;
  ~Database() override;

  /// Builds the database by "measuring" `source` on the sparse sub-grid.
  /// When `noise` is non-null each stored entry is one noisy observation
  /// (measurement error baked into the table, like a real one-shot sweep).
  static Database measure(const core::ParameterSpace& space,
                          const core::Landscape& source,
                          const DatabaseOptions& options,
                          const varmodel::NoiseModel* noise = nullptr,
                          std::uint64_t seed = 0);

  /// Writes all entries as CSV (one row per measurement: the coordinates
  /// followed by the time).  Interpolation options are not persisted.
  void save(std::ostream& out) const;

  /// Reads entries previously written by save() into a new database over
  /// `space`.  Throws std::runtime_error on malformed input or arity
  /// mismatch, and std::invalid_argument on a non-positive time.
  static Database load(std::istream& in, core::ParameterSpace space,
                       DatabaseOptions options = {});

  /// Exact lookup.
  std::optional<double> exact(const core::Point& x) const;

  std::size_t entries() const { return table_.size(); }
  const core::ParameterSpace& space() const { return space_; }

  /// Landscape interface: exact hit, else inverse-distance-weighted average
  /// of the closest entries (distances in range-normalised coordinates).
  double clean_time(const core::Point& x) const override;

  /// Batch lookup: one memo-cache probe per point, misses deduped within
  /// the batch and each unique miss interpolated once.  Produces exactly
  /// the same values as scalar clean_time() calls in any order.
  void clean_times(std::span<const core::Point> xs,
                   std::span<double> out) const override;

  std::string name() const override { return "GS2Database"; }

  /// Brute-force O(N) interpolation (the pre-index implementation), kept as
  /// the behavioural reference: the indexed path must reproduce it
  /// bit-for-bit.  Bypasses the memo cache and the exact-hit fast path.
  /// Selection runs through a bounded heap in per-thread scratch (no
  /// steady-state allocation, same result as the historical partial_sort).
  double interpolate_reference(const core::Point& x) const;

  /// Interpolation through the spatial index, bypassing the memo cache —
  /// the steady-state cost of a cache miss.  For equivalence tests and
  /// benchmarks; clean_time() is the production path.
  double interpolate_uncached(const core::Point& x) const;

  /// Decimates one axis's admissible values by `stride` (>= 1), always
  /// keeping the final value so the grid spans the full range.  An empty
  /// axis stays empty.  Exposed as the unit under test for the measure()
  /// grid construction.
  static std::vector<double> decimate_axis(std::vector<double> all,
                                           std::size_t stride);

 private:
  struct Index;    // k-d tree + SoA storage + exact-hit hash (database.cc)
  struct FlatMap;  // open-addressing memo map (database.cc)

  double normalized_distance2(const core::Point& a,
                              const core::Point& b) const;

  /// Interpolates a cache miss through the index (k-NN + IDW),
  /// bit-identical to interpolate_reference.
  double interpolate_indexed(const Index& idx, const core::Point& x) const;

  core::ParameterSpace space_;
  DatabaseOptions options_;
  std::map<core::Point, double> table_;

  // Spatial index over table_, built by the constructor.
  std::unique_ptr<const Index> index_;

  // Interpolated lookups are memoised: the admissible space is finite, so
  // repeated tuning sweeps hit the cache.  Sharded by point hash with a
  // shared_mutex read path so concurrent repetitions (exp::run_repetitions)
  // and the threaded comm substrate don't serialize on one global lock —
  // interpolation is pure, so a racing recompute of the same point stores
  // the same value.  Shards hold open-addressing flat maps keyed by the
  // precomputed point hash: the read path does no node allocation and no
  // lexicographic Point comparisons (only a hash compare plus one vector
  // equality on a hash match).  The table never changes, so an entry is
  // never invalidated.  Held by pointer to keep Database movable.
  struct Cache;
  mutable std::unique_ptr<Cache> cache_;
};

}  // namespace protuner::gs2
