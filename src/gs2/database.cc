#include "gs2/database.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace protuner::gs2 {

namespace {

/// Which read-path tier answered a clean-time lookup.  Process-global (all
/// databases share them): the counters live in the global registry under
/// protuner_db_lookups_total{tier=...}, resolved once on first use.
struct TierCounters {
  obs::Counter& exact;
  obs::Counter& memo;
  obs::Counter& kdtree;
};

TierCounters& tier_counters() {
  static TierCounters c{
      obs::Registry::global().counter(
          "protuner_db_lookups_total",
          "Database clean-time lookups by answering tier",
          {{"tier", "exact"}}),
      obs::Registry::global().counter("protuner_db_lookups_total", {},
                                      {{"tier", "memo"}}),
      obs::Registry::global().counter("protuner_db_lookups_total", {},
                                      {{"tier", "kdtree"}})};
  return c;
}

/// Admissible values of one parameter, decimated by `stride`.
std::vector<double> axis_values(const core::Parameter& p, std::size_t stride) {
  std::vector<double> all;
  switch (p.kind()) {
    case core::ParamKind::kDiscrete:
      all = p.values();
      break;
    case core::ParamKind::kInteger:
      for (double v = p.lower(); v <= p.upper(); v += 1.0) all.push_back(v);
      break;
    case core::ParamKind::kContinuous: {
      // Sample nine evenly spaced levels for continuous axes.
      constexpr int kLevels = 9;
      for (int i = 0; i < kLevels; ++i) {
        all.push_back(p.lower() + p.range() * i / (kLevels - 1));
      }
      break;
    }
  }
  return Database::decimate_axis(std::move(all), stride);
}

/// SplitMix64-style avalanche over the raw coordinate bits.  Used both for
/// shard selection and as the open-addressing key, so it must agree with
/// operator== on doubles: -0.0 is canonicalised to +0.0 before hashing.
/// Never returns 0 (reserved as the empty-slot sentinel).
std::uint64_t point_hash(const core::Point& x) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ x.size();
  for (const double c : x) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(c == 0.0 ? 0.0 : c);
    bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
    bits = (bits ^ (bits >> 27)) * 0x94d049bb133111ebULL;
    h = (h ^ (bits ^ (bits >> 31))) * 0x9e3779b97f4a7c15ULL;
  }
  h ^= h >> 32;
  return h == 0 ? 1 : h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Open-addressing memo map: (precomputed hash, point) -> interpolated value.
// Linear probing over a power-of-two slot array; hash 0 marks an empty slot
// (point_hash never returns 0).  The read path allocates nothing and touches
// the Point only for one vector equality on a full hash match.
struct Database::FlatMap {
  struct Slot {
    std::uint64_t hash = 0;
    double value = 0.0;
    core::Point key;
  };
  std::vector<Slot> slots;
  std::size_t count = 0;

  const double* find(std::uint64_t h, const core::Point& x) const {
    if (slots.empty()) return nullptr;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots[i];
      if (s.hash == 0) return nullptr;
      if (s.hash == h && s.key == x) return &s.value;
    }
  }

  void insert(std::uint64_t h, const core::Point& x, double value) {
    if (slots.empty() || (count + 1) * 10 > slots.size() * 7) grow();
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots[i];
      if (s.hash == 0) {
        s.hash = h;
        s.value = value;
        s.key = x;
        ++count;
        return;
      }
      if (s.hash == h && s.key == x) return;  // racing recompute: same value
    }
  }

 private:
  void grow() {
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    count = 0;
    const std::size_t mask = slots.size() - 1;
    for (Slot& s : old) {
      if (s.hash == 0) continue;
      std::size_t i = s.hash & mask;
      while (slots[i].hash != 0) i = (i + 1) & mask;
      slots[i] = std::move(s);
      ++count;
    }
  }
};

// ---------------------------------------------------------------------------
// Sharded memo cache, keyed by point hash.  Entries are never evicted: the
// table is immutable, so an interpolated value stays valid.
struct Database::Cache {
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::shared_mutex mutex;
    FlatMap map;
  };
  std::array<Shard, kShards> shards;

  Shard& shard(std::uint64_t h) { return shards[h % kShards]; }
};

// ---------------------------------------------------------------------------
// Spatial index: SoA storage of the table (tree order), a median-split k-d
// tree over it, and an open-addressing exact-hit table.  Built once by the
// Database constructor; immutable afterwards, so concurrent lookups need no
// locking.
//
// Exactness contract: the k-NN selection and the per-neighbour distances
// must reproduce the brute-force reference bit-for-bit.  Distances are
// therefore computed with the reference's exact expression
// ((x[d] - p[d]) / range[d], squared and summed left-to-right), neighbours
// are ranked by the reference's (dist2, value) pair order (partial_sort on
// pairs), and subtree pruning is strict (>) so equal-distance candidates
// with smaller values are never skipped.
struct Database::Index {
  std::size_t dim = 0;
  std::size_t n = 0;
  std::vector<double> pts;    ///< row-major coordinates, tree order
  std::vector<double> vals;   ///< measured times, tree order
  std::vector<double> range;  ///< per-axis range for normalisation

  struct Node {
    std::uint32_t begin = 0, end = 0;  ///< row range (leaf scan)
    std::uint32_t left = 0, right = 0;
    std::int32_t axis = -1;  ///< -1 marks a leaf
    double lo_split = 0.0;   ///< max coordinate of the left subtree on axis
    double hi_split = 0.0;   ///< min coordinate of the right subtree on axis
  };
  std::vector<Node> nodes;

  // Exact-hit table: hash -> tree-order row, linear probing, hash 0 empty.
  std::vector<std::uint64_t> slot_hash;
  std::vector<std::uint32_t> slot_row;

  bool row_equals(std::uint32_t r, const core::Point& x) const {
    const double* p = &pts[static_cast<std::size_t>(r) * dim];
    for (std::size_t d = 0; d < dim; ++d) {
      if (p[d] != x[d]) return false;
    }
    return true;
  }

  const double* exact_find(std::uint64_t h, const core::Point& x) const {
    if (slot_hash.empty() || x.size() != dim) return nullptr;
    const std::size_t mask = slot_hash.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      if (slot_hash[i] == 0) return nullptr;
      if (slot_hash[i] == h && row_equals(slot_row[i], x)) {
        return &vals[slot_row[i]];
      }
    }
  }

  double dist2(std::uint32_t r, const double* x) const {
    const double* p = &pts[static_cast<std::size_t>(r) * dim];
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = (x[d] - p[d]) / range[d];
      s += diff * diff;
    }
    return s;
  }

  /// Heap insert shared by the leaf scans and the reference: keeps the k
  /// smallest (dist2, value) pairs (max-heap under pair ordering — top is
  /// the current worst neighbour).
  static void heap_push(std::vector<std::pair<double, double>>& heap,
                        std::size_t k, std::pair<double, double> cand) {
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end());
    } else if (cand < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end());
    }
  }

  /// Collects the k nearest rows as (dist2, value) pairs into `heap`
  /// (a max-heap under pair ordering — top is the current worst neighbour).
  void knn(const double* x, std::size_t k,
           std::vector<std::pair<double, double>>& heap) const {
    heap.clear();
    if (n == 0 || k == 0) return;
    search(0, x, k, heap);
  }

  void search(std::uint32_t id, const double* x, std::size_t k,
              std::vector<std::pair<double, double>>& heap) const {
    const Node& nd = nodes[id];
    if (nd.axis < 0) {
      for (std::uint32_t r = nd.begin; r < nd.end; ++r) {
        heap_push(heap, k, {dist2(r, x), vals[r]});
      }
      return;
    }
    const double xa = x[static_cast<std::size_t>(nd.axis)];
    const double ra = range[static_cast<std::size_t>(nd.axis)];
    // Lower bound on the normalised dist2 of any point in each subtree,
    // computed with the same expression shape as dist2() so the bound is
    // conservative in floating point as well.
    double lb = 0.0;
    if (xa > nd.lo_split) {
      const double diff = (xa - nd.lo_split) / ra;
      lb = diff * diff;
    }
    double rb = 0.0;
    if (xa < nd.hi_split) {
      const double diff = (xa - nd.hi_split) / ra;
      rb = diff * diff;
    }
    const std::uint32_t first = lb <= rb ? nd.left : nd.right;
    const std::uint32_t second = lb <= rb ? nd.right : nd.left;
    const double first_bound = lb <= rb ? lb : rb;
    const double second_bound = lb <= rb ? rb : lb;
    // Prune only on strict >: an equal-bound subtree can still hold a point
    // at the same distance with a smaller value (reference tie-break).
    if (heap.size() < k || first_bound <= heap.front().first) {
      search(first, x, k, heap);
    }
    if (heap.size() < k || second_bound <= heap.front().first) {
      search(second, x, k, heap);
    }
  }

  /// Builds the index over every entry of `table`.
  static std::unique_ptr<const Index> build(
      const core::ParameterSpace& space,
      const std::map<core::Point, double>& table);

  /// Recursive median-split builder over rows[b, e); returns the node id.
  static std::uint32_t build_node(Index& idx, std::vector<std::uint32_t>& rows,
                                  const std::vector<double>& rp,
                                  std::uint32_t b, std::uint32_t e);
};

std::uint32_t Database::Index::build_node(Index& idx,
                                          std::vector<std::uint32_t>& rows,
                                          const std::vector<double>& rp,
                                          std::uint32_t b, std::uint32_t e) {
  constexpr std::uint32_t kLeafSize = 8;
  const std::uint32_t id = static_cast<std::uint32_t>(idx.nodes.size());
  idx.nodes.emplace_back();
  idx.nodes[id].begin = b;
  idx.nodes[id].end = e;
  if (e - b <= kLeafSize) return id;  // leaf (axis stays -1)

  // Split on the axis with the widest normalised spread.
  const std::size_t dim = idx.dim;
  std::size_t axis = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dim; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::uint32_t i = b; i < e; ++i) {
      const double c = rp[static_cast<std::size_t>(rows[i]) * dim + d];
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    const double spread = (hi - lo) / idx.range[d];
    if (spread > best_spread) {
      best_spread = spread;
      axis = d;
    }
  }
  if (best_spread <= 0.0) return id;  // all points coincide: keep as leaf

  const std::uint32_t mid = b + (e - b) / 2;
  std::nth_element(rows.begin() + b, rows.begin() + mid, rows.begin() + e,
                   [&](std::uint32_t r, std::uint32_t q) {
                     return rp[static_cast<std::size_t>(r) * dim + axis] <
                            rp[static_cast<std::size_t>(q) * dim + axis];
                   });
  double lo_split = -std::numeric_limits<double>::infinity();
  for (std::uint32_t i = b; i < mid; ++i) {
    lo_split = std::max(lo_split,
                        rp[static_cast<std::size_t>(rows[i]) * dim + axis]);
  }
  double hi_split = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = mid; i < e; ++i) {
    hi_split = std::min(hi_split,
                        rp[static_cast<std::size_t>(rows[i]) * dim + axis]);
  }
  idx.nodes[id].axis = static_cast<std::int32_t>(axis);
  idx.nodes[id].lo_split = lo_split;
  idx.nodes[id].hi_split = hi_split;
  const std::uint32_t left = build_node(idx, rows, rp, b, mid);
  const std::uint32_t right = build_node(idx, rows, rp, mid, e);
  idx.nodes[id].left = left;
  idx.nodes[id].right = right;
  return id;
}

Database::Database(core::ParameterSpace space, DatabaseOptions options,
                   std::map<core::Point, double> table)
    : space_(std::move(space)),
      options_(options),
      table_(std::move(table)),
      cache_(std::make_unique<Cache>()) {
  assert(options_.interpolation_neighbors >= 1);
  assert(options_.idw_power > 0.0);
  // Checked in every build: load() hands file rows to this constructor, and
  // a key longer than space.size() would make the index build write past
  // its coordinate buffer.
  for (const auto& [x, time] : table_) {
    if (x.size() != space_.size() || !(time > 0.0)) {
      throw std::invalid_argument(
          "gs2::Database: each entry needs one coordinate per parameter and "
          "a positive time");
    }
  }
  index_ = Index::build(space_, table_);
}

Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;
Database::~Database() = default;

Database Database::measure(const core::ParameterSpace& space,
                           const core::Landscape& source,
                           const DatabaseOptions& options,
                           const varmodel::NoiseModel* noise,
                           std::uint64_t seed) {
  std::map<core::Point, double> table;
  util::Rng rng(seed);

  std::vector<std::vector<double>> axes;
  axes.reserve(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    axes.push_back(axis_values(space.param(i), options.stride));
  }

  // Cartesian product over the decimated axes.
  core::Point x(space.size());
  std::vector<std::size_t> idx(space.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < space.size(); ++i) x[i] = axes[i][idx[i]];
    double t = source.clean_time(x);
    if (noise != nullptr) t += noise->sample(t, rng);
    table[x] = t;
    // Odometer increment.
    std::size_t axis = 0;
    while (axis < space.size() && ++idx[axis] == axes[axis].size()) {
      idx[axis] = 0;
      ++axis;
    }
    if (axis == space.size()) break;
  }
  return Database(space, options, std::move(table));
}

void Database::save(std::ostream& out) const {
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& [pt, val] : table_) {
    for (double c : pt) out << c << ',';
    out << val << '\n';
  }
}

Database Database::load(std::istream& in, core::ParameterSpace space,
                        DatabaseOptions options) {
  std::map<core::Point, double> table;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::vector<double> fields;
    std::string cell;
    while (std::getline(row, cell, ',')) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        throw std::runtime_error("database load: bad number at line " +
                                 std::to_string(lineno));
      }
      fields.push_back(v);
    }
    if (fields.size() != space.size() + 1) {
      throw std::runtime_error("database load: arity mismatch at line " +
                               std::to_string(lineno));
    }
    const double time = fields.back();
    fields.pop_back();
    table[std::move(fields)] = time;
  }
  return Database(std::move(space), options, std::move(table));
}

std::unique_ptr<const Database::Index> Database::Index::build(
    const core::ParameterSpace& space,
    const std::map<core::Point, double>& table) {
  auto idx = std::make_unique<Index>();
  idx->dim = space.size();
  idx->n = table.size();
  idx->range.reserve(idx->dim);
  for (std::size_t d = 0; d < idx->dim; ++d) {
    idx->range.push_back(space.param(d).range());
  }
  // Raw AoS copy in table order, then a row permutation from the
  // recursive median splits, then the final SoA-per-row fill.
  std::vector<double> rp(idx->n * idx->dim);
  std::vector<double> rv(idx->n);
  std::size_t r = 0;
  for (const auto& [pt, val] : table) {
    std::copy(pt.begin(), pt.end(), rp.begin() + r * idx->dim);
    rv[r] = val;
    ++r;
  }
  if (idx->n > 0) {
    std::vector<std::uint32_t> rows(idx->n);
    for (std::uint32_t i = 0; i < idx->n; ++i) rows[i] = i;
    Index::build_node(*idx, rows, rp, 0, static_cast<std::uint32_t>(idx->n));
    idx->pts.resize(idx->n * idx->dim);
    idx->vals.resize(idx->n);
    for (std::size_t i = 0; i < idx->n; ++i) {
      const std::size_t src = rows[i];
      std::copy(rp.begin() + src * idx->dim,
                rp.begin() + (src + 1) * idx->dim,
                idx->pts.begin() + i * idx->dim);
      idx->vals[i] = rv[src];
    }
    // Exact-hit table at load factor <= 0.5.
    std::size_t cap = 16;
    while (cap < idx->n * 2) cap *= 2;
    idx->slot_hash.assign(cap, 0);
    idx->slot_row.assign(cap, 0);
    const std::size_t mask = cap - 1;
    core::Point tmp(idx->dim);
    for (std::size_t i = 0; i < idx->n; ++i) {
      std::copy(idx->pts.begin() + i * idx->dim,
                idx->pts.begin() + (i + 1) * idx->dim, tmp.begin());
      const std::uint64_t h = point_hash(tmp);
      std::size_t pos = h & mask;
      while (idx->slot_hash[pos] != 0) pos = (pos + 1) & mask;
      idx->slot_hash[pos] = h;
      idx->slot_row[pos] = static_cast<std::uint32_t>(i);
    }
  }
  return idx;
}

std::optional<double> Database::exact(const core::Point& x) const {
  if (const double* v = index_->exact_find(point_hash(x), x)) return *v;
  return std::nullopt;
}

double Database::normalized_distance2(const core::Point& a,
                                      const core::Point& b) const {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = (a[i] - b[i]) / space_.param(i).range();
    s += d * d;
  }
  return s;
}

double Database::interpolate_reference(const core::Point& x) const {
  assert(x.size() == space_.size());
  // k nearest entries by range-normalised distance: full scan + selection.
  const std::size_t k =
      std::min(options_.interpolation_neighbors, table_.size());
  assert(k >= 1);
  // Bounded-heap selection in per-thread scratch.  This keeps the k
  // smallest (dist2, value) pairs — the same multiset the historical
  // "materialise all + partial_sort" implementation selected (pairs that
  // compare equal are identical in both fields, so any representative is
  // interchangeable) — then sorts them ascending, making the IDW
  // accumulation below bit-identical to the old code while performing no
  // steady-state allocation.
  thread_local std::vector<std::pair<double, double>> nearest;
  nearest.clear();
  for (const auto& [pt, val] : table_) {
    Index::heap_push(nearest, k, {normalized_distance2(x, pt), val});
  }
  std::sort(nearest.begin(), nearest.end());

  // Inverse-distance weighting (paper: "weighted average of its closest
  // neighbors performance values").
  double wsum = 0.0;
  double vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = std::sqrt(nearest[i].first);
    const double w = 1.0 / std::pow(d + 1e-12, options_.idw_power);
    wsum += w;
    vsum += w * nearest[i].second;
  }
  return vsum / wsum;
}

std::vector<double> Database::decimate_axis(std::vector<double> all,
                                            std::size_t stride) {
  assert(stride >= 1);
  // Guard the empty axis up front: the keep-last step below dereferences
  // out.back(), which was UB on an empty axis (e.g. a discrete parameter
  // with no values in an assertion-free build).
  if (all.empty()) return all;
  std::vector<double> out;
  for (std::size_t i = 0; i < all.size(); i += stride) out.push_back(all[i]);
  // Always keep the last value so the grid spans the full range.
  if (out.back() != all.back()) out.push_back(all.back());
  return out;
}

double Database::interpolate_uncached(const core::Point& x) const {
  return interpolate_indexed(*index_, x);
}

double Database::interpolate_indexed(const Index& idx,
                                     const core::Point& x) const {
  const std::size_t k = std::min(options_.interpolation_neighbors, idx.n);
  assert(k >= 1);
  // Per-thread scratch: the neighbour heap is reused across lookups so the
  // steady-state interpolation path performs no allocation.
  thread_local std::vector<std::pair<double, double>> heap;
  idx.knn(x.data(), k, heap);
  // Ascending (dist2, value) order — the exact order the reference's
  // partial_sort produces — so the IDW accumulation is bit-identical.
  std::sort(heap.begin(), heap.end());
  double wsum = 0.0;
  double vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = std::sqrt(heap[i].first);
    const double w = 1.0 / std::pow(d + 1e-12, options_.idw_power);
    wsum += w;
    vsum += w * heap[i].second;
  }
  return vsum / wsum;
}

double Database::clean_time(const core::Point& x) const {
  assert(x.size() == space_.size());
  const Index& idx = *index_;
  const std::uint64_t h = point_hash(x);
  TierCounters& tiers = tier_counters();
  if (const double* v = idx.exact_find(h, x)) {
    tiers.exact.add();
    return *v;
  }

  Cache::Shard& shard = cache_->shard(h);
  {
    const std::shared_lock lock(shard.mutex);
    if (const double* v = shard.map.find(h, x)) {
      tiers.memo.add();
      return *v;
    }
  }

  tiers.kdtree.add();
  const double value = interpolate_indexed(idx, x);

  {
    const std::unique_lock lock(shard.mutex);
    shard.map.insert(h, x, value);
  }
  return value;
}

void Database::clean_times(std::span<const core::Point> xs,
                           std::span<double> out) const {
  assert(xs.size() == out.size());
  if (xs.empty()) return;
  const Index& idx = *index_;

  // Per-thread scratch: hashes and the indices of cache misses.
  thread_local std::vector<std::uint64_t> hashes;
  thread_local std::vector<std::size_t> misses;
  hashes.resize(xs.size());
  misses.clear();

  // Pass 1: exact hits and one memo probe per point.  Tier tallies are
  // batched locally — one relaxed add per tier per batch — so a wide batch
  // doesn't ping-pong the counters' cachelines between ranks.
  std::uint64_t exact_hits = 0;
  std::uint64_t memo_hits = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const core::Point& x = xs[i];
    assert(x.size() == space_.size());
    const std::uint64_t h = point_hash(x);
    hashes[i] = h;
    if (const double* v = idx.exact_find(h, x)) {
      out[i] = *v;
      ++exact_hits;
      continue;
    }
    Cache::Shard& shard = cache_->shard(h);
    const std::shared_lock lock(shard.mutex);
    if (const double* v = shard.map.find(h, x)) {
      out[i] = *v;
      ++memo_hits;
      continue;
    }
    misses.push_back(i);
  }
  TierCounters& tiers = tier_counters();
  if (exact_hits > 0) tiers.exact.add(exact_hits);
  if (memo_hits > 0) tiers.memo.add(memo_hits);
  if (!misses.empty()) tiers.kdtree.add(misses.size());

  // Pass 2: interpolate each *unique* miss once (batches arrive one config
  // per rank, and replicated sampling makes intra-batch duplicates common),
  // publish it to the memo cache, and copy it to any duplicates.
  for (std::size_t m = 0; m < misses.size(); ++m) {
    const std::size_t i = misses[m];
    bool duplicate = false;
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t j = misses[p];
      if (hashes[j] == hashes[i] && xs[j] == xs[i]) {
        out[i] = out[j];
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    out[i] = interpolate_indexed(idx, xs[i]);
    Cache::Shard& shard = cache_->shard(hashes[i]);
    const std::unique_lock lock(shard.mutex);
    shard.map.insert(hashes[i], xs[i], out[i]);
  }
}

}  // namespace protuner::gs2
