#include "linalg/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace kpm::linalg {

namespace {

/// Continues each member's canonical dot fold over interleaved blocks
/// (element i of member j at x[i*block + j]) in lanes[j], element i having
/// global index `global_offset + i` and so feeding lane
/// (global_offset + i) % 4.  Folding shard slices in ascending node order
/// reproduces linalg::block_dot member-for-member, bit for bit.
void block_dot_lanes_carry(std::span<const double> x, std::span<const double> y,
                           std::size_t block, std::size_t global_offset,
                           std::span<DotLanes> lanes) {
  KPM_REQUIRE(block >= 1, "block_dot_lanes_carry: block must be >= 1");
  KPM_REQUIRE(x.size() == y.size() && x.size() % block == 0,
              "block_dot_lanes_carry: size mismatch");
  KPM_REQUIRE(lanes.size() >= block, "block_dot_lanes_carry: lanes size mismatch");
  const std::size_t d = x.size() / block;
  for (std::size_t i = 0; i < d; ++i) {
    const std::size_t lane = (global_offset + i) % 4;
    for (std::size_t j = 0; j < block; ++j)
      lanes[j].lane[lane] += x[i * block + j] * y[i * block + j];
  }
}

/// Bytes one multiply streams for a shard's matrix data (CRS model:
/// values + column indices + row pointers; SELL: the padded layout's own
/// accounting).
std::size_t shard_matrix_bytes(const MatrixShard& s, Storage storage) {
  if (storage == Storage::Sell) return s.sell.spmv_matrix_bytes();
  return s.local.nnz() * (sizeof(double) + sizeof(CrsMatrix::Index)) +
         (s.local.rows() + 1) * sizeof(CrsMatrix::Index);
}

/// y = (shard rows of A) * x_work over interleaved blocks: member j of
/// working row i at x_work[i*block + j].  Each member's per-row
/// accumulation is identical to shard_multiply on its deinterleaved vector.
/// `acc` is scratch of at least `block` doubles.
void shard_multiply_block(const MatrixShard& s, Storage storage, std::size_t block,
                          std::span<const double> x_work, std::span<double> y,
                          std::span<double> acc) {
  KPM_REQUIRE(block >= 1, "shard_multiply_block: block must be >= 1");
  KPM_REQUIRE(x_work.size() == s.working_size() * block && y.size() == s.local_rows() * block,
              "shard_multiply_block: block size mismatch");
  KPM_REQUIRE(acc.size() >= block, "shard_multiply_block: acc scratch too small");
  // Each member's per-row accumulation runs in entry order with its own
  // register accumulator — identical to linalg::spmmv_multiply member-wise.
  if (storage == Storage::Sell) {
    const SellMatrix& m = s.sell;
    const auto chunk_ptr = m.chunk_ptr();
    const auto row_len = m.row_len();
    const auto slot_of = m.slot_of();
    const auto col_idx = m.col_idx();
    const auto values = m.values();
    const std::size_t c_sz = m.chunk_size();
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const auto slot = static_cast<std::size_t>(slot_of[r]);
      const std::size_t chunk = slot / c_sz;
      const std::size_t lane = slot % c_sz;
      const auto base = static_cast<std::size_t>(chunk_ptr[chunk]);
      for (std::size_t j = 0; j < block; ++j) acc[j] = 0.0;
      for (std::size_t e = 0; e < static_cast<std::size_t>(row_len[slot]); ++e) {
        const std::size_t k = base + e * c_sz + lane;
        const double v = values[k];
        const auto c = static_cast<std::size_t>(col_idx[k]);
        for (std::size_t j = 0; j < block; ++j) acc[j] += v * x_work[c * block + j];
      }
      for (std::size_t j = 0; j < block; ++j) y[r * block + j] = acc[j];
    }
    return;
  }
  const CrsMatrix& m = s.local;
  const auto row_ptr = m.row_ptr();
  const auto col_idx = m.col_idx();
  const auto values = m.values();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < block; ++j) acc[j] = 0.0;
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const double v = values[kk];
      const auto c = static_cast<std::size_t>(col_idx[kk]);
      for (std::size_t j = 0; j < block; ++j) acc[j] += v * x_work[c * block + j];
    }
    for (std::size_t j = 0; j < block; ++j) y[r * block + j] = acc[j];
  }
}

}  // namespace

ShardedMatrix::ShardedMatrix(const MatrixOperator& op, const Decomposition& dec,
                             Storage storage)
    : dec_(dec), storage_(storage) {
  KPM_REQUIRE(op.storage() != Storage::Dense,
              "ShardedMatrix: dense operators cannot be sharded — every dense row references "
              "every column, so there is no halo to exchange (use CRS or SELL storage)");
  KPM_REQUIRE(storage_ != Storage::Dense, "ShardedMatrix: shard storage must be CRS or SELL");
  KPM_REQUIRE(op.dim() == dec_.dim(),
              "ShardedMatrix: decomposition covers " + std::to_string(dec_.dim()) +
                  " rows but the operator has " + std::to_string(op.dim()));

  // Work from the CRS form (SELL round-trips through its logical-row CRS;
  // entry values and per-row order are identical by construction).
  const CrsMatrix* global = op.crs();
  CrsMatrix from_sell;
  if (global == nullptr) {
    from_sell = op.sell()->to_crs();
    global = &from_sell;
  }
  const auto row_ptr = global->row_ptr();
  const auto col_idx = global->col_idx();
  const auto values = global->values();
  const std::size_t nodes = dec_.nodes();
  shards_.resize(nodes);

  for (std::size_t p = 0; p < nodes; ++p) {
    MatrixShard& s = shards_[p];
    s.row_begin = dec_.range(p).begin;
    s.row_end = dec_.range(p).end;

    // 1-hop ghost set: every referenced column outside the owned range.
    for (std::size_t r = s.row_begin; r < s.row_end; ++r)
      for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const auto c = col_idx[static_cast<std::size_t>(k)];
        if (static_cast<std::size_t>(c) < s.row_begin ||
            static_cast<std::size_t>(c) >= s.row_end)
          s.ghost_rows.push_back(c);
      }
    std::sort(s.ghost_rows.begin(), s.ghost_rows.end());
    s.ghost_rows.erase(std::unique(s.ghost_rows.begin(), s.ghost_rows.end()),
                       s.ghost_rows.end());
    s.left_ghosts = static_cast<std::size_t>(
        std::lower_bound(s.ghost_rows.begin(), s.ghost_rows.end(),
                         static_cast<std::int32_t>(s.row_begin)) -
        s.ghost_rows.begin());

    // Resolve ghost owners once; count distinct neighbours.
    s.ghost_sources.reserve(s.ghost_rows.size());
    std::vector<bool> from(nodes, false);
    for (const std::int32_t g : s.ghost_rows) {
      const std::size_t owner = dec_.owner_of(static_cast<std::size_t>(g));
      from[owner] = true;
      s.ghost_sources.push_back(
          {static_cast<std::uint32_t>(owner),
           static_cast<std::uint32_t>(static_cast<std::size_t>(g) - dec_.range(owner).begin)});
    }
    s.neighbour_count =
        static_cast<std::size_t>(std::count(from.begin(), from.end(), true));

    // Local rectangular CRS: remap each column to its working-vector slot.
    // The [left ghosts | owned | right ghosts] layout is monotone in the
    // global column, so rows stay sorted and keep their entry order.
    const std::size_t local = s.local_rows();
    std::vector<CrsMatrix::Index> lrow_ptr(local + 1, 0);
    std::vector<CrsMatrix::Index> lcol;
    std::vector<double> lval;
    const auto remap = [&](CrsMatrix::Index c) -> CrsMatrix::Index {
      const auto cc = static_cast<std::size_t>(c);
      if (cc >= s.row_begin && cc < s.row_end)
        return static_cast<CrsMatrix::Index>(s.left_ghosts + (cc - s.row_begin));
      const auto gi = static_cast<std::size_t>(
          std::lower_bound(s.ghost_rows.begin(), s.ghost_rows.end(), c) -
          s.ghost_rows.begin());
      return static_cast<CrsMatrix::Index>(s.ghost_position(gi));
    };
    for (std::size_t lr = 0; lr < local; ++lr) {
      const std::size_t r = s.row_begin + lr;
      for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        lcol.push_back(remap(col_idx[kk]));
        lval.push_back(values[kk]);
      }
      lrow_ptr[lr + 1] = static_cast<CrsMatrix::Index>(lcol.size());
    }
    s.local = CrsMatrix(local, s.working_size(), std::move(lrow_ptr), std::move(lcol),
                        std::move(lval));
    if (storage_ == Storage::Sell) s.sell = SellMatrix::from_crs(s.local);
  }

  // Boundary rows: owned rows some other shard gathers (their fresh values
  // gate that neighbour's halo exchange).
  for (std::size_t p = 0; p < nodes; ++p) {
    std::vector<bool> needed(shards_[p].local_rows(), false);
    for (std::size_t q = 0; q < nodes; ++q) {
      if (q == p) continue;
      const MatrixShard& other = shards_[q];
      for (std::size_t gi = 0; gi < other.ghost_rows.size(); ++gi)
        if (other.ghost_sources[gi].owner == p)
          needed[other.ghost_sources[gi].local_row] = true;
    }
    MatrixShard& s = shards_[p];
    const auto lrp = s.local.row_ptr();
    for (std::size_t lr = 0; lr < needed.size(); ++lr)
      if (needed[lr]) {
        ++s.boundary_rows;
        s.boundary_nnz += static_cast<std::size_t>(lrp[lr + 1] - lrp[lr]);
      }
  }

  // Modeled halo volume under the decomposition's ghost-layer width: the
  // w-hop sparsity neighbourhood (a BFS over the global adjacency).  Only
  // the 1-hop layer is gathered functionally; wider windows model
  // communication-avoiding exchanges — more bytes, identical values.
  for (std::size_t p = 0; p < nodes; ++p) {
    MatrixShard& s = shards_[p];
    std::vector<bool> visited(dec_.dim(), false);
    for (std::size_t r = s.row_begin; r < s.row_end; ++r) visited[r] = true;
    std::vector<std::size_t> frontier;
    for (const std::int32_t g : s.ghost_rows) {
      visited[static_cast<std::size_t>(g)] = true;
      frontier.push_back(static_cast<std::size_t>(g));
    }
    s.halo_recv_doubles = s.ghost_rows.size();
    for (std::size_t hop = 2; hop <= dec_.halo_width(); ++hop) {
      std::vector<std::size_t> next;
      for (const std::size_t r : frontier)
        for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
          const auto c = static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)]);
          if (!visited[c]) {
            visited[c] = true;
            next.push_back(c);
          }
        }
      s.halo_recv_doubles += next.size();
      frontier = std::move(next);
    }
    halo_doubles_ += s.halo_recv_doubles;
    s.matrix_bytes = shard_matrix_bytes(s, storage_);
    spmv_flops_ += 2 * s.local.nnz();
    spmv_matrix_bytes_ += s.matrix_bytes;
  }
}

const MatrixShard& ShardedMatrix::shard(std::size_t p) const {
  KPM_REQUIRE(p < shards_.size(), "ShardedMatrix::shard: node index out of range");
  return shards_[p];
}

SpectralBounds ShardedMatrix::gershgorin_bounds() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const MatrixShard& s : shards_) {
    const auto row_ptr = s.local.row_ptr();
    const auto col_idx = s.local.col_idx();
    const auto values = s.local.values();
    for (std::size_t lr = 0; lr < s.local.rows(); ++lr) {
      // The diagonal of global row (row_begin + lr) remaps to working slot
      // owned_offset() + lr.
      const auto diag = static_cast<std::size_t>(s.owned_offset() + lr);
      double center = 0.0;
      double radius = 0.0;
      for (auto k = row_ptr[lr]; k < row_ptr[lr + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        if (static_cast<std::size_t>(col_idx[kk]) == diag)
          center = values[kk];
        else
          radius += std::abs(values[kk]);
      }
      lo = std::min(lo, center - radius);
      hi = std::max(hi, center + radius);
    }
  }
  return {lo, hi};
}

void ShardedMatrix::shard_multiply(std::size_t p, std::span<const double> x_work,
                                   std::span<double> y) const {
  const MatrixShard& s = shard(p);
  if (storage_ == Storage::Sell)
    s.sell.multiply(x_work, y);
  else
    s.local.multiply(x_work, y);
}

void ShardedMatrix::exchange_ghosts(std::span<std::vector<double>> v, std::size_t block) const {
  for (std::size_t p = 0; p < nodes(); ++p) {
    const MatrixShard& s = shards_[p];
    for (std::size_t gi = 0; gi < s.ghost_rows.size(); ++gi) {
      const GhostSource src = s.ghost_sources[gi];
      const double* from =
          v[src.owner].data() + (shards_[src.owner].owned_offset() + src.local_row) * block;
      std::copy_n(from, block, v[p].data() + s.ghost_position(gi) * block);
    }
  }
}

void ShardedMatrix::multiply_block(std::size_t block, std::span<const std::vector<double>> x,
                                   std::span<std::vector<double>> y,
                                   std::span<double> acc) const {
  for (std::size_t p = 0; p < nodes(); ++p) {
    const MatrixShard& s = shards_[p];
    shard_multiply_block(s, storage_, block,
                         std::span<const double>(x[p].data(), s.working_size() * block),
                         std::span<double>(y[p].data() + s.owned_offset() * block,
                                           s.local_rows() * block),
                         acc);
  }
}

void ShardedMatrix::combine(std::span<std::vector<double>> next,
                            std::span<const std::vector<double>> prev2, std::size_t block) const {
  for (std::size_t p = 0; p < nodes(); ++p) {
    const std::size_t off = shards_[p].owned_offset() * block;
    for (std::size_t i = off; i < off + shards_[p].local_rows() * block; ++i)
      next[p][i] = 2.0 * next[p][i] - prev2[p][i];
  }
}

void ShardedMatrix::block_dot(std::span<const std::vector<double>> x,
                              std::span<const std::vector<double>> y, std::size_t block,
                              std::span<DotLanes> lanes, std::span<double> dots) const {
  for (std::size_t j = 0; j < block; ++j) lanes[j] = DotLanes{};
  for (std::size_t p = 0; p < nodes(); ++p) {
    const MatrixShard& s = shards_[p];
    const std::size_t off = s.owned_offset() * block;
    const std::size_t len = s.local_rows() * block;
    block_dot_lanes_carry(std::span<const double>(x[p].data() + off, len),
                          std::span<const double>(y[p].data() + off, len), block, s.row_begin,
                          lanes);
  }
  for (std::size_t j = 0; j < block; ++j) dots[j] = lanes[j].combine();
}

}  // namespace kpm::linalg
