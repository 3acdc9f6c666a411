// Fused KPM recursion kernels: SpMV + Chebyshev combine + dot in one pass.
//
// The unfused recursion step
//     hx     = H~ * r_prev            (multiply: streams matrix, x, y)
//     r_next = 2 * hx - r_prev2       (chebyshev_combine: 2 reads, 1 write)
//     mu~_n  = <r0 | r_next>          (dot: 2 reads)
// touches the vectors three times.  Fusing keeps the row result in a
// register: per row the SpMV accumulator becomes r_next[r] directly and the
// dot contribution is added on the spot, so the combine's hx read/write and
// the dot's r_next re-read disappear.  Per step the vector traffic drops
// from 7 D doubles to 4 D (matrix traffic is unchanged) — the kernel-fusion
// lever of Kreutzer et al. (arXiv:1410.5242) applied to the host engines.
//
// Bit-compatibility contract: the fused kernels produce results that are
// bit-identical to the unfused multiply + chebyshev_combine + dot sequence.
// The per-row SpMV accumulation order matches CrsMatrix/DenseMatrix
// ::multiply exactly, and the dot accumulation uses linalg::dot's canonical
// 4-lane order (row r feeds lane r mod 4; total = (l0 + l1) + (l2 + l3)).
//
// Vector-block (SpMMV) variants: the spmmv_* kernels process a BLOCK of B
// independent recursion vectors per matrix pass — the decisive KPM lever of
// Kreutzer et al.: matrix traffic is amortized 1/B while the per-member
// arithmetic is untouched.  Block vectors are stored INTERLEAVED: element i
// of member j lives at x[i*B + j], so the inner member loop reads
// unit-stride memory at every gathered row.  Every member's accumulation
// (per-row entry order AND dot lane order, with the member's own 4 lanes)
// is that of the unfused per-vector sequence, so blocked results are
// bit-identical to B per-vector passes.  SELL-C-sigma operators
// traverse rows in LOGICAL order through `slot_of()`, with per-row entry
// order matching CRS, so SELL results are bit-identical to CRS too.
//
// Block widths: every kernel body is written once, as a template over the
// width, and each call dispatches on `block` once.  The widths B in
// {1, 2, 4, 8, 16, 32} are compiled with B as a constant, so the member
// loops unroll and the per-row accumulators and per-member dot lanes are
// fixed-size locals (acc[B], lanes[4][B]) that stay in registers and L1.
// Any other width runs one generic instantiation that covers up to 64
// members per matrix pass with the same fixed-size locals (wider blocks
// take one pass per 64 members).  The float and complex kernels are the same
// templates over the vector scalar.  No call allocates.  There is no separate
// single-vector API: one vector is a block of B = 1, and the host engines
// run the per-vector recursion as a one-member group of the blocked one.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "linalg/crs_matrix.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"

namespace kpm::linalg {

/// Both dot products the paired-moment recursion needs from one pass.
struct PairedDots {
  double next_prev = 0.0;  ///< <r_next | r_prev>  (feeds mu~_{2k+1})
  double prev_prev = 0.0;  ///< <r_prev | r_prev>  (feeds mu~_{2k})
};

// ---------------------------------------------------------------------------
// Vector-block (SpMMV) kernels.  `block` is B >= 1; block spans hold
// dim * B doubles in the interleaved layout described above, and `dots`
// outputs hold one value per member.  Every kernel streams the matrix ONCE
// for all B members.

/// Per-member dot products <x_j | y_j> of two interleaved blocks, each in
/// linalg::dot's canonical 4-lane order (element i feeds lane i mod 4).
/// Member j's result is bit-identical to linalg::dot on its deinterleaved
/// vectors.  Unmetered, like linalg::dot.
void block_dot(std::span<const double> x, std::span<const double> y, std::size_t block,
               std::span<double> dots);

/// Per-member single-lane left folds in row order: <x_j|y_j> summed in
/// float for binary32 blocks (what a naive single-precision port does) and
/// Re<x_j|y_j> = sum_r Re(conj(x_j[r]) * y_j[r]) for complex blocks.
/// Unmetered, like block_dot.
void block_dot_fold(std::span<const float> x, std::span<const float> y, std::size_t block,
                    std::span<double> dots);
void block_dot_fold(std::span<const std::complex<double>> x,
                    std::span<const std::complex<double>> y, std::size_t block,
                    std::span<double> dots);

/// y_j = A * x_j for all B members in one matrix pass (no combine, no dot;
/// the blocked analogue of MatrixOperator::multiply, used for the r_1 =
/// H~ r_0 step).  Meters B SpMV products over one matrix stream.
void spmmv_multiply(const CrsMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y);
void spmmv_multiply(const SellMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y);
void spmmv_multiply(const DenseMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y);
void spmmv_multiply(const MatrixOperator& op, std::size_t block, std::span<const double> x,
                    std::span<double> y);

/// Binary32 variant: every stored double is narrowed to float and each
/// member accumulates in float (what a naive single-precision port does),
/// rows in logical order with CRS entry order on every storage, so results
/// do not depend on the storage.  Meters B products over one matrix stream
/// of half the double matrix's bytes, with 4-byte vector elements.
void spmmv_multiply(const MatrixOperator& op, std::size_t block, std::span<const float> x,
                    std::span<float> y);

/// Complex variant; each member's accumulation order matches
/// CrsMatrixZ::multiply.  Meters B products at 8 flops per stored entry.
void spmmv_multiply(const CrsMatrixZ& a, std::size_t block,
                    std::span<const std::complex<double>> x, std::span<std::complex<double>> y);

/// r_next_j = 2 * A * r_prev_j - r_prev2_j and dots[j] = <r0_j | r_next_j>
/// for all B members in one matrix pass.  Preconditions: r_next must not
/// alias r_prev, r_prev2 or r0 (the SpMV gathers r_prev while r_next is
/// written, and the dot reads r0 against freshly written rows).  Member j's
/// outputs are bit-identical to the unfused multiply + chebyshev_combine +
/// dot sequence on its deinterleaved vectors.
void spmmv_combine_dot(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots);
void spmmv_combine_dot(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots);
void spmmv_combine_dot(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots);
void spmmv_combine_dot(const MatrixOperator& op, std::size_t block,
                       std::span<const double> r_prev, std::span<const double> r_prev2,
                       std::span<const double> r0, std::span<double> r_next,
                       std::span<double> dots);

/// Blocked paired-moment pass: r_next_j = 2 * A * r_prev_j - r_prev2_j with
/// dots[j] = {<r_next_j|r_prev_j>, <r_prev_j|r_prev_j>} per member, both
/// computed in the same pass.  Same alias preconditions as
/// spmmv_combine_dot.
void spmmv_combine_dot2(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots);
void spmmv_combine_dot2(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots);
void spmmv_combine_dot2(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots);
void spmmv_combine_dot2(const MatrixOperator& op, std::size_t block,
                        std::span<const double> r_prev, std::span<const double> r_prev2,
                        std::span<double> r_next, std::span<PairedDots> dots);

/// Complex-Hermitian pass: r_next_j = 2 * A * r_prev_j - r_prev2_j and, per
/// member, dots[j] = Re<r0_j|r_next_j> = sum_r Re(conj(r0_j[r]) *
/// r_next_j[r]), accumulated as a single-lane left fold.  Same alias
/// preconditions as spmmv_combine_dot.
void spmmv_combine_dot_re(const CrsMatrixZ& a, std::size_t block,
                          std::span<const std::complex<double>> r_prev,
                          std::span<const std::complex<double>> r_prev2,
                          std::span<const std::complex<double>> r0,
                          std::span<std::complex<double>> r_next, std::span<double> dots);

/// The meters of one spmmv_multiply / spmmv_combine_dot pass of `block`
/// members on `op`, for a caller that runs the same pass in pieces (the
/// cluster's shard-local recursion meters the global pass).
void meter_spmmv_pass(const MatrixOperator& op, std::size_t block);
void meter_combine_dot_pass(const MatrixOperator& op, std::size_t block);

}  // namespace kpm::linalg
