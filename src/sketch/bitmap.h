#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace shedmon::sketch {

// Plain bitmap with the linear-counting cardinality estimator
// (Whang et al.): n_hat = -b * ln(z / b) with z the number of zero bits.
class DirectBitmap {
 public:
  explicit DirectBitmap(uint32_t bits);

  // Sets the bit addressed by the low log2(bits) hash bits. Inline: this is
  // per-packet work in queries and must stay a handful of instructions.
  void Insert(uint64_t hash) {
    const uint32_t bit = static_cast<uint32_t>(hash) & mask_;
    uint64_t& word = words_[bit >> 6];
    const uint64_t m = 1ULL << (bit & 63);
    if ((word & m) == 0) {
      word |= m;
      ++bits_set_;
    }
  }

  bool Test(uint64_t hash) const {
    const uint32_t bit = static_cast<uint32_t>(hash) & mask_;
    return (words_[bit >> 6] & (1ULL << (bit & 63))) != 0;
  }

  double Estimate() const;
  uint32_t bits_set() const { return bits_set_; }
  uint32_t size_bits() const { return size_bits_; }

  void Clear();
  // OR-merge; both bitmaps must have the same size.
  void Union(const DirectBitmap& other);

 private:
  uint32_t size_bits_;
  uint32_t mask_;
  uint32_t bits_set_ = 0;
  std::vector<uint64_t> words_;
};

// Multi-resolution bitmap after Estan, Varghese and Fisk, the counting
// structure the paper uses for all per-aggregate feature counters (§3.2.1).
// A key's hash selects component i with probability 2^-(i+1) (the last
// component absorbs the tail with probability 2^-(c-1)); within a component
// the key sets one of b bits. Cardinality is estimated from the first
// unsaturated component onward: the components partition the key space, so
// the summed linear-counting estimates divided by the summed sampling
// probabilities give an unbiased estimate with bounded memory.
//
// All components live in one flat word array (rather than one heap-allocated
// bitmap per component) so the per-packet Insert is a single indexed access
// with no pointer chasing, and Union/CountNew are linear sweeps that
// popcount only the bits the other bitmap adds. The estimator reads its
// linear-counting terms and probability sums from tables built once in the
// constructor; copies share them.
class MultiResBitmap {
 public:
  static constexpr uint32_t kMaxComponents = 30;

  // `component_bits` must be a power of two. Defaults cover ~1% error up to
  // millions of distinct keys in under 1 KB, matching the paper's sizing.
  explicit MultiResBitmap(uint32_t components = 12, uint32_t component_bits = 512);

  // Per-packet hot path: component choice from the leading-one run of the
  // hash, bit position from the low bits (independent for any reasonable
  // component count).
  void Insert(uint64_t hash) {
    const uint32_t comp = ComponentFor(hash);
    const uint32_t bit = static_cast<uint32_t>(hash) & mask_;
    uint64_t& word = words_[comp * comp_words_ + (bit >> 6)];
    const uint64_t m = 1ULL << (bit & 63);
    if ((word & m) == 0) {
      word |= m;
      ++bits_set_[comp];
    }
  }

  double Estimate() const;

  void Clear();
  void Union(const MultiResBitmap& other);

  // Estimate of |this ∪ other| - |this|: how many keys of `other` are new
  // with respect to this bitmap. Implemented with the bitwise-OR trick of
  // §3.2.1 (the batch bitmap is OR-ed into the interval bitmap), computed on
  // the fly without materializing the merged bitmap.
  double CountNew(const MultiResBitmap& other) const;

  uint32_t components() const { return components_; }
  uint32_t component_bits() const { return component_bits_; }
  // The bit words, component-major: component i owns words
  // [i * ceil(component_bits / 64), (i + 1) * ceil(component_bits / 64)).
  std::span<const uint64_t> words() const { return words_; }

 private:
  // Occupancy threshold above which a component is considered saturated; the
  // EVF paper's "setmax" knob.
  static constexpr double kSetMaxFraction = 0.93;

  uint32_t ComponentFor(uint64_t hash) const {
    // Leading ones of the top bits give a geometric component choice:
    // P(component i) = 2^-(i+1), capped at the last component.
    const uint32_t comp = static_cast<uint32_t>(std::countl_one(hash));
    return comp < components_ - 1 ? comp : components_ - 1;
  }

  // The estimator over an arbitrary per-component occupancy vector; shared
  // by Estimate() (own occupancy) and CountNew() (merged occupancy).
  double EstimateFrom(const uint32_t* bits_set) const;

  // Estimator constants of one (components, component_bits) shape.
  struct Tables {
    uint32_t setmax = 0;  // occupancy above which a component is saturated
    // Linear-counting estimate of one component for each occupancy
    // 0..component_bits.
    std::vector<double> linear_count;
    // Sum of the sampling probabilities of components base..c-1, for each
    // base, accumulated in ascending component order.
    std::vector<double> probability_sum;
  };

  uint32_t components_;
  uint32_t component_bits_;
  uint32_t comp_words_;  // 64-bit words per component
  uint32_t mask_;
  std::vector<uint64_t> words_;     // components_ * comp_words_
  std::vector<uint32_t> bits_set_;  // per-component occupancy
  std::shared_ptr<const Tables> tables_;
};

}  // namespace shedmon::sketch
