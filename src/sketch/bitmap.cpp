#include "src/sketch/bitmap.h"

#include <cmath>
#include <stdexcept>

namespace shedmon::sketch {

namespace {
// Linear counting over one bitmap of `bits` bits with `set` bits set; the
// saturated case returns the (large) estimate for one remaining zero bit.
double LinearCount(uint32_t bits, uint32_t set) {
  const uint32_t zeros = bits - set;
  if (zeros == 0) {
    return static_cast<double>(bits) * std::log(static_cast<double>(bits));
  }
  return -static_cast<double>(bits) *
         std::log(static_cast<double>(zeros) / static_cast<double>(bits));
}
}  // namespace

DirectBitmap::DirectBitmap(uint32_t bits) : size_bits_(bits), mask_(bits - 1) {
  if (bits == 0 || (bits & (bits - 1)) != 0) {
    throw std::invalid_argument("DirectBitmap size must be a power of two");
  }
  words_.resize((bits + 63) / 64, 0);
}

double DirectBitmap::Estimate() const { return LinearCount(size_bits_, bits_set_); }

void DirectBitmap::Clear() {
  for (auto& w : words_) {
    w = 0;
  }
  bits_set_ = 0;
}

void DirectBitmap::Union(const DirectBitmap& other) {
  if (other.size_bits_ != size_bits_) {
    throw std::invalid_argument("DirectBitmap::Union size mismatch");
  }
  bits_set_ = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
    bits_set_ += static_cast<uint32_t>(std::popcount(words_[i]));
  }
}

MultiResBitmap::MultiResBitmap(uint32_t components, uint32_t component_bits)
    : components_(components),
      component_bits_(component_bits),
      comp_words_((component_bits + 63) / 64),
      mask_(component_bits - 1) {
  if (components < 2 || components > kMaxComponents) {
    throw std::invalid_argument("MultiResBitmap components out of range");
  }
  if (component_bits == 0 || (component_bits & (component_bits - 1)) != 0) {
    throw std::invalid_argument("MultiResBitmap component size must be a power of two");
  }
  words_.assign(static_cast<size_t>(components_) * comp_words_, 0);
  bits_set_.assign(components_, 0);

  auto tables = std::make_shared<Tables>();
  tables->setmax = static_cast<uint32_t>(kSetMaxFraction * static_cast<double>(component_bits_));
  tables->linear_count.resize(static_cast<size_t>(component_bits_) + 1);
  for (uint32_t set = 0; set <= component_bits_; ++set) {
    tables->linear_count[set] = LinearCount(component_bits_, set);
  }
  const uint32_t c = components_;
  tables->probability_sum.resize(c);
  for (uint32_t base = 0; base < c; ++base) {
    double sum = 0.0;
    for (uint32_t i = base; i < c; ++i) {
      sum += (i < c - 1) ? std::ldexp(1.0, -static_cast<int>(i + 1))
                         : std::ldexp(1.0, -static_cast<int>(c - 1));
    }
    tables->probability_sum[base] = sum;
  }
  tables_ = std::move(tables);
}

double MultiResBitmap::EstimateFrom(const uint32_t* bits_set) const {
  const Tables& t = *tables_;
  const uint32_t c = components_;
  // First component whose occupancy is trustworthy.
  uint32_t base = 0;
  while (base + 1 < c && bits_set[base] > t.setmax) {
    ++base;
  }
  double estimate_sum = 0.0;
  for (uint32_t i = base; i < c; ++i) {
    estimate_sum += t.linear_count[bits_set[i]];
  }
  return estimate_sum / t.probability_sum[base];
}

double MultiResBitmap::Estimate() const { return EstimateFrom(bits_set_.data()); }

void MultiResBitmap::Clear() {
  for (auto& w : words_) {
    w = 0;
  }
  for (auto& s : bits_set_) {
    s = 0;
  }
}

void MultiResBitmap::Union(const MultiResBitmap& other) {
  if (other.components_ != components_ || other.component_bits_ != component_bits_) {
    throw std::invalid_argument("MultiResBitmap::Union shape mismatch");
  }
  // bits_set_ always equals the popcount of its component, so the merged
  // occupancy is the old one plus the bits `other` adds.
  for (uint32_t comp = 0; comp < components_; ++comp) {
    const size_t off = static_cast<size_t>(comp) * comp_words_;
    for (uint32_t w = 0; w < comp_words_; ++w) {
      const uint64_t added = other.words_[off + w] & ~words_[off + w];
      if (added != 0) {
        words_[off + w] |= added;
        bits_set_[comp] += static_cast<uint32_t>(std::popcount(added));
      }
    }
  }
}

double MultiResBitmap::CountNew(const MultiResBitmap& other) const {
  if (other.components_ != components_ || other.component_bits_ != component_bits_) {
    throw std::invalid_argument("MultiResBitmap::CountNew shape mismatch");
  }
  // Occupancy of (this | other) per component, without building the merged
  // bitmap: the own occupancy plus the bits only `other` has.
  uint32_t merged[kMaxComponents];
  for (uint32_t comp = 0; comp < components_; ++comp) {
    uint32_t set = bits_set_[comp];
    const size_t off = static_cast<size_t>(comp) * comp_words_;
    for (uint32_t w = 0; w < comp_words_; ++w) {
      const uint64_t added = other.words_[off + w] & ~words_[off + w];
      if (added != 0) {
        set += static_cast<uint32_t>(std::popcount(added));
      }
    }
    merged[comp] = set;
  }
  const double before = EstimateFrom(bits_set_.data());
  const double after = EstimateFrom(merged);
  return after > before ? after - before : 0.0;
}

}  // namespace shedmon::sketch
