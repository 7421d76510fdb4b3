#include "props/monitor.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "logic/word_kernels.h"
#include "util/errors.h"

namespace glva::props {

namespace {

using Words = std::vector<std::uint64_t>;

/// One monitor run: fixed trace length, fixed plane set, every
/// intermediate a Words array of the same word count kept in canonical
/// form (zero bits past n). The word passes that need ones past the end
/// (the truncated-window AND semantics) fill the ragged tail locally and
/// re-mask before returning; past the word array itself the shift
/// kernels' fill convention (or: zeros, and: ones) takes over.
class Monitor {
public:
  Monitor(const PackedNamedPlanes& planes, std::size_t n)
      : planes_(planes),
        n_(n),
        word_count_((n + 63) / 64) {}

  Words eval(const Property& p) {
    switch (p.kind) {
      case PropertyKind::kAtom: {
        const std::span<const std::uint64_t> w = lookup(p.atom).words();
        return Words(w.begin(), w.end());
      }
      case PropertyKind::kNot: {
        Words v = eval(*p.left);
        for (std::uint64_t& w : v) w = ~w;
        mask_tail(v);
        return v;
      }
      case PropertyKind::kAnd: {
        Words a = eval(*p.left);
        const Words b = eval(*p.right);
        for (std::size_t w = 0; w < word_count_; ++w) a[w] &= b[w];
        return a;
      }
      case PropertyKind::kOr: {
        Words a = eval(*p.left);
        const Words b = eval(*p.right);
        for (std::size_t w = 0; w < word_count_; ++w) a[w] |= b[w];
        return a;
      }
      case PropertyKind::kImplies: {
        Words a = eval(*p.left);
        const Words b = eval(*p.right);
        for (std::size_t w = 0; w < word_count_; ++w) a[w] = ~a[w] | b[w];
        mask_tail(a);
        return a;
      }
      case PropertyKind::kGlobally:
        return suffix_all(eval(*p.left));
      case PropertyKind::kEventually:
        return suffix_any(eval(*p.left));
      case PropertyKind::kGloballyBounded:
        return bounded_and(eval(*p.left), p.bound);
      case PropertyKind::kEventuallyBounded:
        return bounded_or(eval(*p.left), p.bound);
      case PropertyKind::kUntilBounded:
        return until_bounded(eval(*p.left), p.bound, eval(*p.right));
      case PropertyKind::kSettle:
        return settle(eval(*p.left), p.bound);
      case PropertyKind::kNoGlitch:
        return noglitch(eval(*p.left), p.bound);
    }
    throw InvalidArgument("property: unknown node kind");
  }

private:
  const logic::BitStream& lookup(const std::string& atom) const {
    for (std::size_t i = 0; i < planes_.names.size(); ++i) {
      if (planes_.names[i] == atom) return *planes_.planes[i];
    }
    throw InvalidArgument("property: unknown atom '" + atom + "'");
  }

  [[nodiscard]] std::uint64_t tail_mask() const {
    const std::size_t rem = n_ % 64;
    return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
  }

  void mask_tail(Words& v) const {
    if (!v.empty()) v.back() &= tail_mask();
  }

  void fill_tail_ones(Words& v) const {
    if (!v.empty()) v.back() |= ~tail_mask();
  }

  /// G: out[j] = AND over [j, n). Backward word pass — within a word the
  /// suffix-AND mask is the run of leading ones, across words a one-bit
  /// carry ("everything from the next word on holds").
  Words suffix_all(Words v) const {
    if (v.empty()) return v;
    fill_tail_ones(v);
    bool carry = true;
    for (std::size_t w = word_count_; w-- > 0;) {
      std::uint64_t res = 0;
      if (carry) {
        const int t = std::countl_one(v[w]);
        res = t == 0 ? 0 : ~std::uint64_t{0} << (64 - t);
      }
      carry = (res & 1U) != 0;
      v[w] = res;
    }
    mask_tail(v);
    return v;
  }

  /// F: out[j] = OR over [j, n). Same backward pass with OR semantics —
  /// the suffix-OR mask runs up to the highest set bit.
  Words suffix_any(Words v) const {
    bool carry = false;
    for (std::size_t w = word_count_; w-- > 0;) {
      std::uint64_t res;
      if (carry) {
        res = ~std::uint64_t{0};
      } else if (v[w] == 0) {
        res = 0;
      } else {
        res = ~std::uint64_t{0} >> std::countl_zero(v[w]);
        carry = true;
      }
      v[w] = res;
    }
    mask_tail(v);
    return v;
  }

  /// Prefix-AND (forward twin of suffix_all): out[j] = AND over [0, j].
  Words prefix_all(Words v) const {
    bool carry = true;
    for (std::size_t w = 0; w < word_count_; ++w) {
      std::uint64_t res = 0;
      if (carry) {
        const int t = std::countr_one(v[w]);
        res = t == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << t) - 1;
        carry = t == 64;
      } else {
        carry = false;
      }
      v[w] = res;
    }
    mask_tail(v);
    return v;
  }

  /// F[0,k]: doubling OR cascade — after each step out[j] covers a
  /// window of `covered` samples, and ORing in a copy shifted down by
  /// min(covered, remaining) doubles the window until it reaches k+1.
  /// O(W log k) words instead of O(W k). Truncation at the trace end is
  /// free: the shift kernel zero-fills past the array and the canonical
  /// zero tail ORs in nothing.
  Words bounded_or(Words v, std::size_t k) const {
    const std::size_t target = std::min(k, n_) + 1;
    std::size_t covered = 1;
    while (covered < target) {
      const std::size_t shift = std::min(covered, target - covered);
      logic::or_shift_down_words(v.data(), word_count_, shift, v.data());
      covered += shift;
    }
    return v;
  }

  /// G[0,k]: the AND cascade. Truncated windows must not fail, so the
  /// ragged tail is one-filled first (the kernel already one-fills past
  /// the array) and re-masked after.
  Words bounded_and(Words v, std::size_t k) const {
    if (v.empty()) return v;
    fill_tail_ones(v);
    const std::size_t target = std::min(k, n_) + 1;
    std::size_t covered = 1;
    while (covered < target) {
      const std::size_t shift = std::min(covered, target - covered);
      logic::and_shift_down_words(v.data(), word_count_, shift, v.data());
      covered += shift;
    }
    mask_tail(v);
    return v;
  }

  /// p U[0,k] q: the textbook expansion U_m = q | (p & U_{m-1}>>1),
  /// iterated min(k, n) times with an early exit at the fixpoint (the
  /// iteration count is really bounded by the longest p-run).
  Words until_bounded(const Words& p, std::size_t k, Words q) const {
    const std::size_t iterations = std::min(k, n_);
    Words shifted(word_count_);
    for (std::size_t m = 0; m < iterations; ++m) {
      std::fill(shifted.begin(), shifted.end(), 0);
      logic::or_shift_down_words(q.data(), word_count_, 1, shifted.data());
      bool changed = false;
      for (std::size_t w = 0; w < word_count_; ++w) {
        const std::uint64_t next = q[w] | (p[w] & shifted[w]);
        changed = changed || next != q[w];
        q[w] = next;
      }
      if (!changed) break;
    }
    return q;
  }

  /// Constancy plane: eq[j] = (v[j] == v[j+1]), eq[n-1] = 1.
  Words eq_next(const Words& v) const {
    Words shifted(word_count_, 0);
    logic::or_shift_down_words(v.data(), word_count_, 1, shifted.data());
    Words eq(word_count_);
    for (std::size_t w = 0; w < word_count_; ++w) eq[w] = ~(v[w] ^ shifted[w]);
    set_bit(eq, n_ - 1);
    mask_tail(eq);
    return eq;
  }

  /// Constancy plane: eq[j] = (v[j] == v[j-1]), eq[0] = 1.
  Words eq_prev(const Words& v) const {
    Words shifted(word_count_, 0);
    logic::or_shift_up_words(v.data(), word_count_, 1, shifted.data());
    mask_tail(shifted);
    Words eq(word_count_);
    for (std::size_t w = 0; w < word_count_; ++w) eq[w] = ~(v[w] ^ shifted[w]);
    eq[0] |= 1U;
    mask_tail(eq);
    return eq;
  }

  /// settle[k]: stable[j] = "constant from j on" = suffix_all(eq_next);
  /// out[j] = stable[min(j+k, n-1)], i.e. a plain down-shift by k with
  /// one-fill (stable[n-1] is identically 1, so holding past the end and
  /// holding the last sample agree).
  Words settle(const Words& v, std::size_t k) const {
    if (v.empty()) return {};
    Words stable = suffix_all(eq_next(v));
    fill_tail_ones(stable);
    Words out(word_count_, ~std::uint64_t{0});
    logic::and_shift_down_words(stable.data(), word_count_, k, out.data());
    mask_tail(out);
    return out;
  }

  /// noglitch[k]: a sample is good when its maximal constant run is at
  /// least k long or touches a trace boundary. Interior long-enough runs
  /// are the morphological opening (erode-then-dilate by a k-sample
  /// window) of the plane and of its complement; the boundary runs are
  /// the prefix/suffix constancy masks.
  Words noglitch(const Words& v, std::size_t k) const {
    if (v.empty()) return {};
    if (k <= 1) {  // every run has length >= 1
      Words out(word_count_, ~std::uint64_t{0});
      mask_tail(out);
      return out;
    }
    Words inverted(word_count_);
    for (std::size_t w = 0; w < word_count_; ++w) inverted[w] = ~v[w];
    mask_tail(inverted);
    const Words long_ones = opening(v, k);
    const Words long_zeros = opening(inverted, k);
    const Words first_run = prefix_all(eq_prev(v));
    const Words last_run = suffix_all(eq_next(v));
    Words out(word_count_);
    for (std::size_t w = 0; w < word_count_; ++w) {
      out[w] = (v[w] & long_ones[w]) | (inverted[w] & long_zeros[w]) |
               first_run[w] | last_run[w];
    }
    mask_tail(out);
    return out;
  }

  /// Opening with a k-sample window: erode (AND cascade down, window k)
  /// then dilate (OR cascade up, window k). Marks every sample lying in a
  /// run of ones at least k long — plus end-touching runs, which the
  /// erode's one-fill truncation admits; those are boundary-exempt in
  /// noglitch anyway, so the shortcut never changes a verdict.
  Words opening(const Words& v, std::size_t k) const {
    Words e = bounded_and(Words(v), k - 1);
    const std::size_t target = std::min(k - 1, n_) + 1;
    std::size_t covered = 1;
    while (covered < target) {
      const std::size_t shift = std::min(covered, target - covered);
      logic::or_shift_up_words(e.data(), word_count_, shift, e.data());
      covered += shift;
    }
    mask_tail(e);
    return e;
  }

  static void set_bit(Words& v, std::size_t bit) {
    v[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }

  const PackedNamedPlanes& planes_;
  std::size_t n_;
  std::size_t word_count_;
};

}  // namespace

logic::BitStream evaluate_packed(const Property& property,
                                 const PackedNamedPlanes& planes) {
  if (planes.names.size() != planes.planes.size()) {
    throw InvalidArgument(
        "property: plane name/data count mismatch in packed monitor");
  }
  validate_atoms(property, planes.names);
  const std::size_t n =
      planes.planes.empty() ? 0 : planes.planes.front()->size();
  for (const logic::BitStream* plane : planes.planes) {
    if (plane->size() != n) {
      throw InvalidArgument(
          "property: planes of mismatched length in packed monitor");
    }
  }
  if (n == 0) return logic::BitStream{};
  Monitor monitor(planes, n);
  return logic::BitStream::from_words(n, monitor.eval(property));
}

}  // namespace glva::props
