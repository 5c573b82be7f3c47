#include "coverfree/coverfree.hpp"

#include <algorithm>
#include <vector>

#include "util/assertx.hpp"
#include "util/mathx.hpp"

namespace valocal {

namespace {

/// Smallest prime q with q^d >= m and q > r*(d-1).
std::uint64_t choose_prime(std::uint64_t m, std::size_t r, unsigned d) {
  // q >= ceil(m^(1/d)): find by doubling + binary search on q^d >= m.
  std::uint64_t lo = 2;
  while (ipow_capped(lo, d, ~0ULL >> 1) < m) lo *= 2;
  std::uint64_t hi = lo, base = lo / 2;
  // binary search in (base, hi]
  std::uint64_t root = hi;
  while (base + 1 < root) {
    const std::uint64_t mid = base + (root - base) / 2;
    if (ipow_capped(mid, d, ~0ULL >> 1) >= m)
      root = mid;
    else
      base = mid;
  }
  const std::uint64_t min_q =
      std::max<std::uint64_t>(root, static_cast<std::uint64_t>(r) * (d - 1) + 1);
  return next_prime(std::max<std::uint64_t>(2, min_q));
}

/// Base-q digits of `c`, least significant first: the coefficients of
/// p_c, constant term first. Digits beyond the d-th are ignored.
void decode_digits(std::uint64_t c, std::uint64_t q, unsigned d,
                   std::uint64_t* digits) {
  for (unsigned i = 0; i < d; ++i) {
    digits[i] = c % q;
    c /= q;
  }
}

/// Horner evaluation mod q of the polynomial with coefficients
/// coef[0..d) (constant term first) at x. `Wide` holds acc * x + coef:
/// 64 bits suffice while q < 2^32, larger fields need 128.
template <class Wide>
std::uint64_t horner(const std::uint64_t* coef, unsigned d, std::uint64_t x,
                     std::uint64_t q) {
  std::uint64_t acc = 0;
  for (unsigned i = d; i-- > 0;)
    acc = static_cast<std::uint64_t>((static_cast<Wide>(acc) * x + coef[i]) %
                                     q);
  return acc;
}

using Wide128 = unsigned __int128;

bool fits_64bit_horner(std::uint64_t q) {
  return q < (std::uint64_t{1} << 32);
}

/// Smallest j in [0, q) at which none of the `count` polynomials (d
/// coefficients each, stored back to back in `polys`) vanishes; q if
/// every point is a root of one of them.
template <class Wide>
std::uint64_t first_common_nonroot(const std::uint64_t* polys,
                                   std::size_t count, unsigned d,
                                   std::uint64_t q) {
  for (std::uint64_t j = 0; j < q; ++j) {
    std::size_t k = 0;
    while (k < count && horner<Wide>(polys + k * d, d, j, q) != 0) ++k;
    if (k == count) return j;
  }
  return q;
}

}  // namespace

CoverFreeFamily::CoverFreeFamily(std::uint64_t num_colors,
                                 std::size_t cover)
    : m_(num_colors), r_(cover) {
  VALOCAL_REQUIRE(num_colors >= 1, "family needs at least one color");
  VALOCAL_REQUIRE(cover >= 1, "cover parameter must be >= 1");

  // Pick the degree d minimizing the ground size q^2 subject to the
  // construction constraints. d ranges over a small window: beyond
  // d ~ log m / log(r d) the q > r(d-1) constraint dominates and q^2
  // starts growing again.
  std::uint64_t best_q = 0;
  unsigned best_d = 0;
  const unsigned d_max =
      static_cast<unsigned>(log2_ceil(std::max<std::uint64_t>(2, m_))) + 2;
  for (unsigned d = 1; d <= d_max; ++d) {
    const std::uint64_t q = choose_prime(m_, r_, d);
    if (best_q == 0 || q < best_q) {
      best_q = q;
      best_d = d;
    }
  }
  q_ = best_q;
  d_ = best_d;
  VALOCAL_ENSURE(ipow_capped(q_, d_, ~0ULL >> 1) >= m_,
                 "family must distinguish all colors");
  VALOCAL_ENSURE(q_ > static_cast<std::uint64_t>(r_) * (d_ - 1),
                 "cover-freeness constraint violated");
}

std::uint64_t CoverFreeFamily::poly_eval(std::uint64_t color,
                                         std::uint64_t x) const {
  std::uint64_t digits[64];
  decode_digits(color, q_, d_, digits);
  return fits_64bit_horner(q_) ? horner<std::uint64_t>(digits, d_, x, q_)
                               : horner<Wide128>(digits, d_, x, q_);
}

std::uint64_t CoverFreeFamily::element(std::uint64_t color,
                                       std::uint64_t j) const {
  VALOCAL_DCHECK(color < m_, "color out of range");
  VALOCAL_DCHECK(j < q_, "set index out of range");
  return j * q_ + poly_eval(color, j);
}

std::vector<std::uint64_t> CoverFreeFamily::set_of(
    std::uint64_t color) const {
  std::vector<std::uint64_t> out;
  out.reserve(q_);
  for (std::uint64_t j = 0; j < q_; ++j) out.push_back(element(color, j));
  return out;
}

std::uint64_t CoverFreeFamily::pick_escaping(
    std::uint64_t color, std::span<const std::uint64_t> others) const {
  VALOCAL_REQUIRE(others.size() <= r_,
                  "more parents than the family tolerates");
  // p_color(j) == p_other(j) exactly where the difference polynomial
  // p_color - p_other vanishes, so the smallest escaping point is the
  // first j that is a root of none of them. Each difference has fewer
  // than d roots, so the scan stops within others.size() * (d - 1) + 1
  // points. The coefficient buffer is per thread and keeps its capacity,
  // so a warm call allocates nothing.
  thread_local std::vector<std::uint64_t> diffs;
  diffs.resize(others.size() * d_);
  std::uint64_t own[64];
  decode_digits(color, q_, d_, own);
  std::size_t count = 0;
  for (std::uint64_t other : others) {
    if (other == color) continue;  // identical set can never be escaped
    std::uint64_t* diff = diffs.data() + count * d_;
    decode_digits(other, q_, d_, diff);
    for (unsigned i = 0; i < d_; ++i)
      diff[i] = own[i] >= diff[i] ? own[i] - diff[i] : own[i] + q_ - diff[i];
    ++count;
  }
  const std::uint64_t j =
      fits_64bit_horner(q_)
          ? first_common_nonroot<std::uint64_t>(diffs.data(), count, d_, q_)
          : first_common_nonroot<Wide128>(diffs.data(), count, d_, q_);
  VALOCAL_ENSURE(j < q_, "cover-free family failed to provide an escape");
  return element(color, j);
}

std::uint64_t arb_linial_step_colors(std::uint64_t p, std::size_t r) {
  const CoverFreeFamily family(p, r);
  return family.ground_size();
}

std::vector<std::uint64_t> arb_linial_schedule(std::uint64_t p0,
                                               std::size_t r) {
  std::vector<std::uint64_t> seq{p0};
  while (true) {
    const std::uint64_t next = arb_linial_step_colors(seq.back(), r);
    if (next >= seq.back()) break;
    seq.push_back(next);
  }
  return seq;
}

}  // namespace valocal
