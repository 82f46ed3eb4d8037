#include "stash/ecc/bch.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

namespace stash::ecc {

namespace detail {

/// The kernel function set a decode runs through: the forced-SIMD build for
/// production, the scalar reference build for the bit-exactness tests.
struct BchKernels {
  void (*pack)(const std::uint8_t*, std::size_t, std::uint8_t*, std::size_t);
  void (*syndromes)(const bchk::DecodeTables&, const std::uint8_t*,
                    std::size_t, std::uint32_t*);
  int (*chien)(bchk::ChienState&, std::uint32_t, std::size_t, std::uint32_t*,
               int);
};

/// Buffers reused across the codewords of a decode_batch; a steady-state
/// batch allocates nothing after its first element.
struct BchScratch {
  std::vector<std::uint8_t> packed;
  std::vector<std::uint32_t> syn;
  std::vector<std::uint32_t> positions;
  bchk::ChienState chien;
};

}  // namespace detail

namespace {

const detail::BchKernels kSimdKernels{&bchk::pack_codeword, &bchk::syndromes,
                                      &bchk::chien_scan};
const detail::BchKernels kReferenceKernels{&bchk::reference::pack_codeword,
                                           &bchk::reference::syndromes,
                                           &bchk::reference::chien_scan};

/// Multiply two polynomials over GF(2^m) (low-degree-first coefficients).
std::vector<std::uint32_t> poly_mul(const GaloisField& gf,
                                    const std::vector<std::uint32_t>& a,
                                    const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = gf.add(out[i + j], gf.mul(a[i], b[j]));
    }
  }
  return out;
}

/// Fill the split tables for multiplication by the constant c:
/// lo[x] = x * c for the low byte, hi[x] = (x << 8) * c for the high bits,
/// so any element y < 2^m folds as lo[y & 0xff] ^ hi[y >> 8] (multiplication
/// by a constant is GF(2)-linear in the bit representation).
void fill_mul_split(const GaloisField& gf, std::uint32_t c, std::uint32_t* lo,
                    std::uint32_t* hi, std::uint32_t hi_size) {
  const int m = gf.m();
  std::uint32_t basis[8] = {};
  for (int b = 0; b < 8 && b < m; ++b) basis[b] = gf.mul(1u << b, c);
  lo[0] = 0;
  for (std::uint32_t x = 1; x < 256; ++x) {
    lo[x] = lo[x & (x - 1)] ^ basis[std::countr_zero(x)];
  }
  std::uint32_t hi_basis[8] = {};
  for (int b = 8; b < m; ++b) hi_basis[b - 8] = gf.mul(1u << b, c);
  hi[0] = 0;
  for (std::uint32_t x = 1; x < hi_size; ++x) {
    hi[x] = hi[x & (x - 1)] ^ hi_basis[std::countr_zero(x)];
  }
}

void build_decode_tables(const GaloisField& gf, int t,
                         const GaloisField::Tables& gf_tables,
                         bchk::DecodeTables& tb) {
  tb.m = gf.m();
  tb.t = t;
  tb.n = gf.n();
  tb.hi_size = gf.m() > 8 ? 1u << (gf.m() - 8) : 1u;
  tb.window.assign(static_cast<std::size_t>(t) * 256, 0);
  tb.step_lo.assign(static_cast<std::size_t>(t) * 256, 0);
  tb.step_hi.assign(static_cast<std::size_t>(t) * tb.hi_size, 0);
  for (int k = 0; k < t; ++k) {
    const int i = 2 * k + 1;  // this lane computes the odd syndrome S_i
    // Byte window W_i[b] = sum over set bits j of b of alpha^(i*j), again
    // by GF(2)-linearity of the sum over an 8-bit basis.
    std::uint32_t* window = &tb.window[static_cast<std::size_t>(k) * 256];
    std::uint32_t basis[8];
    for (int j = 0; j < 8; ++j) basis[j] = gf.alpha_pow(i * j);
    window[0] = 0;
    for (std::uint32_t b = 1; b < 256; ++b) {
      window[b] = window[b & (b - 1)] ^ basis[std::countr_zero(b)];
    }
    fill_mul_split(gf, gf.alpha_pow(8 * i),
                   &tb.step_lo[static_cast<std::size_t>(k) * 256],
                   &tb.step_hi[static_cast<std::size_t>(k) * tb.hi_size],
                   tb.hi_size);
  }
  tb.antilog = gf_tables.antilog.data();
  tb.log = gf_tables.log.data();
}

std::shared_ptr<const BchCode::CodeData> build_code_data(int m, int t) {
  const GaloisField gf(m);
  auto data = std::make_shared<BchCode::CodeData>();

  // Generator = product of the distinct minimal polynomials of
  // alpha^1 .. alpha^(2t).  Exponents in the same cyclotomic coset share a
  // minimal polynomial, so track which exponents are already covered.
  const int n = gf.n();
  std::set<int> covered;
  std::vector<std::uint32_t> gen = {1};

  for (int i = 1; i <= 2 * t; ++i) {
    if (covered.count(i)) continue;
    // Cyclotomic coset of i: {i, 2i, 4i, ...} mod n.
    std::vector<int> coset;
    int j = i;
    do {
      coset.push_back(j);
      covered.insert(j);
      j = (2 * j) % n;
    } while (j != i);

    // Minimal polynomial: product of (x + alpha^j) over the coset.  The
    // result provably has coefficients in GF(2).
    std::vector<std::uint32_t> min_poly = {1};
    for (int e : coset) {
      min_poly = poly_mul(gf, min_poly, {gf.alpha_pow(e), 1});
    }
    gen = poly_mul(gf, gen, min_poly);
  }

  data->generator.resize(gen.size());
  for (std::size_t idx = 0; idx < gen.size(); ++idx) {
    if (gen[idx] > 1) {
      throw std::logic_error("BchCode: generator coefficient not in GF(2)");
    }
    data->generator[idx] = static_cast<std::uint8_t>(gen[idx]);
  }
  if (gen.size() - 1 >= static_cast<std::size_t>(n)) {
    throw std::invalid_argument("BchCode: t too large for this field (k <= 0)");
  }

  data->gf_tables = GaloisField::shared_tables(m);
  build_decode_tables(gf, t, *data->gf_tables, data->tables);
  return data;
}

/// Per-(m, t) registry: benches and the per-chip volumes construct the same
/// code over and over — generator products and kernel tables build once.
std::shared_ptr<const BchCode::CodeData> shared_code_data(int m, int t) {
  if (t < 1) throw std::invalid_argument("BchCode: t must be >= 1");
  static std::mutex mu;
  static std::map<std::pair<int, int>,
                  std::shared_ptr<const BchCode::CodeData>>
      registry;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = registry[{m, t}];
  if (!slot) slot = build_code_data(m, t);
  return slot;
}

/// Build the per-decode Chien state from the error locator: each nonzero
/// term i >= 1 gets 8 lane exponents log(lambda_i) - i*j (mod n) and the
/// block stride (n - 8i) mod n that advances all 8 lanes one block.
void build_chien_state(const GaloisField& gf,
                       const std::vector<std::uint32_t>& lambda,
                       const GaloisField::Tables& gf_tables,
                       bchk::ChienState& st) {
  const int n = gf.n();
  int terms = 0;
  for (std::size_t i = 1; i < lambda.size(); ++i) {
    if (lambda[i] != 0) ++terms;
  }
  st.terms = terms;
  st.n = static_cast<std::uint32_t>(n);
  st.antilog = gf_tables.antilog.data();
  st.lane_exp.resize(static_cast<std::size_t>(terms) * 8);
  st.step8.resize(static_cast<std::size_t>(terms));
  int k = 0;
  for (std::size_t i = 1; i < lambda.size(); ++i) {
    if (lambda[i] == 0) continue;
    const int neg_i = (n - static_cast<int>(i % static_cast<std::size_t>(n))) % n;
    int e = gf.log(lambda[i]);
    for (int j = 0; j < 8; ++j) {
      st.lane_exp[static_cast<std::size_t>(k) * 8 + static_cast<std::size_t>(j)] =
          static_cast<std::uint32_t>(e);
      e += neg_i;
      if (e >= n) e -= n;
    }
    st.step8[static_cast<std::size_t>(k)] = static_cast<std::uint32_t>(
        (8ll * neg_i) % n);
    ++k;
  }
}

}  // namespace

BchCode::BchCode(int m, int t)
    : gf_(m), t_(t), data_(shared_code_data(m, t)) {}

std::vector<std::uint8_t> BchCode::encode(
    std::span<const std::uint8_t> data_bits) const {
  if (data_bits.size() > k()) {
    throw std::invalid_argument("BchCode::encode: data exceeds k bits");
  }
  const std::vector<std::uint8_t>& generator = data_->generator;
  const std::size_t r = parity_bits();
  // Work buffer holds data followed by r zeros: coefficients of
  // d(x) * x^r, highest degree first.  Long division by g(x) leaves the
  // remainder (parity) in the trailing r positions.
  std::vector<std::uint8_t> work(data_bits.begin(), data_bits.end());
  work.resize(data_bits.size() + r, 0);

  const std::size_t gdeg = r;  // deg(g) == number of parity bits
  for (std::size_t i = 0; i < data_bits.size(); ++i) {
    if (work[i] == 0) continue;
    // Subtract g(x) aligned at this position.  generator is
    // low-degree-first; position i corresponds to the x^(len-1-i) term, so
    // g's leading (degree-gdeg) coefficient lines up with work[i].
    for (std::size_t j = 0; j <= gdeg; ++j) {
      work[i + j] ^= generator[gdeg - j];
    }
  }

  std::vector<std::uint8_t> codeword(data_bits.begin(), data_bits.end());
  codeword.insert(codeword.end(), work.end() - static_cast<long>(r), work.end());
  return codeword;
}

BchCode::DecodeResult BchCode::decode_with(
    std::span<const std::uint8_t> codeword_bits, const detail::BchKernels& k,
    detail::BchScratch& scratch) const {
  DecodeResult result;
  const std::size_t r = parity_bits();
  if (codeword_bits.size() <= r || codeword_bits.size() > n()) {
    return result;  // ok = false: not a valid shortened codeword length
  }
  const std::size_t len = codeword_bits.size();
  const bchk::DecodeTables& tb = data_->tables;

  const std::size_t nbytes = (len + 7) / 8;
  scratch.packed.resize(nbytes);
  k.pack(codeword_bits.data(), len, scratch.packed.data(), nbytes);

  scratch.syn.resize(static_cast<std::size_t>(2 * t_));
  k.syndromes(tb, scratch.packed.data(), nbytes, scratch.syn.data());
  std::vector<std::uint32_t>& syndromes = scratch.syn;
  bool all_zero = true;
  for (const std::uint32_t s : syndromes) {
    if (s != 0) {
      all_zero = false;
      break;
    }
  }

  if (all_zero) {
    result.data_bits.assign(codeword_bits.begin(),
                            codeword_bits.end() - static_cast<long>(r));
    result.ok = true;
    return result;
  }

  // Berlekamp-Massey: find the minimal error-locator polynomial Lambda(x).
  std::vector<std::uint32_t> lambda = {1};
  std::vector<std::uint32_t> prev = {1};
  int l = 0;
  int shift = 1;
  std::uint32_t prev_delta = 1;
  for (int step = 0; step < 2 * t_; ++step) {
    std::uint32_t delta = syndromes[static_cast<std::size_t>(step)];
    for (int i = 1; i <= l && i < static_cast<int>(lambda.size()); ++i) {
      delta = gf_.add(delta,
                      gf_.mul(lambda[static_cast<std::size_t>(i)],
                              syndromes[static_cast<std::size_t>(step - i)]));
    }
    if (delta == 0) {
      ++shift;
      continue;
    }
    // lambda' = lambda - (delta/prev_delta) * x^shift * prev
    std::vector<std::uint32_t> next = lambda;
    const std::uint32_t coef = gf_.div(delta, prev_delta);
    if (next.size() < prev.size() + static_cast<std::size_t>(shift)) {
      next.resize(prev.size() + static_cast<std::size_t>(shift), 0);
    }
    for (std::size_t i = 0; i < prev.size(); ++i) {
      next[i + static_cast<std::size_t>(shift)] =
          gf_.add(next[i + static_cast<std::size_t>(shift)],
                  gf_.mul(coef, prev[i]));
    }
    if (2 * l <= step) {
      prev = lambda;
      prev_delta = delta;
      l = step + 1 - l;
      shift = 1;
    } else {
      ++shift;
    }
    lambda = std::move(next);
  }

  // Trim trailing zeros; degree must equal the claimed error count.
  while (lambda.size() > 1 && lambda.back() == 0) lambda.pop_back();
  const int nu = static_cast<int>(lambda.size()) - 1;
  if (nu > t_ || nu != l) {
    return result;  // more errors than the design distance supports
  }

  // Chien search restricted to transmitted degrees [0, len): an error at
  // position p means Lambda(alpha^-p) == 0.  The blocked kernel scans 8
  // positions per step; Lambda has at most nu roots in the whole field, so
  // stopping at nu found matches the classic one-position scan exactly.
  build_chien_state(gf_, lambda, *data_->gf_tables, scratch.chien);
  scratch.positions.resize(static_cast<std::size_t>(nu));
  const int found = k.chien(scratch.chien, lambda[0], len,
                            scratch.positions.data(), nu);
  if (found != nu) {
    return result;  // roots outside the shortened range: uncorrectable
  }

  // Verify the repair really zeroes the syndromes (guards against
  // miscorrection just past the design distance).  Syndromes are linear, so
  // instead of a second full pass, fold each flip's contribution
  // alpha^(i*d) into S_i — a few hundred lookups instead of another sweep.
  const int n_field = gf_.n();
  for (int idx = 0; idx < found; ++idx) {
    // A Chien root at position p IS the error degree: the flipped
    // transmitted index is len - 1 - p.
    const int d = static_cast<int>(scratch.positions[idx]);
    int e = 0;
    for (int i = 0; i < 2 * t_; ++i) {
      e += d;
      if (e >= n_field) e -= n_field;
      syndromes[static_cast<std::size_t>(i)] ^= gf_.antilog(e);
    }
  }
  for (const std::uint32_t s : syndromes) {
    if (s != 0) return result;
  }

  result.data_bits.assign(codeword_bits.begin(),
                          codeword_bits.end() - static_cast<long>(r));
  for (int idx = 0; idx < found; ++idx) {
    // Position p is transmitted index len - 1 - p; flips landing in the
    // parity tail are corrected errors too, just not part of the output.
    const std::size_t j = len - 1 - scratch.positions[idx];
    if (j < result.data_bits.size()) result.data_bits[j] ^= 1;
  }
  result.corrected = found;
  result.ok = true;
  return result;
}

BchCode::DecodeResult BchCode::decode(
    std::span<const std::uint8_t> codeword_bits) const {
  detail::BchScratch scratch;
  return decode_with(codeword_bits, kSimdKernels, scratch);
}

BchCode::DecodeResult BchCode::decode_reference(
    std::span<const std::uint8_t> codeword_bits) const {
  detail::BchScratch scratch;
  return decode_with(codeword_bits, kReferenceKernels, scratch);
}

std::vector<BchCode::DecodeResult> BchCode::decode_batch(
    std::span<const std::span<const std::uint8_t>> codewords) const {
  std::vector<DecodeResult> out;
  out.reserve(codewords.size());
  detail::BchScratch scratch;
  for (const auto& cw : codewords) {
    out.push_back(decode_with(cw, kSimdKernels, scratch));
  }
  return out;
}

std::vector<BchCode::DecodeResult> BchCode::decode_batch_reference(
    std::span<const std::span<const std::uint8_t>> codewords) const {
  std::vector<DecodeResult> out;
  out.reserve(codewords.size());
  detail::BchScratch scratch;
  for (const auto& cw : codewords) {
    out.push_back(decode_with(cw, kReferenceKernels, scratch));
  }
  return out;
}

int BchCode::pick_t_for_codeword(int m, std::size_t codeword_bits,
                                 double raw_ber, double margin_sigmas) {
  const std::size_t n = (1ull << m) - 1;
  if (codeword_bits == 0 || codeword_bits > n) return 0;
  const double bits = static_cast<double>(codeword_bits);
  const double mu = bits * raw_ber;
  const double sigma = std::sqrt(bits * raw_ber * (1.0 - raw_ber));
  const int t = static_cast<int>(std::ceil(mu + margin_sigmas * sigma));
  if (t < 1) return 1;
  // Parity may not consume the whole codeword (deg(g) <= m*t).
  if (static_cast<std::size_t>(m) * static_cast<std::size_t>(t) >=
      codeword_bits) {
    return 0;
  }
  return t;
}

int BchCode::pick_t(int m, std::size_t data_len, double raw_ber,
                    double margin_sigmas) {
  const int n = (1 << m) - 1;
  for (int t = 1; m * t < n - 1; ++t) {
    const double total_bits =
        static_cast<double>(data_len) + static_cast<double>(m * t);
    if (total_bits > static_cast<double>(n)) break;
    const double mu = total_bits * raw_ber;
    const double sigma = std::sqrt(total_bits * raw_ber * (1.0 - raw_ber));
    if (static_cast<double>(t) >= mu + margin_sigmas * sigma) return t;
  }
  return 0;
}

}  // namespace stash::ecc
