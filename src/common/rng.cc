#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace drlstream {

// MT19937-64 constants from the standard's mersenne_twister_engine
// specialization ([rand.predef]): w=64 n=312 m=156 r=31.
namespace {
constexpr int kN = Mt19937_64::kStateSize;
constexpr int kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr uint64_t kLowerMask = (uint64_t{1} << 31) - 1;  // low r bits
constexpr uint64_t kUpperMask = ~kLowerMask;
constexpr uint64_t kInitMultiplier = 6364136223846793005ull;

// One twist step: new word i from words i, i+1 and i+m (indices mod n).
// The matrix term is selected by a mask, not a branch: y's low bit is a
// coin flip, so a branch would mispredict on half the words.
inline uint64_t TwistWord(uint64_t word, uint64_t next, uint64_t far) {
  const uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrixA);
}
}  // namespace

void Mt19937_64::seed(uint64_t seed_value) {
  state_[0] = seed_value;
  for (int i = 1; i < kN; ++i) {
    state_[i] =
        kInitMultiplier * (state_[i - 1] ^ (state_[i - 1] >> 62)) +
        static_cast<uint64_t>(i);
  }
  position_ = kN;
}

void Mt19937_64::Twist() {
  // The recurrence updates in place, so word i + m - n is read after it was
  // rewritten; splitting the loop where (i + m) and then (i + 1) wrap keeps
  // exactly that order without a modulo per word.
  int i = 0;
  for (; i < kN - kM; ++i) {
    state_[i] = TwistWord(state_[i], state_[i + 1], state_[i + kM]);
  }
  for (; i < kN - 1; ++i) {
    state_[i] = TwistWord(state_[i], state_[i + 1], state_[i + kM - kN]);
  }
  state_[kN - 1] = TwistWord(state_[kN - 1], state_[0], state_[kM - 1]);
  position_ = 0;
}

Mt19937_64::result_type Mt19937_64::operator()() {
  if (position_ >= kN) Twist();
  uint64_t y = state_[position_++];
  y ^= (y >> 29) & 0x5555555555555555ull;
  y ^= (y << 17) & 0x71d67fffeda60000ull;
  y ^= (y << 37) & 0xfff7eee000000000ull;
  y ^= y >> 43;
  return y;
}

namespace {

// Binary state layout: "b1:" + 312 little-endian u64 words + u16 position.
constexpr char kBinPrefix[] = "b1:";
constexpr size_t kBinPrefixLen = 3;
constexpr size_t kBinSize = kBinPrefixLen + 8 * kN + 2;
static_assert(kBinSize == Rng::kSerializedStateBytes,
              "kSerializedStateBytes out of sync with the layout");

// memcpy + bswap instead of byte loops: this codec runs 312 times per
// serialized RNG on the control plane's per-request path.
void StoreU64Le(uint64_t value, char* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  value = __builtin_bswap64(value);
#endif
  std::memcpy(p, &value, 8);
}

uint64_t ReadU64Le(const char* p) {
  uint64_t value;
  std::memcpy(&value, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  value = __builtin_bswap64(value);
#endif
  return value;
}

// The standard textual token sequence std::mt19937_64's operator<< emits:
// the 312 state words then the draw position, space separated. Accepted so
// a peer still speaking the old wire format interoperates.
bool ParseDecimalTokens(const std::string& text, Mt19937_64* engine) {
  Mt19937_64 restored{Mt19937_64::Uninitialized{}};
  const char* p = text.c_str();
  for (int i = 0; i <= kN; ++i) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(p, &end, 10);
    if (end == p) return false;
    if (i < kN) {
      restored.mutable_state()[i] = value;
    } else {
      if (value > static_cast<unsigned long long>(kN)) return false;
      restored.set_position(static_cast<int>(value));
    }
    p = end;
  }
  while (*p == ' ' || *p == '\n') ++p;
  if (*p != '\0') return false;
  *engine = restored;
  return true;
}

}  // namespace

std::string Rng::SerializeState() const {
  std::string out;
  SerializeStateTo(&out);
  return out;
}

void Rng::SerializeStateTo(std::string* out) const {
  const size_t start = out->size();
  out->resize(start + kBinSize);
  char* p = &(*out)[start];
  std::memcpy(p, kBinPrefix, kBinPrefixLen);
  p += kBinPrefixLen;
  for (int i = 0; i < kN; ++i, p += 8) StoreU64Le(engine_.state()[i], p);
  const uint16_t position = static_cast<uint16_t>(engine_.position());
  p[0] = static_cast<char>(position & 0xff);
  p[1] = static_cast<char>(position >> 8);
}

Status Rng::DeserializeState(const std::string& text) {
  if (text.compare(0, kBinPrefixLen, kBinPrefix) != 0) {
    if (ParseDecimalTokens(text, &engine_)) return Status::OK();
    return Status::InvalidArgument("rng: malformed engine state");
  }
  if (text.size() != kBinSize) {
    return Status::InvalidArgument("rng: malformed engine state");
  }
  // Validate everything before touching engine_ (the error contract says
  // the previous state survives a malformed input), then decode in place —
  // no temporary engine, whose seeding constructor alone costs a full
  // 312-word recurrence.
  const char* p = text.data() + kBinPrefixLen;
  const char* tail = p + 8 * kN;
  const int position = static_cast<uint8_t>(tail[0]) |
                       (static_cast<uint8_t>(tail[1]) << 8);
  if (position > kN) {
    return Status::InvalidArgument("rng: malformed engine state");
  }
  uint64_t* words = engine_.mutable_state();
  for (int i = 0; i < kN; ++i, p += 8) {
    words[i] = ReadU64Le(p);
  }
  engine_.set_position(position);
  return Status::OK();
}

LogNormalLaw::LogNormalLaw(double mean_value, double cv)
    : mean(mean_value), constant(cv == 0.0) {
  DRLSTREAM_CHECK_GT(mean_value, 0.0);
  DRLSTREAM_CHECK_GE(cv, 0.0);
  const double sigma2 = std::log(1.0 + cv * cv);
  mu = std::log(mean_value) - 0.5 * sigma2;
  sigma = std::sqrt(sigma2);
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  DRLSTREAM_CHECK_GE(n, k);
  DRLSTREAM_CHECK_GE(k, 0);
  // Partial Fisher-Yates over an index vector.
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  for (int i = 0; i < k; ++i) {
    const int j = UniformInt(i, n - 1);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace drlstream
