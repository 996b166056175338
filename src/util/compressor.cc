#include "util/compressor.h"

#include <algorithm>
#include <cstring>

namespace nova {

namespace {

// NovaLz: an LZ4-block-format-style byte LZ. A compressed stream is a run
// of sequences
//
//   [token][lit-ext...][literals][offset:2 LE][match-ext...]
//
// where the token's high nibble is the literal length and its low nibble
// is (match length - kMinMatch); a nibble of 15 continues in extension
// bytes (each adds 0..255, a value of 255 meaning "more"). Matches copy
// `offset` bytes back into the already-produced output (offset 1..65535,
// overlap allowed — that is how runs compress). The final sequence is
// literals only: the stream simply ends after them.
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;
constexpr size_t kMinInput = 16;  // below this a match can't pay for itself

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

/// Index of the first differing byte of two 8-byte words loaded with
/// Load64, given their XOR (nonzero).
inline size_t FirstDiffByte(uint64_t diff) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return static_cast<size_t>(__builtin_clzll(diff)) >> 3;
#else
  return static_cast<size_t>(__builtin_ctzll(diff)) >> 3;
#endif
}

/// Length of the common prefix of [a, end) and b, where b < a (so b's
/// bytes are in bounds wherever a's are). Eight bytes per step.
inline size_t CommonPrefix(const uint8_t* a, const uint8_t* b,
                           const uint8_t* end) {
  const uint8_t* start = a;
  for (; end - a >= 8; a += 8, b += 8) {
    uint64_t diff = Load64(a) ^ Load64(b);
    if (diff != 0) {
      return static_cast<size_t>(a - start) + FirstDiffByte(diff);
    }
  }
  for (; a < end && *a == *b; a++, b++) {
  }
  return static_cast<size_t>(a - start);
}

inline uint32_t HashWord(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void EmitExtLength(std::string* out, size_t len) {
  while (len >= 255) {
    out->push_back(static_cast<char>(255));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

void EmitSequence(const uint8_t* literals, size_t lit_len, size_t offset,
                  size_t match_len, std::string* out) {
  size_t lit_nib = lit_len < 15 ? lit_len : 15;
  size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  size_t match_nib = match_code < 15 ? match_code : 15;
  out->push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) {
    EmitExtLength(out, lit_len - 15);
  }
  out->append(reinterpret_cast<const char*>(literals), lit_len);
  if (match_len == 0) {
    return;  // final sequence: no offset, stream ends after the literals
  }
  out->push_back(static_cast<char>(offset & 0xff));
  out->push_back(static_cast<char>((offset >> 8) & 0xff));
  if (match_nib == 15) {
    EmitExtLength(out, match_code - 15);
  }
}

/// Bounds-checked read of a nibble-15 length extension. max caps the
/// accumulated length so a malicious run of 255s cannot overflow.
bool ReadExtLength(const uint8_t** p, const uint8_t* end, size_t max,
                   size_t* len) {
  uint8_t b;
  do {
    if (*p >= end) {
      return false;
    }
    b = **p;
    (*p)++;
    *len += b;
    if (*len > max) {
      return false;
    }
  } while (b == 255);
  return true;
}

class NovaLzCompressor final : public Compressor {
 public:
  uint8_t id() const override { return kNovaLzCompression; }
  const char* name() const override { return "novalz"; }

  bool Compress(const Slice& input, std::string* out) const override {
    const size_t n = input.size();
    if (n < kMinInput || n > 0xffffffffu) {
      return false;
    }
    const size_t out_start = out->size();
    const auto* base = reinterpret_cast<const uint8_t*>(input.data());
    const uint8_t* end = base + n;
    // Greedy match finder: one hash-table slot per 4-byte shingle, last
    // occurrence wins. Position 0 doubles as "empty"; the content compare
    // below makes a stale slot harmless.
    uint32_t table[1u << kHashBits] = {0};
    const uint8_t* ip = base;
    const uint8_t* anchor = base;
    while (ip + kMinMatch <= end) {
      uint32_t word = Load32(ip);
      uint32_t h = HashWord(word);
      const uint8_t* cand = base + table[h];
      table[h] = static_cast<uint32_t>(ip - base);
      if (cand < ip && static_cast<size_t>(ip - cand) <= kMaxOffset &&
          Load32(cand) == word) {
        size_t match_len =
            kMinMatch + CommonPrefix(ip + kMinMatch, cand + kMinMatch, end);
        EmitSequence(anchor, static_cast<size_t>(ip - anchor),
                     static_cast<size_t>(ip - cand), match_len, out);
        ip += match_len;
        anchor = ip;
        if (out->size() - out_start >= n) {
          break;  // already not paying for itself
        }
      } else {
        ip++;
      }
    }
    EmitSequence(anchor, static_cast<size_t>(end - anchor), 0, 0, out);
    if (out->size() - out_start >= n) {
      out->resize(out_start);  // incompressible: caller stores raw
      return false;
    }
    return true;
  }

  Status Uncompress(const Slice& input, size_t uncompressed_len,
                    std::string* out) const override {
    out->resize(uncompressed_len);
    char* const base = &(*out)[0];
    char* const oend = base + uncompressed_len;
    char* op = base;
    auto corruption = [&](const char* msg) {
      out->resize(static_cast<size_t>(op - base));  // keep what was produced
      return Status::Corruption(msg);
    };
    const auto* p = reinterpret_cast<const uint8_t*>(input.data());
    const uint8_t* end = p + input.size();
    while (p < end) {
      uint8_t token = *p++;
      size_t lit_len = token >> 4;
      if (lit_len == 15 &&
          !ReadExtLength(&p, end, uncompressed_len, &lit_len)) {
        return corruption("novalz: bad literal length");
      }
      if (lit_len > static_cast<size_t>(end - p)) {
        return corruption("novalz: literal run past input");
      }
      if (lit_len > static_cast<size_t>(oend - op)) {
        return corruption("novalz: output overrun");
      }
      memcpy(op, p, lit_len);
      op += lit_len;
      p += lit_len;
      if (p == end) {
        break;  // final, literals-only sequence
      }
      if (end - p < 2) {
        return corruption("novalz: truncated match offset");
      }
      size_t offset = static_cast<size_t>(p[0]) | (static_cast<size_t>(p[1]) << 8);
      p += 2;
      if (offset == 0 || offset > static_cast<size_t>(op - base)) {
        return corruption("novalz: match offset before output start");
      }
      size_t match_len = token & 0x0f;
      if (match_len == 15 &&
          !ReadExtLength(&p, end, uncompressed_len, &match_len)) {
        return corruption("novalz: bad match length");
      }
      match_len += kMinMatch;
      if (match_len > static_cast<size_t>(oend - op)) {
        return corruption("novalz: output overrun");
      }
      // [from, op) repeats with period `offset`, so copying it to op never
      // overlaps and doubles the span each step: one memcpy when the match
      // does not overlap its source, log2(len/offset) + 1 when it does.
      const char* from = op - offset;
      char* match_end = op + match_len;
      while (op < match_end) {
        size_t n = std::min(static_cast<size_t>(op - from),
                            static_cast<size_t>(match_end - op));
        memcpy(op, from, n);
        op += n;
      }
    }
    if (op != oend) {
      return corruption("novalz: short decompressed block");
    }
    return Status::OK();
  }
};

}  // namespace

const Compressor* GetCompressor(uint8_t codec_id) {
  static const NovaLzCompressor kNovaLz;
  switch (codec_id) {
    case kNovaLzCompression:
      return &kNovaLz;
    default:
      return nullptr;
  }
}

}  // namespace nova
