#include "curb/crypto/sigcache.hpp"

#include <cstring>
#include <mutex>
#include <unordered_map>

namespace curb::crypto {
namespace {

/// The key is already a SHA-256 output, so its first eight bytes are as
/// uniform as a hash function gets — no further mixing needed.
struct KeyHash {
  std::size_t operator()(const Hash256& key) const noexcept {
    std::uint64_t h = 0;
    std::memcpy(&h, key.data(), sizeof(h));
    return static_cast<std::size_t>(h);
  }
};

[[nodiscard]] Hash256 cache_key(const PublicKey& pub, const Hash256& digest,
                                const Signature& sig) {
  Sha256 hasher;
  const auto pub_bytes = pub.to_bytes();
  const auto sig_bytes = sig.to_bytes();
  hasher.update(std::span<const std::uint8_t>{pub_bytes});
  hasher.update(std::span<const std::uint8_t>{digest});
  hasher.update(std::span<const std::uint8_t>{sig_bytes});
  return hasher.finish();
}

constexpr std::size_t kDefaultCapacity = 1u << 20;

}  // namespace

struct SigCache::Impl {
  mutable std::mutex mu;
  std::unordered_map<Hash256, bool, KeyHash> entries;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t capacity = kDefaultCapacity;
  bool enabled = true;
};

SigCache::SigCache() : impl_{new Impl} {}

SigCache& SigCache::instance() {
  static SigCache cache;
  return cache;
}

bool SigCache::verify(const PublicKey& pub, const Hash256& digest,
                      const Signature& sig) {
  if (!enabled()) return crypto::verify(pub, digest, sig);
  const Hash256 key = cache_key(pub, digest, sig);
  {
    const std::lock_guard<std::mutex> lock{impl_->mu};
    const auto it = impl_->entries.find(key);
    if (it != impl_->entries.end()) {
      ++impl_->hits;
      return it->second;
    }
  }
  const bool ok = crypto::verify(pub, digest, sig);
  const std::lock_guard<std::mutex> lock{impl_->mu};
  if (!impl_->enabled) return ok;  // raced with set_enabled(false)
  ++impl_->misses;
  if (impl_->entries.size() >= impl_->capacity) {
    impl_->entries.clear();
    ++impl_->evictions;
  }
  impl_->entries.emplace(key, ok);
  return ok;
}

SigCacheStats SigCache::stats() const {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  return SigCacheStats{impl_->hits, impl_->misses, impl_->entries.size(),
                       impl_->evictions};
}

void SigCache::clear() {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  impl_->entries.clear();
}

void SigCache::set_enabled(bool enabled) {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  impl_->enabled = enabled;
  if (!enabled) impl_->entries.clear();
}

bool SigCache::enabled() const {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  return impl_->enabled;
}

void SigCache::set_capacity(std::size_t max_entries) {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  impl_->capacity = max_entries == 0 ? 1 : max_entries;
}

bool verify_cached(const PublicKey& pub, const Hash256& digest,
                   const Signature& sig) {
  return SigCache::instance().verify(pub, digest, sig);
}

}  // namespace curb::crypto
