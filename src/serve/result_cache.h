#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

/// The daemon's content-addressed result cache. Keys are
/// app::canonical_key() strings — the full canonical serialization of a
/// request's semantic fields, not a hash — so two cache lines can never
/// alias (a hash collision would silently serve the wrong circuit's
/// report). What makes caching *sound* here is the repo-wide determinism
/// contract: equal (circuit, config, seed) reproduces every output byte,
/// for every jobs count and CPU, so a cached body is
/// indistinguishable from a fresh execution.
///
/// Eviction is LRU over a byte budget (key + body + bookkeeping
/// estimate), so a long-lived daemon's memory stays bounded however many
/// distinct requests it has served. Hits, misses, insertions, and
/// evictions are counted for the `status` op and the load bench.
namespace glva::serve {

class ResultCache {
public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;         ///< resident entries now
    std::size_t bytes = 0;           ///< estimated resident bytes now
    std::size_t capacity_bytes = 0;  ///< the configured budget
  };

  struct CachedResponse {
    int exit_code = 0;
    std::string body;
  };

  /// A zero budget disables the cache (every get() misses, put() drops).
  explicit ResultCache(std::size_t capacity_bytes);

  /// Look up and touch (move to most-recently-used).
  [[nodiscard]] std::optional<CachedResponse> get(const std::string& key);

  /// Insert, evicting least-recently-used entries until the budget holds.
  /// An entry larger than the whole budget is not cached. Re-inserting an
  /// existing key only refreshes its LRU position — by the determinism
  /// contract the body cannot differ.
  void put(const std::string& key, int exit_code, const std::string& body);

  [[nodiscard]] Stats stats() const;

private:
  struct Entry {
    std::string key;
    CachedResponse response;
    std::size_t cost = 0;
  };

  /// Estimated resident bytes of one entry: payload plus a fixed
  /// allowance for the list node, map node, and string headers.
  [[nodiscard]] static std::size_t cost_of(const std::string& key,
                                           const std::string& body) noexcept {
    return key.size() + body.size() + 160;
  }

  const std::size_t capacity_bytes_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace glva::serve
