/**
 * @file
 * The content-addressed result cache of the serve daemon.
 *
 * A benchmark result is a pure function of (circuits, device noise
 * model, shots, seed, repetitions, fault schedule) — the determinism
 * the whole harness is built on. The cache exploits that: the key is
 * derived from exactly those inputs (docs/PROTOCOL.md documents the
 * derivation normatively), so a repeated `submit` from any client is
 * served byte-identically without touching the simulator, and two
 * requests that differ in any result-relevant field can never alias.
 *
 * Eviction is LRU under a byte budget (`--cache-mb`): each entry
 * costs its payload size plus key overhead, and inserting past the
 * budget evicts least-recently-used entries first. A payload larger
 * than the whole budget is simply not cached. Thread-safe: daemon
 * workers insert concurrently with transport-thread lookups.
 *
 * Entries are stored packed (packPayload) and shared: the daemon's
 * job records point at the same buffer as the entry that served them.
 * The budget still charges the unpacked size, so `--cache-mb` means
 * what it always meant.
 */

#ifndef SMQ_SERVE_CACHE_HPP
#define SMQ_SERVE_CACHE_HPP

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/benchmark.hpp"
#include "device/device.hpp"
#include "serve/protocol.hpp"

namespace smq::serve {

/** A derived cache identity: the canonical key text and its address. */
struct CacheKey
{
    /**
     * Canonical key text, e.g.
     * "circuits=<16-hex>;device=AQT;devtable=smq-devices-v1;
     *  shots=2000;repetitions=3;seed=12345;faults=0;fault_seed=0".
     * Human-auditable; returned to clients for cache debugging.
     */
    std::string text;
    /** 16-hex-digit address: labelSeed over the key text. */
    std::string hex;
};

/**
 * Derive the cache key of one submit spec. @p benchmark must be the
 * instance the spec names; its circuits' OpenQASM text is hashed, so
 * the key survives daemon restarts and identifies the circuit content
 * (not the name — two names producing identical circuits share an
 * entry; a regenerated instance with different parameters cannot).
 */
CacheKey deriveCacheKey(const SubmitSpec &spec,
                        const core::Benchmark &benchmark,
                        const device::Device &device);

/**
 * Pack a result payload: each fixed smq-serve-result-v1 field text
 * becomes a one-byte token (a control byte, which JSON text never
 * carries raw) and any literal control byte is escaped, so
 * unpackPayload(packPayload(s)) == s for every string s.
 */
std::string packPayload(std::string_view json);

/** Inverse of packPayload. */
std::string unpackPayload(std::string_view packed);

/**
 * One result payload held packed, with its unpacked size. Immutable,
 * so a cache entry and every job record it served share one.
 */
class PackedPayload
{
  public:
    explicit PackedPayload(std::string_view json)
        : packed_(packPayload(json)), size_(json.size())
    {
    }

    /** The exact JSON bytes. */
    std::string json() const { return unpackPayload(packed_); }

    /** Size of json(): what the cache budget charges. */
    std::size_t size() const { return size_; }

  private:
    std::string packed_;
    std::size_t size_;
};

using PayloadPtr = std::shared_ptr<const PackedPayload>;

/** Point-in-time cache statistics (for `stats` replies and tests). */
struct CacheStats
{
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/** LRU byte-budget result cache, keyed by CacheKey::hex. */
class ResultCache
{
  public:
    explicit ResultCache(std::size_t budget_bytes)
        : budget_(budget_bytes)
    {
    }

    /**
     * Fetch the payload cached under @p key, refreshing its LRU
     * position. Counts a hit or miss (both locally and on the
     * `serve.cache.*` counters).
     */
    std::optional<std::string> lookup(const std::string &key);

    /** lookup() without unpacking: the shared entry, or null. */
    PayloadPtr lookupPacked(const std::string &key);

    /**
     * Insert @p payload under @p key, evicting LRU entries until the
     * budget holds. Re-inserting an existing key refreshes the
     * payload. A payload that alone exceeds the budget is ignored.
     */
    void insert(const std::string &key, std::string payload);

    /** insert() of an already packed, possibly shared payload. */
    void insertPacked(const std::string &key, PayloadPtr payload);

    CacheStats stats() const;

  private:
    struct Entry
    {
        PayloadPtr payload;
        /** Position in lru_, which points back at this entry's key. */
        std::list<const std::string *>::iterator lruPosition;
    };

    /** Budget charge of one entry: unpacked payload, key, overhead. */
    static std::size_t charge(const std::string &key,
                              const PackedPayload &payload);
    void evictToFitLocked(std::size_t incoming_bytes);

    mutable std::mutex mutex_;
    std::size_t budget_;
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    /** Keys of entries_ (its nodes never move); front = most recent. */
    std::list<const std::string *> lru_;
    std::map<std::string, Entry> entries_;
};

} // namespace smq::serve

#endif // SMQ_SERVE_CACHE_HPP
