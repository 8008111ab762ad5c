#include "serve/cache.hpp"

#include <array>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "qc/qasm.hpp"
#include "util/seed.hpp"

namespace smq::serve {

namespace {

/** Per-entry bookkeeping overhead charged against the byte budget. */
constexpr std::size_t kEntryOverheadBytes = 64;

std::string
hex16(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/**
 * The fixed field text of an smq-serve-result-v1 payload, in the
 * order server.cpp renders it. Token i packs to the byte i + 1. No
 * token is a prefix of another, so a match is never ambiguous.
 */
constexpr std::array<std::string_view, 19> kPayloadTokens = {
    "{\"schema\":\"smq-serve-result-v1\",\"benchmark\":\"",
    "\",\"device\":\"",
    "\",\"cache_key\":\"",
    "\",\"shots\":",
    ",\"repetitions\":",
    ",\"seed\":",
    ",\"status\":\"",
    "\",\"cause\":\"",
    "\",\"scores\":[",
    "],\"mean\":",
    ",\"stddev\":",
    ",\"error_bar_scale\":",
    ",\"planned_repetitions\":",
    ",\"attempts\":",
    ",\"physical_two_qubit_gates\":",
    ",\"swaps_inserted\":",
    ",\"plan\":\"",
    "\",\"detail\":\"",
    "\"}",
};

static_assert(kPayloadTokens[0].substr(11, 19) == kResultSchema,
              "token 1 must carry the result schema tag");

/** Packed prefix of a literal byte below 0x20 (tokens included). */
constexpr char kEscape = '\0';

bool
isControl(char c)
{
    return static_cast<unsigned char>(c) < 0x20;
}

} // namespace

std::string
packPayload(std::string_view json)
{
    std::string out;
    out.reserve(json.size());
    std::size_t i = 0;
    while (i < json.size()) {
        const std::string_view rest = json.substr(i);
        std::size_t token = 0;
        while (token < kPayloadTokens.size() &&
               !rest.starts_with(kPayloadTokens[token]))
            ++token;
        if (token < kPayloadTokens.size()) {
            out.push_back(static_cast<char>(token + 1));
            i += kPayloadTokens[token].size();
            continue;
        }
        if (isControl(json[i]))
            out.push_back(kEscape);
        out.push_back(json[i++]);
    }
    out.shrink_to_fit();
    return out;
}

std::string
unpackPayload(std::string_view packed)
{
    std::string out;
    out.reserve(2 * packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const char c = packed[i];
        if (c == kEscape) {
            if (++i < packed.size())
                out.push_back(packed[i]);
        } else if (isControl(c) &&
                   static_cast<std::size_t>(c) <= kPayloadTokens.size()) {
            out.append(kPayloadTokens[static_cast<std::size_t>(c) - 1]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

CacheKey
deriveCacheKey(const SubmitSpec &spec, const core::Benchmark &benchmark,
               const device::Device &device)
{
    // Hash the circuit *content*, not the benchmark name: the QASM
    // text pins gate streams and parameter values, so a factory change
    // that altered circuits would miss instead of serving stale data.
    std::uint64_t circuits_hash = 0x736d712d73657276; // "smq-serv"
    for (const qc::Circuit &circuit : benchmark.circuits()) {
        circuits_hash =
            util::labelSeed(circuits_hash, qc::toQasm(circuit), "");
    }

    CacheKey key;
    std::ostringstream text;
    text << "circuits=" << hex16(circuits_hash)
         << ";device=" << device.name
         << ";devtable=" << device::kDeviceTableVersion
         << ";shots=" << spec.shots
         << ";repetitions=" << spec.repetitions << ";seed=" << spec.seed
         << ";faults=" << (spec.faults ? 1 : 0)
         << ";fault_seed=" << spec.faultSeed;
    key.text = text.str();
    key.hex = hex16(util::labelSeed(0, key.text, ""));
    return key;
}

std::optional<std::string>
ResultCache::lookup(const std::string &key)
{
    const PayloadPtr payload = lookupPacked(key);
    if (!payload)
        return std::nullopt;
    return payload->json();
}

PayloadPtr
ResultCache::lookupPacked(const std::string &key)
{
    static obs::Counter &hit_counter =
        obs::counter(obs::names::kServeCacheHit);
    static obs::Counter &miss_counter =
        obs::counter(obs::names::kServeCacheMiss);

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        miss_counter.add();
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lruPosition);
    ++hits_;
    hit_counter.add();
    return it->second.payload;
}

void
ResultCache::insert(const std::string &key, std::string payload)
{
    insertPacked(key, std::make_shared<const PackedPayload>(payload));
}

void
ResultCache::insertPacked(const std::string &key, PayloadPtr payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t incoming = charge(key, *payload);
    if (incoming > budget_)
        return; // larger than the whole cache: not storable

    auto it = entries_.find(key);
    if (it != entries_.end()) {
        bytes_ -= charge(key, *it->second.payload);
        lru_.erase(it->second.lruPosition);
        entries_.erase(it);
    }
    evictToFitLocked(incoming);
    it = entries_.emplace(key, Entry{std::move(payload), {}}).first;
    lru_.push_front(&it->first);
    it->second.lruPosition = lru_.begin();
    bytes_ += incoming;
}

std::size_t
ResultCache::charge(const std::string &key, const PackedPayload &payload)
{
    return payload.size() + key.size() + kEntryOverheadBytes;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats;
    stats.entries = entries_.size();
    stats.bytes = bytes_;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    return stats;
}

void
ResultCache::evictToFitLocked(std::size_t incoming_bytes)
{
    static obs::Counter &evict_counter =
        obs::counter(obs::names::kServeCacheEvict);
    while (!lru_.empty() && bytes_ + incoming_bytes > budget_) {
        auto it = entries_.find(*lru_.back());
        bytes_ -= charge(it->first, *it->second.payload);
        entries_.erase(it);
        lru_.pop_back();
        ++evictions_;
        evict_counter.add();
    }
}

} // namespace smq::serve
