#include "core/eval_store.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.hpp"
#include "core/rng.hpp"

namespace nautilus {

namespace {

constexpr std::string_view k_manifest_magic = "nautilus-eval-store";
constexpr std::uint64_t k_store_version = 1;

std::uint64_t fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t double_bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

double bits_double(std::uint64_t b)
{
    return std::bit_cast<double>(b);
}

// "rec <ns> <nGenes> <g...> <feasible> <nVals> <bits...> <crc>\n"
std::string encode_record(std::uint64_t ns, const std::vector<std::uint32_t>& genes,
                          const StoredResult& result)
{
    std::ostringstream out;
    out << "rec " << ns << ' ' << genes.size();
    for (const std::uint32_t g : genes) out << ' ' << g;
    out << ' ' << (result.feasible ? 1 : 0) << ' ' << result.values.size();
    for (const double v : result.values) out << ' ' << double_bits(v);
    std::string line = out.str();
    line += ' ';
    line += std::to_string(fnv1a64(std::string_view{line}.substr(0, line.size() - 1)));
    line += '\n';
    return line;
}

// Whitespace tokenizer over one record line (the text before the crc field).
class LineReader {
public:
    explicit LineReader(std::string_view text) : text_(text) {}

    bool u64(std::uint64_t& out)
    {
        while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
        const char* begin = text_.data() + pos_;
        const char* end = text_.data() + text_.size();
        const auto [next, ec] = std::from_chars(begin, end, out);
        if (ec != std::errc{} || next == begin) return false;
        pos_ = static_cast<std::size_t>(next - text_.data());
        return true;
    }

    bool exhausted()
    {
        while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
        return pos_ == text_.size();
    }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

// Decodes one line.  Returns false (without throwing) on any malformation so
// the loader can decide whether the damage is a recoverable torn tail.
bool decode_record(std::string_view line, std::uint64_t& ns,
                   std::vector<std::uint32_t>& genes, StoredResult& result)
{
    if (!line.starts_with("rec ")) return false;
    const std::size_t crc_sep = line.find_last_of(' ');
    if (crc_sep == std::string_view::npos || crc_sep + 1 >= line.size()) return false;
    std::uint64_t crc = 0;
    {
        const char* begin = line.data() + crc_sep + 1;
        const char* end = line.data() + line.size();
        const auto [next, ec] = std::from_chars(begin, end, crc);
        if (ec != std::errc{} || next != end) return false;
    }
    if (fnv1a64(line.substr(0, crc_sep)) != crc) return false;

    LineReader r{line.substr(4, crc_sep - 4)};
    std::uint64_t n_genes = 0;
    if (!r.u64(ns) || !r.u64(n_genes) || n_genes > (1u << 20)) return false;
    genes.clear();
    genes.reserve(n_genes);
    for (std::uint64_t i = 0; i < n_genes; ++i) {
        std::uint64_t g = 0;
        if (!r.u64(g) || g > std::numeric_limits<std::uint32_t>::max()) return false;
        genes.push_back(static_cast<std::uint32_t>(g));
    }
    std::uint64_t feasible = 0;
    std::uint64_t n_values = 0;
    if (!r.u64(feasible) || feasible > 1) return false;
    if (!r.u64(n_values) || n_values > (1u << 20)) return false;
    result.feasible = feasible != 0;
    result.values.clear();
    result.values.reserve(n_values);
    for (std::uint64_t i = 0; i < n_values; ++i) {
        std::uint64_t bits = 0;
        if (!r.u64(bits)) return false;
        result.values.push_back(bits_double(bits));
    }
    return r.exhausted();
}

std::string segment_name(std::uint64_t n)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "seg-%06llu.log", static_cast<unsigned long long>(n));
    return buf;
}

std::uint64_t file_size_or_zero(const std::string& path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace

void EvalStoreConfig::validate() const
{
    if (path.empty()) throw std::invalid_argument("eval store: path must be set");
    if (flush_every == 0)
        throw std::invalid_argument("eval store: flush_every must be >= 1");
    if (segment_bytes == 0)
        throw std::invalid_argument("eval store: segment_bytes must be >= 1");
    if (compact_dead_ratio <= 0.0 || compact_dead_ratio > 1.0)
        throw std::invalid_argument("eval store: compact_dead_ratio must be in (0, 1]");
}

std::uint64_t EvalStore::namespace_key(std::string_view context)
{
    return mix64(fnv1a64(context));
}

std::string EvalStore::segment_path(const std::string& name) const
{
    return config_.path + "/" + name;
}

std::string EvalStore::manifest_path() const
{
    return config_.path + "/MANIFEST";
}

EvalStore::EvalStore(EvalStoreConfig config) : config_(std::move(config))
{
    config_.validate();
    std::error_code ec;
    std::filesystem::create_directories(config_.path, ec);
    if (ec)
        throw std::runtime_error("eval store " + config_.path +
                                 ": cannot create directory: " + ec.message());

    // Parse the manifest when present; a fresh directory starts empty.
    if (std::ifstream in{manifest_path()}; in) {
        std::string magic;
        std::uint64_t version = 0;
        std::size_t count = 0;
        if (!(in >> magic >> version) || magic != k_manifest_magic)
            throw std::runtime_error("eval store " + config_.path +
                                     ": bad manifest header");
        if (version != k_store_version)
            throw std::runtime_error("eval store " + config_.path +
                                     ": unsupported version " + std::to_string(version));
        std::string keyword;
        if (!(in >> keyword >> count) || keyword != "segments")
            throw std::runtime_error("eval store " + config_.path +
                                     ": bad manifest segment list");
        for (std::size_t i = 0; i < count; ++i) {
            std::string name;
            if (!(in >> name))
                throw std::runtime_error("eval store " + config_.path +
                                         ": truncated manifest");
            segments_.push_back(std::move(name));
        }
        if (!(in >> keyword) || keyword != "end")
            throw std::runtime_error("eval store " + config_.path +
                                     ": manifest missing end marker");
    }
    else {
        write_manifest_locked();
    }

    for (const std::string& name : segments_) {
        unsigned long long n = 0;
        if (std::sscanf(name.c_str(), "seg-%llu.log", &n) == 1)
            segment_counter_ = std::max(segment_counter_, static_cast<std::uint64_t>(n));
    }

    // Drop files a crash may have orphaned (segments rolled or compacted but
    // never committed to the manifest, and stale tmp files).
    for (const auto& entry : std::filesystem::directory_iterator{config_.path, ec}) {
        const std::string name = entry.path().filename().string();
        const bool is_segment = name.starts_with("seg-") && name.ends_with(".log");
        const bool is_tmp = name.ends_with(".tmp");
        const bool known =
            std::find(segments_.begin(), segments_.end(), name) != segments_.end();
        if (is_tmp || (is_segment && !known)) std::filesystem::remove(entry.path(), ec);
    }

    for (std::size_t i = 0; i < segments_.size(); ++i)
        load_segment(segments_[i], i + 1 == segments_.size());

    if (segments_.empty()) roll_segment_locked();
    active_bytes_ = file_size_or_zero(segment_path(segments_.back()));
    update_gauges();
}

EvalStore::~EvalStore()
{
    try {
        flush();
    }
    catch (...) {
        // Destructor must not throw; unflushed records cost a re-evaluation
        // next run, never correctness.
    }
}

void EvalStore::write_manifest_locked()
{
    std::ostringstream out;
    out << k_manifest_magic << ' ' << k_store_version << '\n';
    out << "segments " << segments_.size() << '\n';
    for (const std::string& name : segments_) out << name << '\n';
    out << "end\n";
    atomic_write_file(manifest_path(), out.str(), config_.sync);
}

void EvalStore::apply_record(std::uint64_t key, Record record)
{
    const auto it = index_.find(key);
    if (it != index_.end()) live_bytes_ -= it->second.bytes;
    live_bytes_ += record.bytes;
    index_[key] = std::move(record);
}

void EvalStore::load_segment(const std::string& name, bool last)
{
    const std::string path = segment_path(name);
    std::ifstream in{path, std::ios::binary};
    if (!in) return;  // rolled but never appended to; legitimately absent
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    in.close();

    std::size_t pos = 0;
    std::size_t valid_end = 0;
    while (pos < content.size()) {
        const std::size_t nl = content.find('\n', pos);
        const bool has_newline = nl != std::string::npos;
        const std::string_view line{content.data() + pos,
                                    (has_newline ? nl : content.size()) - pos};
        std::uint64_t ns = 0;
        Record record;
        const bool ok = has_newline && decode_record(line, ns, record.genes, record.result);
        const std::size_t next = has_newline ? nl + 1 : content.size();
        if (!ok) {
            // A bad final chunk of the final segment is a torn append from a
            // crash: truncate it away and keep the store usable.  Damage
            // anywhere else means real corruption — refuse to guess.
            if (last && next == content.size()) {
                if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0)
                    throw std::runtime_error("eval store " + path +
                                             ": cannot truncate torn tail: " +
                                             std::strerror(errno));
                if (config_.sync) fsync_parent_dir(path);
                torn_dropped_.fetch_add(1, std::memory_order_relaxed);
                break;
            }
            throw std::runtime_error("eval store " + path + ": corrupt record at byte " +
                                     std::to_string(pos));
        }
        record.ns = ns;
        record.seq = seq_++;
        record.bytes = line.size() + 1;
        const std::uint64_t key = hash_combine(ns, genes_key(record.genes));
        apply_record(key, std::move(record));
        ++disk_records_;
        disk_bytes_ += line.size() + 1;
        valid_end = next;
        pos = next;
    }
}

std::optional<StoredResult> EvalStore::lookup(std::uint64_t ns, const Genome& genome,
                                              std::uint64_t genome_key) const
{
    const std::uint64_t key = hash_combine(ns, genome_key);
    {
        std::shared_lock lock{mutex_};
        const auto it = index_.find(key);
        if (it != index_.end() && it->second.ns == ns && it->second.genes == genome.genes()) {
            StoredResult result = it->second.result;
            lock.unlock();
            hits_.fetch_add(1, std::memory_order_relaxed);
            if (m_hits_ != nullptr) m_hits_->add();
            return result;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (m_misses_ != nullptr) m_misses_->add();
    return std::nullopt;
}

void EvalStore::insert(std::uint64_t ns, const Genome& genome, std::uint64_t genome_key,
                       StoredResult result)
{
    const std::uint64_t key = hash_combine(ns, genome_key);
    std::string line = encode_record(ns, genome.genes(), result);
    bool do_flush = false;
    {
        std::unique_lock lock{mutex_};
        const auto it = index_.find(key);
        if (it != index_.end() && it->second.ns == ns &&
            it->second.genes == genome.genes() && it->second.result == result)
            return;  // identical record already stored
        Record record;
        record.ns = ns;
        record.genes = genome.genes();
        record.result = std::move(result);
        record.seq = seq_++;
        record.bytes = line.size();
        apply_record(key, std::move(record));
        pending_.push_back(std::move(line));
        do_flush = pending_.size() >= config_.flush_every;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (m_writes_ != nullptr) m_writes_->add();
    if (do_flush) flush();
}

void EvalStore::flush()
{
    std::lock_guard io{io_mutex_};
    std::vector<std::string> lines;
    {
        std::unique_lock lock{mutex_};
        lines.swap(pending_);
    }
    if (!lines.empty()) {
        if (active_bytes_ > config_.segment_bytes) roll_segment_locked();
        std::string buf;
        for (const std::string& line : lines) buf += line;
        active_bytes_ = append_file(segment_path(segments_.back()), buf, config_.sync);
        disk_records_ += lines.size();
        disk_bytes_ += buf.size();
        flushes_.fetch_add(1, std::memory_order_relaxed);
        maybe_compact_locked();
    }
    update_gauges();
}

void EvalStore::roll_segment_locked()
{
    segments_.push_back(segment_name(++segment_counter_));
    write_manifest_locked();
    active_bytes_ = 0;
}

void EvalStore::maybe_compact_locked()
{
    const std::size_t live = [&] {
        std::shared_lock lock{mutex_};
        return index_.size();
    }();
    const std::uint64_t dead = disk_records_ > live ? disk_records_ - live : 0;
    const bool too_many_dead =
        dead > 64 && static_cast<double>(dead) >
                         config_.compact_dead_ratio * static_cast<double>(disk_records_);
    const bool over_budget = config_.max_bytes > 0 && disk_bytes_ > config_.max_bytes;
    if (too_many_dead || over_budget) compact_locked();
}

void EvalStore::compact()
{
    std::lock_guard io{io_mutex_};
    {
        // Fold queued records in: the index already reflects them, and the
        // rewrite below persists index state wholesale.
        std::unique_lock lock{mutex_};
        pending_.clear();
    }
    compact_locked();
    update_gauges();
}

void EvalStore::compact_locked()
{
    // Snapshot live records oldest-first and apply the size budget.
    std::vector<std::pair<std::uint64_t, const Record*>> live;
    std::uint64_t evicted = 0;
    std::string buf;
    {
        std::unique_lock lock{mutex_};
        pending_.clear();
        live.reserve(index_.size());
        for (const auto& [key, record] : index_) live.emplace_back(key, &record);
        std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
            return a.second->seq < b.second->seq;
        });
        std::size_t drop = 0;
        if (config_.max_bytes > 0) {
            std::uint64_t bytes = live_bytes_;
            while (drop < live.size() && bytes > config_.max_bytes)
                bytes -= live[drop++].second->bytes;
        }
        for (std::size_t i = drop; i < live.size(); ++i) {
            const Record& r = *live[i].second;
            buf += encode_record(r.ns, r.genes, r.result);
        }
        for (std::size_t i = 0; i < drop; ++i) {
            live_bytes_ -= live[i].second->bytes;
            index_.erase(live[i].first);
            ++evicted;
        }
    }

    // Commit the rewrite: new segment first, then the manifest flips to it
    // atomically, then the old segments go away.  A crash between steps
    // leaves either the old manifest (new segment is an orphan, cleaned at
    // next open) or the new one (old segments are orphans) — never a store
    // that fails to load.
    const std::vector<std::string> old_segments = segments_;
    const std::string fresh = segment_name(++segment_counter_);
    atomic_write_file(segment_path(fresh), buf, config_.sync);
    segments_ = {fresh};
    write_manifest_locked();
    std::error_code ec;
    for (const std::string& name : old_segments)
        std::filesystem::remove(segment_path(name), ec);
    if (config_.sync) fsync_parent_dir(manifest_path());

    active_bytes_ = buf.size();
    disk_bytes_ = buf.size();
    {
        std::shared_lock lock{mutex_};
        disk_records_ = index_.size();
    }
    compactions_.fetch_add(1, std::memory_order_relaxed);
    if (m_compactions_ != nullptr) m_compactions_->add();
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (m_evictions_ != nullptr && evicted > 0) m_evictions_->add(evicted);
}

std::size_t EvalStore::records() const
{
    std::shared_lock lock{mutex_};
    return index_.size();
}

std::uint64_t EvalStore::live_bytes() const
{
    std::shared_lock lock{mutex_};
    return live_bytes_;
}

EvalStoreCounters EvalStore::counters() const
{
    EvalStoreCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.writes = writes_.load(std::memory_order_relaxed);
    c.flushes = flushes_.load(std::memory_order_relaxed);
    c.compactions = compactions_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.torn_dropped = torn_dropped_.load(std::memory_order_relaxed);
    return c;
}

void EvalStore::attach_metrics(const std::shared_ptr<obs::MetricsRegistry>& metrics)
{
    if (!metrics) return;
    metrics_ = metrics;
    m_hits_ = &metrics_->counter("store.hits");
    m_misses_ = &metrics_->counter("store.misses");
    m_writes_ = &metrics_->counter("store.writes");
    m_compactions_ = &metrics_->counter("store.compactions");
    m_evictions_ = &metrics_->counter("store.evictions");
    m_records_ = &metrics_->gauge("store.records");
    m_bytes_ = &metrics_->gauge("store.bytes");
    update_gauges();
}

void EvalStore::update_gauges()
{
    if (m_records_ == nullptr) return;
    std::shared_lock lock{mutex_};
    m_records_->set(static_cast<double>(index_.size()));
    m_bytes_->set(static_cast<double>(live_bytes_));
}

}  // namespace nautilus
