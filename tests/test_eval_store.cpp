#include "core/eval_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_pipeline.hpp"
#include "core/ga.hpp"

namespace nautilus {
namespace {

namespace fs = std::filesystem;

// Fresh store directory per test; removed up front so reruns start clean.
std::string store_dir(const std::string& name)
{
    const std::string path = ::testing::TempDir() + "nautilus_store_" + name;
    fs::remove_all(path);
    return path;
}

EvalStoreConfig small_config(const std::string& name)
{
    EvalStoreConfig cfg;
    cfg.path = store_dir(name);
    cfg.flush_every = 4;
    return cfg;
}

Genome genome(std::initializer_list<std::uint32_t> genes)
{
    return Genome{std::vector<std::uint32_t>(genes)};
}

// The store takes the genome key the pipeline computed; tests hash here.
std::optional<StoredResult> lookup(const EvalStore& store, std::uint64_t ns, const Genome& g)
{
    return store.lookup(ns, g, g.key());
}

void insert(EvalStore& store, std::uint64_t ns, const Genome& g, StoredResult result)
{
    store.insert(ns, g, g.key(), std::move(result));
}

// The single segment file of a freshly flushed store (tests that tamper
// with on-disk state need the real path).
std::string only_segment(const std::string& dir)
{
    std::string found;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) == 0) {
            EXPECT_TRUE(found.empty()) << "more than one segment in " << dir;
            found = entry.path().string();
        }
    }
    EXPECT_FALSE(found.empty()) << "no segment file in " << dir;
    return found;
}

TEST(EvalStoreConfig, ValidationCatchesBadSettings)
{
    EvalStoreConfig cfg;
    cfg.path = "";
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = EvalStoreConfig{};
    cfg.path = "x";
    cfg.flush_every = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = EvalStoreConfig{};
    cfg.path = "x";
    cfg.segment_bytes = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = EvalStoreConfig{};
    cfg.path = "x";
    cfg.compact_dead_ratio = -0.1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = EvalStoreConfig{};
    cfg.path = "x";
    EXPECT_NO_THROW(cfg.validate());
}

TEST(EvalStore, RoundTripAcrossReopenIsBitExact)
{
    const EvalStoreConfig cfg = small_config("roundtrip");
    const std::uint64_t ns = EvalStore::namespace_key("router/freq_mhz");

    // Values chosen to break text round-trips: negative zero, a denormal,
    // and a value with no short decimal representation.
    const std::vector<double> tricky = {-0.0, std::numeric_limits<double>::denorm_min(),
                                        0.1 + 0.2, -123456789.000000001,
                                        std::numeric_limits<double>::max()};
    {
        EvalStore store{cfg};
        insert(store, ns, genome({1, 2, 3}), StoredResult{true, tricky});
        insert(store, ns, genome({4, 5, 6}), StoredResult{false, {}});
        store.flush();
    }
    EvalStore reopened{cfg};
    EXPECT_EQ(reopened.records(), 2u);

    const auto hit = lookup(reopened, ns, genome({1, 2, 3}));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->feasible);
    ASSERT_EQ(hit->values.size(), tricky.size());
    for (std::size_t i = 0; i < tricky.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hit->values[i]),
                  std::bit_cast<std::uint64_t>(tricky[i]))
            << "value " << i << " not bit-exact";

    const auto infeasible = lookup(reopened, ns, genome({4, 5, 6}));
    ASSERT_TRUE(infeasible.has_value());
    EXPECT_FALSE(infeasible->feasible);
    EXPECT_TRUE(infeasible->values.empty());

    EXPECT_FALSE(lookup(reopened, ns, genome({9, 9, 9})).has_value());
    EXPECT_EQ(reopened.counters().hits, 2u);
    EXPECT_EQ(reopened.counters().misses, 1u);
}

TEST(EvalStore, NamespacesIsolateResults)
{
    const EvalStoreConfig cfg = small_config("namespaces");
    const std::uint64_t ns_a = EvalStore::namespace_key("router/freq_mhz");
    const std::uint64_t ns_b = EvalStore::namespace_key("router/area_luts");
    ASSERT_NE(ns_a, ns_b);

    EvalStore store{cfg};
    insert(store, ns_a, genome({7, 7}), StoredResult{true, {1.0}});
    insert(store, ns_b, genome({7, 7}), StoredResult{true, {2.0}});
    EXPECT_EQ(store.records(), 2u);
    EXPECT_EQ(lookup(store, ns_a, genome({7, 7}))->values.front(), 1.0);
    EXPECT_EQ(lookup(store, ns_b, genome({7, 7}))->values.front(), 2.0);
}

TEST(EvalStore, TornTailIsTruncatedAndStoreStaysUsable)
{
    const EvalStoreConfig cfg = small_config("torntail");
    const std::uint64_t ns = 1;
    {
        EvalStore store{cfg};
        for (std::uint32_t i = 0; i < 5; ++i)
            insert(store, ns, genome({i, i + 1}), StoredResult{true, {double(i)}});
        store.flush();
    }
    // Simulate a crash mid-append: chop bytes off the end of the segment so
    // the final record is torn.
    const std::string seg = only_segment(cfg.path);
    const std::uintmax_t size = fs::file_size(seg);
    fs::resize_file(seg, size - 7);

    EvalStore reopened{cfg};
    EXPECT_EQ(reopened.records(), 4u);
    EXPECT_GE(reopened.counters().torn_dropped, 1u);
    // The dropped record reads as a miss and can be re-inserted.
    EXPECT_FALSE(lookup(reopened, ns, genome({4, 5})).has_value());
    insert(reopened, ns, genome({4, 5}), StoredResult{true, {4.0}});
    reopened.flush();
    EXPECT_EQ(reopened.records(), 5u);

    // A second reopen sees the repaired, complete store with no torn tail.
    EvalStore again{cfg};
    EXPECT_EQ(again.records(), 5u);
    EXPECT_EQ(again.counters().torn_dropped, 0u);
    EXPECT_EQ(lookup(again, ns, genome({4, 5}))->values.front(), 4.0);
}

TEST(EvalStore, MissingTrailingNewlineIsATornTail)
{
    const EvalStoreConfig cfg = small_config("nonewline");
    {
        EvalStore store{cfg};
        insert(store, 2, genome({1}), StoredResult{true, {1.5}});
        insert(store, 2, genome({2}), StoredResult{true, {2.5}});
        store.flush();
    }
    const std::string seg = only_segment(cfg.path);
    fs::resize_file(seg, fs::file_size(seg) - 1);  // drop only the final '\n'

    EvalStore reopened{cfg};
    EXPECT_EQ(reopened.records(), 1u);
    EXPECT_GE(reopened.counters().torn_dropped, 1u);
}

TEST(EvalStore, MidFileCorruptionIsAHardError)
{
    const EvalStoreConfig cfg = small_config("midcorrupt");
    {
        EvalStore store{cfg};
        for (std::uint32_t i = 0; i < 4; ++i)
            insert(store, 3, genome({i}), StoredResult{true, {double(i)}});
        store.flush();
    }
    // Flip a digit inside the *first* record; this cannot be a torn tail, so
    // open() must refuse the store rather than silently drop data.
    const std::string seg = only_segment(cfg.path);
    std::string text;
    {
        std::ifstream in{seg};
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    const std::size_t pos = text.find("rec ");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 4] = text[pos + 4] == '3' ? '4' : '3';  // corrupt the ns field
    {
        std::ofstream out{seg, std::ios::trunc};
        out << text;
    }
    EXPECT_THROW(EvalStore{cfg}, std::runtime_error);
}

TEST(EvalStore, CompactionDropsSupersededDuplicates)
{
    const EvalStoreConfig cfg = small_config("compact");
    EvalStore store{cfg};
    for (int round = 0; round < 3; ++round)
        insert(store, 4, genome({1, 2}), StoredResult{true, {double(round)}});
    insert(store, 4, genome({3, 4}), StoredResult{true, {9.0}});
    store.flush();
    store.compact();
    EXPECT_EQ(store.records(), 2u);
    EXPECT_GE(store.counters().compactions, 1u);
    EXPECT_EQ(lookup(store, 4, genome({1, 2}))->values.front(), 2.0);

    // Compaction commits through the manifest, so a reopen agrees.
    EvalStore reopened{cfg};
    EXPECT_EQ(reopened.records(), 2u);
    EXPECT_EQ(lookup(reopened, 4, genome({1, 2}))->values.front(), 2.0);
    EXPECT_EQ(lookup(reopened, 4, genome({3, 4}))->values.front(), 9.0);
}

TEST(EvalStore, SizeBudgetEvictsOldestFirst)
{
    EvalStoreConfig cfg = small_config("evict");
    EvalStore probe{cfg};
    insert(probe, 5, genome({0}), StoredResult{true, {0.0}});
    const std::uint64_t per_record = probe.live_bytes();
    ASSERT_GT(per_record, 0u);

    cfg.path = store_dir("evict2");
    cfg.max_bytes = per_record * 3;  // room for three records
    EvalStore store{cfg};
    for (std::uint32_t i = 0; i < 8; ++i)
        insert(store, 5, genome({i}), StoredResult{true, {double(i)}});
    store.flush();
    store.compact();

    EXPECT_LE(store.records(), 3u);
    EXPECT_GT(store.counters().evictions, 0u);
    EXPECT_LE(store.live_bytes(), cfg.max_bytes);
    // Newest records survive; the oldest are gone.
    EXPECT_TRUE(lookup(store, 5, genome({7})).has_value());
    EXPECT_FALSE(lookup(store, 5, genome({0})).has_value());
}

TEST(EvalStore, ConcurrentReadersWithSingleWriter)
{
    const EvalStoreConfig cfg = small_config("concurrent");
    EvalStore store{cfg};
    constexpr std::uint32_t kRecords = 200;
    for (std::uint32_t i = 0; i < kRecords / 2; ++i)
        insert(store, 6, genome({i}), StoredResult{true, {double(i)}});

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> wrong{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                for (std::uint32_t i = 0; i < kRecords; ++i) {
                    const auto hit = lookup(store, 6, genome({i}));
                    if (hit && hit->values.front() != double(i))
                        wrong.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::uint32_t i = kRecords / 2; i < kRecords; ++i)
        insert(store, 6, genome({i}), StoredResult{true, {double(i)}});
    store.flush();
    store.compact();
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(store.records(), kRecords);
}

TEST(EvalStoreConversions, ArityMismatchReadsAsMiss)
{
    using Codec = StoreCodec<Evaluation>;
    EXPECT_FALSE(Codec::decode(StoredResult{true, {}}, 1).has_value());
    EXPECT_FALSE(Codec::decode(StoredResult{true, {1.0, 2.0}}, 1).has_value());
    const auto e = Codec::decode(StoredResult{true, {3.5}}, 1);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(e->feasible);
    EXPECT_EQ(e->value, 3.5);
}

// -- warm-vs-cold determinism through the GA --------------------------------

ParameterSpace toy_space()
{
    ParameterSpace space;
    for (int i = 0; i < 4; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
    return space;
}

// The acceptance criterion for the store: a warm run must reproduce the cold
// run's gated counters and results bit-for-bit while the underlying eval
// function runs ~zero times.
void check_warm_reproduces_cold(std::size_t workers)
{
    EvalStoreConfig cfg = small_config("warm_w" + std::to_string(workers));
    const auto space = toy_space();
    const std::uint64_t ns = EvalStore::namespace_key("toy/sum");

    std::atomic<std::size_t> underlying{0};
    const EvalFn counting_eval = [&underlying](const Genome& g) {
        underlying.fetch_add(1, std::memory_order_relaxed);
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };

    GaConfig ga;
    ga.generations = 12;
    ga.seed = 99;
    ga.eval_workers = workers;
    ga.store = std::make_shared<EvalStore>(cfg);
    ga.store_namespace = ns;

    const GaEngine engine{space, ga, Direction::maximize, counting_eval,
                          HintSet::none(space)};
    const RunResult cold = engine.run(99);
    ga.store->flush();
    const std::size_t cold_evals = underlying.load();
    EXPECT_EQ(cold_evals, cold.distinct_evals);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_EQ(cold.store_misses, cold.distinct_evals);

    // Reopen the store from disk, as a separate process would.
    ga.store = std::make_shared<EvalStore>(cfg);
    const GaEngine warm_engine{space, ga, Direction::maximize, counting_eval,
                               HintSet::none(space)};
    const RunResult warm = warm_engine.run(99);

    EXPECT_EQ(underlying.load(), cold_evals) << "warm run paid for fresh evaluations";
    EXPECT_EQ(warm.store_hits, warm.distinct_evals);
    EXPECT_EQ(warm.store_misses, 0u);

    // Everything the determinism contract gates on is bit-identical.
    EXPECT_EQ(warm.distinct_evals, cold.distinct_evals);
    EXPECT_EQ(warm.total_eval_calls, cold.total_eval_calls);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.best_eval.value),
              std::bit_cast<std::uint64_t>(cold.best_eval.value));
    EXPECT_EQ(warm.best_genome.genes(), cold.best_genome.genes());
    EXPECT_EQ(warm.final_rng_state, cold.final_rng_state);
    ASSERT_EQ(warm.history.size(), cold.history.size());
    for (std::size_t i = 0; i < cold.history.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.history[i].best),
                  std::bit_cast<std::uint64_t>(cold.history[i].best))
            << "generation " << i;
}

TEST(EvalStoreGa, WarmRunReproducesColdRunSerially)
{
    check_warm_reproduces_cold(1);
}

TEST(EvalStoreGa, WarmRunReproducesColdRunWithWorkers)
{
    check_warm_reproduces_cold(4);
}

// Records are appended in completion order, so segment bytes match across
// worker counts only at 1 worker; the set of records must match at any.
TEST(EvalStoreGa, ColdRunRecordsDoNotDependOnWorkerCount)
{
    const auto space = toy_space();
    const EvalFn sum = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    auto sorted_records = [&](std::size_t workers) {
        const EvalStoreConfig cfg = small_config("records_w" + std::to_string(workers));
        GaConfig ga;
        ga.generations = 12;
        ga.eval_workers = workers;
        ga.store = std::make_shared<EvalStore>(cfg);
        ga.store_namespace = EvalStore::namespace_key("toy/sum");
        GaEngine{space, ga, Direction::maximize, sum, HintSet::none(space)}.run(99);
        ga.store->flush();
        std::vector<std::string> lines;
        for (const auto& entry : std::filesystem::directory_iterator(cfg.path)) {
            if (entry.path().filename().string().rfind("seg-", 0) != 0) continue;
            std::ifstream in{entry.path()};
            for (std::string line; std::getline(in, line);) lines.push_back(line);
        }
        std::sort(lines.begin(), lines.end());
        return lines;
    };
    const std::vector<std::string> serial = sorted_records(1);
    EXPECT_GT(serial.size(), 20u);
    EXPECT_EQ(sorted_records(4), serial);
}

}  // namespace
}  // namespace nautilus
