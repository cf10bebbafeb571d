#include "core/batch_evaluator.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nautilus {

// Persistent worker pool.  A batch is published as (item pointer, size,
// shared index dispenser); workers race to claim indices, so per-item work
// is distributed dynamically (good when evaluation costs vary widely, as
// synthesis runtimes do).
struct BatchEvaluator::Pool {
    explicit Pool(std::size_t threads)
    {
        workers.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back([this] { worker_loop(); });
    }

    ~Pool()
    {
        {
            std::lock_guard lock{mutex};
            stop = true;
        }
        work_ready.notify_all();
        for (auto& w : workers) w.join();
    }

    void run(std::size_t count, const std::function<void(std::size_t)>& item)
    {
        {
            std::lock_guard lock{mutex};
            batch_item = &item;
            batch_size = count;
            next.store(0, std::memory_order_relaxed);
            active = workers.size();
            error = nullptr;
            ++batch_id;
        }
        work_ready.notify_all();
        drain(item);  // the caller is a worker too
        std::unique_lock lock{mutex};
        batch_done.wait(lock, [this] { return active == 0; });
        batch_item = nullptr;
        if (error) std::rethrow_exception(error);
    }

private:
    void worker_loop()
    {
        std::size_t seen = 0;
        for (;;) {
            const std::function<void(std::size_t)>* item = nullptr;
            {
                std::unique_lock lock{mutex};
                work_ready.wait(lock, [&] { return stop || batch_id != seen; });
                if (stop) return;
                seen = batch_id;
                item = batch_item;
            }
            drain(*item);
            {
                std::lock_guard lock{mutex};
                if (--active == 0) batch_done.notify_all();
            }
        }
    }

    void drain(const std::function<void(std::size_t)>& item)
    {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= batch_size) return;
            try {
                item(i);
            }
            catch (...) {
                std::lock_guard lock{mutex};
                if (!error) error = std::current_exception();
            }
        }
    }

    std::mutex mutex;
    std::condition_variable work_ready;
    std::condition_variable batch_done;
    std::vector<std::thread> workers;
    bool stop = false;
    std::size_t batch_id = 0;
    const std::function<void(std::size_t)>* batch_item = nullptr;
    std::size_t batch_size = 0;
    std::atomic<std::size_t> next{0};
    std::size_t active = 0;
    std::exception_ptr error;
};

BatchEvaluator::BatchEvaluator(std::size_t workers) : workers_(std::max<std::size_t>(workers, 1))
{
    if (workers_ > 1) pool_ = new Pool{workers_ - 1};
}

BatchEvaluator::~BatchEvaluator()
{
    delete pool_;
}

void BatchEvaluator::run_batch(std::size_t count,
                               const std::function<void(std::size_t)>& item)
{
    if (count == 0) return;
    if (pool_ == nullptr || count == 1) {
        // Match the pool's semantics exactly: finish every item, then
        // rethrow the first error.  Aborting mid-batch would leave the
        // shared cache in a different state than a parallel run, breaking
        // the worker-count-independence contract when evaluations throw.
        std::exception_ptr error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                item(i);
            }
            catch (...) {
                if (!error) error = std::current_exception();
            }
        }
        if (error) std::rethrow_exception(error);
        return;
    }
    pool_->run(count, item);
}

void BatchEvaluator::set_instrumentation(obs::Instrumentation inst)
{
    inst_ = std::move(inst);
    m_waves_ = m_items_ = m_fresh_ = m_hits_ = m_waits_ = nullptr;
    m_wave_seconds_ = nullptr;
    if (obs::MetricsRegistry* reg = inst_.registry()) {
        m_waves_ = &reg->counter("eval.waves");
        m_items_ = &reg->counter("eval.items");
        m_fresh_ = &reg->counter("eval.fresh");
        m_hits_ = &reg->counter("eval.cache_hits");
        m_waits_ = &reg->counter("eval.inflight_waits");
        m_wave_seconds_ =
            &reg->histogram("eval.wave_seconds", obs::Histogram::seconds_buckets());
        reg->gauge("eval.workers").set(static_cast<double>(workers_));
    }
}

void BatchEvaluator::record_wave(const WaveRecord& wave)
{
    ++wave_seq_;
    if (m_waves_ != nullptr) {
        m_waves_->add();
        m_items_->add(wave.size);
        m_fresh_->add(wave.fresh);
        m_hits_->add(wave.size - wave.fresh);
        m_waits_->add(wave.waits);
        m_wave_seconds_->observe(wave.seconds);
    }
    if (!inst_.tracing()) return;
    obs::TraceEvent event{"eval_wave"};
    event.add("wave", wave_seq_)
        .add("size", wave.size)
        .add("fresh", wave.fresh)
        .add("hits", wave.size - wave.fresh)
        .add("waits", wave.waits)
        .add("seconds", obs::FieldValue{wave.seconds})
        .add("busy_seconds", obs::FieldValue{wave.busy_seconds})
        .add("workers", workers_)
        .add("distinct_total", wave.distinct_total)
        .add("calls_total", wave.calls_total);
    inst_.tracer.emit(std::move(event));
}

}  // namespace nautilus
