#include "dist/overlap.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_map>

#include "core/counters.hpp"
#include "core/flags.hpp"
#include "core/mutex.hpp"
#include "dist/algorithms.hpp"
#include "dist/compression.hpp"
#include "obs/trace.hpp"

namespace legw::dist {

namespace {

double hop_us(double latency_us, double gbytes_per_sec, double bytes) {
  double us = latency_us;
  if (gbytes_per_sec > 0.0) us += bytes / (gbytes_per_sec * 1e3);
  return us;
}

double ceil_log2(int n) {
  int rounds = 0;
  for (int span = 1; span < n; span *= 2) ++rounds;
  return static_cast<double>(rounds);
}

}  // namespace

double WireModel::allreduce_us(DistAlgo resolved, int n_shards, i64 bytes,
                               WireFormat wire) const {
  if (n_shards <= 1) return 0.0;
  // The bandwidth term scales with the wire format's element width; the
  // per-hop latency does not.
  const double fmt = static_cast<double>(wire_elem_bytes(wire)) / 4.0;
  const double payload = static_cast<double>(bytes) * fmt;
  const double n = static_cast<double>(n_shards);
  switch (resolved) {
    case DistAlgo::kTree:
    case DistAlgo::kAuto: {
      // Reduce + broadcast: ceil(log2 n) rounds each, full payload per hop.
      const double rounds = 2.0 * ceil_log2(n_shards);
      return rounds * hop_us(latency_us, gbytes_per_sec, payload);
    }
    case DistAlgo::kRing: {
      // 2*(n-1) hops of payload/n: the bandwidth term stays ~2*payload.
      const double hops = 2.0 * (n - 1.0);
      return hops * hop_us(latency_us, gbytes_per_sec, payload / n);
    }
    case DistAlgo::kHier: {
      const int g = hier_group_size(n_shards);
      const int n_groups = (n_shards + g - 1) / g;
      const double intra_lat =
          intra_latency_us > 0.0 ? intra_latency_us : latency_us;
      const double intra_bw =
          intra_gbytes_per_sec > 0.0 ? intra_gbytes_per_sec : gbytes_per_sec;
      // Intra reduce + intra broadcast on the island link, inter exchange
      // over the leaders on the fabric.
      const double intra_rounds = 2.0 * ceil_log2(g);
      const double inter_rounds = 2.0 * ceil_log2(n_groups);
      return intra_rounds * hop_us(intra_lat, intra_bw, payload) +
             inter_rounds * hop_us(latency_us, gbytes_per_sec, payload);
    }
  }
  return 0.0;
}

std::vector<std::vector<std::size_t>> plan_buckets(
    const std::vector<ag::Variable>& params, i64 bucket_bytes) {
  LEGW_CHECK(bucket_bytes > 0, "plan_buckets: bucket_bytes must be positive");
  std::vector<std::vector<std::size_t>> buckets;
  i64 filled = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    const i64 bytes =
        params[p].numel() * static_cast<i64>(sizeof(float));
    if (buckets.empty() || filled >= bucket_bytes) {
      buckets.emplace_back();
      filled = 0;
    }
    buckets.back().push_back(p);
    filled += bytes;
  }
  return buckets;
}

OverlapConfig default_overlap_config() {
  OverlapConfig config;
  config.algo = core::dist_algo();
  config.wire_format = core::dist_wire();
  return config;
}

namespace {

void sleep_us(double us) {
  if (us > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
  }
}

// The overlap engine's shared state, annotated so Clang TSA proves the
// comm-thread protocol at compile time: replica threads deliver gradients
// (signal -> enqueue under mu_) and the reducers claim completed buckets
// from ready_, behind one mutex whose protocol used to live in a comment.
class OverlapEngine {
 public:
  OverlapEngine(const std::vector<std::vector<ag::Variable>>& replica_params,
                const std::function<ag::Variable(int replica)>& loss_fn,
                const OverlapConfig& config)
      : replica_params_(replica_params), loss_fn_(loss_fn), config_(config) {
    n_replicas_ = static_cast<int>(replica_params_.size());
    LEGW_CHECK(n_replicas_ >= 1, "overlapped_backward: need >= 1 replica");
    n_params_ = replica_params_[0].size();
    for (const auto& params : replica_params_) {
      LEGW_CHECK(params.size() == n_params_,
                 "overlapped_backward: replicas disagree on parameter count");
    }

    buckets_ = plan_buckets(replica_params_[0], config_.bucket_bytes);
    n_buckets_ = buckets_.size();
    result_.stats.n_buckets = static_cast<i64>(n_buckets_);

    bucket_of_.assign(n_params_, 0);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      for (std::size_t p : buckets_[b]) bucket_of_[p] = b;
    }

    // Materialise every gradient buffer up front, on this thread, so the
    // replica and communication threads only ever touch pre-allocated
    // storage.
    grads_.resize(static_cast<std::size_t>(n_replicas_));
    index_of_.resize(static_cast<std::size_t>(n_replicas_));
    for (int r = 0; r < n_replicas_; ++r) {
      auto& g = grads_[static_cast<std::size_t>(r)];
      g.reserve(n_params_);
      for (std::size_t p = 0; p < n_params_; ++p) {
        ag::Variable handle = replica_params_[static_cast<std::size_t>(r)][p];
        g.push_back(&handle.mutable_grad());
        index_of_[static_cast<std::size_t>(r)][handle.node().get()] = p;
      }
    }

    // pending_[b]: gradients bucket b still awaits, summed over replicas.
    pending_ = std::make_unique<std::atomic<int>[]>(n_buckets_);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      pending_[b].store(static_cast<int>(buckets_[b].size()) * n_replicas_,
                        std::memory_order_relaxed);
    }

    losses_.assign(static_cast<std::size_t>(n_replicas_), 0.0f);
  }

  OverlapResult run() {
    // Replicas model independent cluster nodes and the reducers model the
    // NIC-side communication engine; both run full graph passes that
    // internally submit to the ThreadPool, so neither can be a pool task.
    // lint-allow: raw-thread
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_replicas_));
    for (int r = 0; r < n_replicas_; ++r) {
      threads.emplace_back([this, r] { replica_body(r); });
    }

    // The calling thread would only wait for the replicas, so it is the
    // first reducer; comm_threads - 1 more join it. Buckets are disjoint and
    // each is claimed exactly once, so the worker count changes only the
    // wall-clock cost of the wire sleeps, never a value.
    const int workers = std::max(1, config_.comm_threads);
    // lint-allow: raw-thread — see above.
    std::vector<std::thread> reducers;
    reducers.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
      reducers.emplace_back([this] { reduce_worker(); });
    }
    reduce_worker();
    for (auto& t : reducers) t.join();
    for (auto& t : threads) t.join();

    float loss_sum = 0.0f;
    for (const float loss : losses_) loss_sum += loss;
    // The threads are joined, but the guarded fields keep their contract:
    // take the lock rather than waive the analysis.
    core::MutexLock lock(mu_);
    result_.mean_loss = loss_sum / static_cast<float>(n_replicas_);
    return result_;
  }

 private:
  // Replica r delivered parameter p's final gradient. The release half of
  // the fetch_sub publishes the gradient writes; the acq_rel RMW chain hands
  // every replica's writes to whichever thread delivers the bucket's last
  // gradient, and the mutex hands them on to the reducer.
  void signal(std::size_t p) LEGW_EXCLUDES(mu_) {
    const std::size_t b = bucket_of_[p];
    if (pending_[b].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      core::MutexLock lock(mu_);
      ready_.push_back(b);
      cv_.notify_one();
    }
  }

  void replica_body(int r) LEGW_EXCLUDES(mu_) {
    obs::Span span("replica_backward");
    if (config_.zero_grads) {
      for (std::size_t p = 0; p < n_params_; ++p) {
        grads_[static_cast<std::size_t>(r)][p]->zero_();
      }
    }
    std::vector<char> fired(n_params_, 0);
    ag::BackwardHooks hooks;
    hooks.on_leaf_grad_ready = [&](ag::Node& leaf) {
      const auto it = index_of_[static_cast<std::size_t>(r)].find(&leaf);
      if (it == index_of_[static_cast<std::size_t>(r)].end()) return;
      if (fired[it->second]) return;
      fired[it->second] = 1;
      signal(it->second);
    };
    ag::Variable loss = loss_fn_(r);
    losses_[static_cast<std::size_t>(r)] = loss.value()[0];
    ag::backward(loss, nullptr, hooks);
    // Parameters the graph never reached keep their (zeroed or accumulated)
    // gradient as-is — that IS their final value, so deliver it.
    for (std::size_t p = 0; p < n_params_; ++p) {
      if (!fired[p]) signal(p);
    }
  }

  // Reduce worker: claim completed buckets in completion order until every
  // bucket is claimed. Values cannot depend on claim order or worker count
  // because buckets are disjoint and each bucket reduces parameter by
  // parameter in replica-index order.
  void reduce_worker() LEGW_EXCLUDES(mu_) {
    std::vector<core::Tensor*> shards(static_cast<std::size_t>(n_replicas_));
    while (true) {
      std::size_t b = 0;
      {
        core::MutexLock lock(mu_);
        if (ready_.empty() && claimed_ < n_buckets_) {
          const auto t0 = std::chrono::steady_clock::now();
          {
            obs::Span idle_span("overlap_idle");
            while (ready_.empty() && claimed_ < n_buckets_) cv_.wait(mu_);
          }
          result_.stats.idle_ns +=
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
        }
        if (ready_.empty()) return;  // every bucket claimed
        b = ready_.front();
        ready_.pop_front();
        ++claimed_;
        if (claimed_ == n_buckets_) cv_.notify_all();
      }
      // Reduce outside the lock so replica threads keep signalling and other
      // workers keep claiming. The algorithm resolves once per bucket from
      // its fp32 payload; the wire sleep models that algorithm's critical
      // path at the configured format's width.
      i64 payload = 0;
      for (std::size_t p : buckets_[b]) {
        payload += replica_params_[0][p].numel() *
                   static_cast<i64>(sizeof(float));
      }
      const DistAlgo resolved =
          choose_algorithm(config_.algo, payload, n_replicas_);
      i64 wire_bytes = 0;
      double wire_us = 0.0;
      {
        obs::Span span("bucket_reduce");
        obs::Span algo_span(resolved == DistAlgo::kRing
                                ? "bucket_reduce.ring"
                                : (resolved == DistAlgo::kHier
                                       ? "bucket_reduce.hier"
                                       : "bucket_reduce.tree"));
        for (std::size_t p : buckets_[b]) {
          for (std::size_t r = 0; r < shards.size(); ++r) {
            shards[r] = grads_[r][p];
          }
          quantize_contributions(shards, config_.wire_format,
                                 config_.wire_state, p);
          allreduce_mean(shards, resolved);
          quantize_broadcast(shards, config_.wire_format);
          wire_bytes += allreduce_wire_bytes(n_replicas_, shards[0]->numel(),
                                             config_.wire_format);
        }
        wire_us = config_.wire.allreduce_us(resolved, n_replicas_, payload,
                                            config_.wire_format);
        sleep_us(wire_us);
      }
      core::count("bucket_reduce", 1);
      core::count("dist.wire_bytes", wire_bytes);
      {
        core::MutexLock lock(mu_);
        ++result_.stats.buckets_reduced;
        result_.stats.wire_bytes += wire_bytes;
        result_.stats.wire_us += wire_us;
        switch (resolved) {
          case DistAlgo::kRing: ++result_.stats.buckets_ring; break;
          case DistAlgo::kHier: ++result_.stats.buckets_hier; break;
          default: ++result_.stats.buckets_tree; break;
        }
      }
    }
  }

  const std::vector<std::vector<ag::Variable>>& replica_params_;
  const std::function<ag::Variable(int replica)>& loss_fn_;
  const OverlapConfig& config_;
  int n_replicas_ = 0;
  std::size_t n_params_ = 0;
  std::size_t n_buckets_ = 0;

  // Fixed before any thread starts; read-only afterwards.
  std::vector<std::vector<std::size_t>> buckets_;
  std::vector<std::size_t> bucket_of_;
  std::vector<std::vector<core::Tensor*>> grads_;
  std::vector<std::unordered_map<ag::Node*, std::size_t>> index_of_;

  // Lock-free delivery counters (release/acquire pairs publish gradients).
  std::unique_ptr<std::atomic<int>[]> pending_;

  // Per-replica slots written only by that replica's thread, read after
  // join.
  std::vector<float> losses_;

  core::Mutex mu_;
  core::CondVar cv_;
  std::deque<std::size_t> ready_ LEGW_GUARDED_BY(mu_);  // completion order
  std::size_t claimed_ LEGW_GUARDED_BY(mu_) = 0;  // buckets taken by workers
  // Shared between reduce workers (stats) and the finaliser; the pre-thread
  // constructor fills n_buckets before any worker exists.
  OverlapResult result_ LEGW_GUARDED_BY(mu_);
};

}  // namespace

OverlapResult overlapped_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn,
    const OverlapConfig& config) {
  OverlapEngine engine(replica_params, loss_fn, config);
  return engine.run();
}

OverlapResult replica_backward_ex(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn,
    const ReplicaStepOptions& options) {
  OverlapConfig config = default_overlap_config();
  config.wire_state = options.wire_state;
  return overlapped_backward(replica_params, loss_fn, config);
}

float replica_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn) {
  return replica_backward_ex(replica_params, loss_fn, ReplicaStepOptions{})
      .mean_loss;
}

i64 first_divergent_param(
    const std::vector<std::vector<ag::Variable>>& replica_params) {
  LEGW_CHECK(!replica_params.empty(), "first_divergent_param: no replicas");
  const auto& ref = replica_params[0];
  for (std::size_t p = 0; p < ref.size(); ++p) {
    const core::Tensor& base = ref[p].value();
    for (std::size_t r = 1; r < replica_params.size(); ++r) {
      const core::Tensor& other = replica_params[r][p].value();
      if (!base.same_shape(other)) return static_cast<i64>(p);
      for (i64 i = 0; i < base.numel(); ++i) {
        if (base[i] != other[i]) return static_cast<i64>(p);
      }
    }
  }
  return -1;
}

}  // namespace legw::dist
