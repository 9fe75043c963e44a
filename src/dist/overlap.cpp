#include "dist/overlap.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "core/counters.hpp"
#include "core/flags.hpp"
#include "core/mutex.hpp"
#include "core/rng.hpp"
#include "dist/algorithms.hpp"
#include "dist/compression.hpp"
#include "obs/trace.hpp"

namespace legw::dist {

FaultPlan FaultPlan::stragglers(u64 seed, int n_replicas, int count,
                                double delay_ms) {
  LEGW_CHECK(count >= 0 && count <= n_replicas,
             "FaultPlan::stragglers: count out of range");
  core::Rng rng(seed);
  std::vector<int> pool(static_cast<std::size_t>(n_replicas));
  std::iota(pool.begin(), pool.end(), 0);
  FaultPlan plan;
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.uniform_int(
                       static_cast<u64>(n_replicas - i)));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    plan.faults.push_back(
        {pool[static_cast<std::size_t>(i)], Kind::kSlow, delay_ms});
  }
  std::sort(plan.faults.begin(), plan.faults.end(),
            [](const Fault& a, const Fault& b) { return a.replica < b.replica; });
  return plan;
}

FaultPlan FaultPlan::dead_replica(int replica) {
  FaultPlan plan;
  plan.faults.push_back({replica, Kind::kDead, 0.0});
  return plan;
}

bool FaultPlan::is_dead(int replica) const {
  for (const Fault& f : faults) {
    if (f.replica == replica && f.kind == Kind::kDead) return true;
  }
  return false;
}

double FaultPlan::delay_ms_for(int replica) const {
  double total = 0.0;
  for (const Fault& f : faults) {
    if (f.replica == replica && f.kind == Kind::kSlow) total += f.delay_ms;
  }
  return total;
}

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

std::string join_ints(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

}  // namespace

namespace {

// The overlap engine's shared state, annotated so Clang TSA proves the
// comm-thread protocol at compile time: replica threads deliver gradients
// (signal -> try_enqueue under mu_), the reducer claims completed buckets
// from ready_, and the timeout machinery mutates the exclusion set — all of
// it behind one mutex whose protocol used to live in a comment.
class OverlapEngine {
 public:
  OverlapEngine(const std::vector<std::vector<ag::Variable>>& replica_params,
                const std::function<ag::Variable(int replica)>& loss_fn,
                const OverlapConfig& config)
      : replica_params_(replica_params), loss_fn_(loss_fn), config_(config) {
    n_replicas_ = static_cast<int>(replica_params_.size());
    LEGW_CHECK(n_replicas_ >= 1, "overlapped_backward: need >= 1 replica");
    LEGW_CHECK(config_.replica_ids == nullptr ||
                   config_.replica_ids->size() ==
                       static_cast<std::size_t>(n_replicas_),
               "overlapped_backward: replica_ids must align with replicas");
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

    // Injected dead replicas are recorded but NOT pre-excluded: the engine
    // must *detect* them through the timeout machinery, exactly as it would
    // a genuinely hung node. They only leave the reduction once a timeout
    // episode names them as blockers (or fail-fast aborts the step).
    excluded_.assign(static_cast<std::size_t>(n_replicas_), 0);
    if (config_.faults != nullptr) {
      for (int r = 0; r < n_replicas_; ++r) {
        if (config_.faults->is_dead(global_id(r))) {
          result_.stats.dead_replicas.push_back(global_id(r));
        }
      }
    }
    const bool any_dead = !result_.stats.dead_replicas.empty();
    LEGW_CHECK(!any_dead || config_.bucket_timeout_ms > 0,
               "overlapped_backward: a fault plan with dead replicas requires "
               "bucket_timeout_ms > 0");
    LEGW_CHECK(result_.stats.dead_replicas.size() <
                   static_cast<std::size_t>(n_replicas_),
               "overlapped_backward: every replica is dead");

    pending_ = std::make_unique<std::atomic<int>[]>(
        n_buckets_ * static_cast<std::size_t>(n_replicas_));
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      for (int r = 0; r < n_replicas_; ++r) {
        bucket_pending(b, r).store(static_cast<int>(buckets_[b].size()),
                                   std::memory_order_relaxed);
      }
    }

    enqueued_.assign(n_buckets_, 0);
    losses_.assign(static_cast<std::size_t>(n_replicas_), 0.0f);
    ran_.assign(static_cast<std::size_t>(n_replicas_), 0);
  }

  OverlapResult run() {
    // Replicas model independent cluster nodes and the reducers model the
    // NIC-side communication engine; both run full graph passes that
    // internally submit to the ThreadPool, so neither can be a pool task.
    // lint-allow: raw-thread
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_replicas_));
    for (int r = 0; r < n_replicas_; ++r) {
      if (config_.faults != nullptr && config_.faults->is_dead(global_id(r))) {
        continue;
      }
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
    int loss_count = 0;
    for (int r = 0; r < n_replicas_; ++r) {
      if (ran_[static_cast<std::size_t>(r)]) {
        loss_sum += losses_[static_cast<std::size_t>(r)];
        ++loss_count;
      }
    }
    // The threads are joined, but the guarded fields keep their contract:
    // take the lock rather than waive the analysis.
    core::MutexLock lock(mu_);
    result_.mean_loss =
        loss_count > 0 ? loss_sum / static_cast<float>(loss_count) : 0.0f;
    result_.ok = !failed_;
    result_.error = error_;
    return result_;
  }

 private:
  // Engine index -> global replica id (identity without replica_ids). Fault
  // plans and error-feedback residuals are keyed by global ids so an elastic
  // run over a participant subset composes with both.
  int global_id(int r) const {
    return config_.replica_ids != nullptr
               ? (*config_.replica_ids)[static_cast<std::size_t>(r)]
               : r;
  }

  std::atomic<int>& bucket_pending(std::size_t b, int r) {
    // pending_[b * n_replicas + r]: gradients replica r still owes bucket b.
    return pending_[b * static_cast<std::size_t>(n_replicas_) +
                    static_cast<std::size_t>(r)];
  }

  // Enqueues b if every non-excluded replica has delivered all of b's
  // gradients and b was not already claimed.
  void try_enqueue(std::size_t b) LEGW_REQUIRES(mu_) {
    if (enqueued_[b]) return;
    for (int r = 0; r < n_replicas_; ++r) {
      if (excluded_[static_cast<std::size_t>(r)]) continue;
      if (bucket_pending(b, r).load(std::memory_order_acquire) != 0) return;
    }
    enqueued_[b] = 1;
    ready_.push_back(b);
    cv_.notify_one();
  }

  // Replica r delivered parameter p's final gradient. The release half of
  // the fetch_sub publishes the gradient writes; the reducer's acquire load
  // of pending (and the RMW release sequence) makes them visible.
  void signal(int r, std::size_t p) LEGW_EXCLUDES(mu_) {
    const std::size_t b = bucket_of_[p];
    if (bucket_pending(b, r).fetch_sub(1, std::memory_order_acq_rel) == 1) {
      core::MutexLock lock(mu_);
      try_enqueue(b);
    }
  }

  void replica_body(int r) LEGW_EXCLUDES(mu_) {
    if (config_.faults != nullptr) {
      const double delay = config_.faults->delay_ms_for(global_id(r));
      if (delay > 0.0) {
        obs::Span span("fault_straggler");
        sleep_us(delay * 1000.0);
      }
    }
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
      signal(r, it->second);
    };
    ag::Variable loss = loss_fn_(r);
    losses_[static_cast<std::size_t>(r)] = loss.value()[0];
    ran_[static_cast<std::size_t>(r)] = 1;
    ag::backward(loss, nullptr, hooks);
    // Parameters the graph never reached keep their (zeroed or accumulated)
    // gradient as-is — that IS their final value, so deliver it.
    for (std::size_t p = 0; p < n_params_; ++p) {
      if (!fired[p]) signal(r, p);
    }
  }

  // Timed out with no completed bucket. The blockers are the replicas still
  // owing gradients on some unclaimed bucket; returns false when the policy
  // says the step cannot continue.
  bool handle_timeout() LEGW_REQUIRES(mu_) {
    ++result_.stats.timeout_episodes;
    std::vector<int> blockers;
    for (int r = 0; r < n_replicas_; ++r) {
      if (excluded_[static_cast<std::size_t>(r)]) continue;
      for (std::size_t b = 0; b < n_buckets_; ++b) {
        if (enqueued_[b]) continue;
        if (bucket_pending(b, r).load(std::memory_order_acquire) != 0) {
          blockers.push_back(r);
          break;
        }
      }
    }
    std::vector<int> blocker_gids;
    blocker_gids.reserve(blockers.size());
    for (int r : blockers) blocker_gids.push_back(global_id(r));
    if (config_.timeout_policy == TimeoutPolicy::kFailFast) {
      failed_ = true;
      error_ = "overlapped_backward: bucket all-reduce timed out after " +
               std::to_string(config_.bucket_timeout_ms) +
               " ms waiting on replica(s) [" + join_ints(blocker_gids) + "]";
      cv_.notify_all();
      return false;
    }
    // Degrade: drop the blockers, then re-scan — buckets that are now
    // complete over the survivors become reducible.
    for (std::size_t i = 0; i < blockers.size(); ++i) {
      excluded_[static_cast<std::size_t>(blockers[i])] = 1;
      result_.stats.excluded_replicas.push_back(blocker_gids[i]);
      core::count("replica_timeout", 1);
    }
    int live = 0;
    for (int r = 0; r < n_replicas_; ++r) {
      if (!excluded_[static_cast<std::size_t>(r)]) ++live;
    }
    if (live == 0) {
      failed_ = true;
      error_ = "overlapped_backward: degraded until no replica survived";
      cv_.notify_all();
      return false;
    }
    for (std::size_t b = 0; b < n_buckets_; ++b) try_enqueue(b);
    return true;
  }

  // Reduce worker: claim completed buckets in completion order until every
  // bucket is claimed or the step fails. Values cannot depend on claim order
  // or worker count because buckets are disjoint and each bucket reduces
  // parameter by parameter in replica-index order.
  void reduce_worker() LEGW_EXCLUDES(mu_) {
    std::vector<int> participants;
    std::vector<int> participant_gids;
    std::vector<core::Tensor*> shards;
    while (true) {
      std::size_t b = 0;
      {
        core::MutexLock lock(mu_);
        while (ready_.empty() && !failed_ && claimed_ < n_buckets_) {
          const auto t0 = std::chrono::steady_clock::now();
          bool got = true;
          {
            obs::Span idle_span("overlap_idle");
            if (config_.bucket_timeout_ms > 0) {
              const auto deadline =
                  t0 + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config_.bucket_timeout_ms));
              while (ready_.empty() && !failed_ && claimed_ < n_buckets_ &&
                     cv_.wait_until(mu_, deadline) !=
                         std::cv_status::timeout) {
              }
              got = !ready_.empty();
            } else {
              while (ready_.empty() && !failed_ && claimed_ < n_buckets_) {
                cv_.wait(mu_);
              }
              got = !ready_.empty();
            }
          }
          result_.stats.idle_ns +=
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          if (got || failed_ || claimed_ == n_buckets_) break;
          if (!handle_timeout()) return;
        }
        if (ready_.empty()) return;  // failed, or every bucket claimed
        b = ready_.front();
        ready_.pop_front();
        ++claimed_;
        if (claimed_ == n_buckets_) cv_.notify_all();
        // Participant set snapshot: every currently-live replica delivered
        // this bucket in full (guaranteed by try_enqueue; exclusion only
        // shrinks the set and excluded replicas never rejoin).
        participants.clear();
        participant_gids.clear();
        for (int r = 0; r < n_replicas_; ++r) {
          if (excluded_[static_cast<std::size_t>(r)]) continue;
          if (bucket_pending(b, r).load(std::memory_order_acquire) == 0) {
            participants.push_back(r);
            participant_gids.push_back(global_id(r));
          }
        }
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
      const int n_parts = static_cast<int>(participants.size());
      const DistAlgo resolved =
          choose_algorithm(config_.algo, payload, n_parts);
      i64 wire_bytes = 0;
      double wire_us = 0.0;
      {
        obs::Span span("bucket_reduce");
        obs::Span algo_span(resolved == DistAlgo::kRing
                                ? "bucket_reduce.ring"
                                : (resolved == DistAlgo::kHier
                                       ? "bucket_reduce.hier"
                                       : "bucket_reduce.tree"));
        shards.resize(participants.size());
        for (std::size_t p : buckets_[b]) {
          for (std::size_t i = 0; i < participants.size(); ++i) {
            shards[i] = grads_[static_cast<std::size_t>(participants[i])][p];
          }
          quantize_contributions(shards, config_.wire_format,
                                 config_.wire_state, &participant_gids, p);
          allreduce_mean(shards, resolved);
          quantize_broadcast(shards, config_.wire_format);
          wire_bytes += shards.empty()
                            ? 0
                            : allreduce_wire_bytes(n_parts, shards[0]->numel(),
                                                   config_.wire_format);
        }
        wire_us = config_.wire.allreduce_us(resolved, n_parts, payload,
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
  std::vector<char> ran_;

  core::Mutex mu_;
  core::CondVar cv_;
  std::deque<std::size_t> ready_ LEGW_GUARDED_BY(mu_);  // completion order
  std::vector<char> enqueued_ LEGW_GUARDED_BY(mu_);
  std::vector<char> excluded_ LEGW_GUARDED_BY(mu_);
  std::size_t claimed_ LEGW_GUARDED_BY(mu_) = 0;  // buckets taken by workers
  bool failed_ LEGW_GUARDED_BY(mu_) = false;
  std::string error_ LEGW_GUARDED_BY(mu_);
  // Shared between reduce workers (stats) and the finaliser; the pre-thread
  // constructor fills n_buckets/dead_replicas before any worker exists.
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
  config.faults = options.faults;
  config.replica_ids = options.replica_ids;
  config.bucket_timeout_ms = options.bucket_timeout_ms;
  config.timeout_policy = options.timeout_policy;
  return overlapped_backward(replica_params, loss_fn, config);
}

float replica_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn) {
  const OverlapResult res =
      replica_backward_ex(replica_params, loss_fn, ReplicaStepOptions{});
  LEGW_CHECK(res.ok, "replica_backward: " + res.error);
  return res.mean_loss;
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
