#include "service/shard_router.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "rle/serialize.hpp"
#include "telemetry/flight_recorder.hpp"

namespace sysrle {

namespace {

/// Ring points per shard; more = smoother key spread.
constexpr std::size_t kVirtualNodes = 32;

/// Router-level (unrouted) flight context for a client request: events at
/// admission/response granularity, before/after any shard placement.
RequestContext client_ctx(std::uint64_t request_id) {
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = request_id;
  return ctx;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// The route key of an operand fingerprint pair, so re-submissions of the
/// same pair land on the same shard.
std::uint64_t pair_route_key(std::uint64_t fp_ref, std::uint64_t fp_scan) {
  return mix64(fp_ref ^ mix64(fp_scan));
}

/// An operand's canonical fingerprint: the handle of a by-handle operand
/// (the handle IS the canonical fingerprint), else the hash of its image.
/// By-value and by-handle requests for one pair therefore share one
/// result-table key and one shard.
std::uint64_t fingerprint_of(const SharedImage& operand, ImageHandle handle) {
  if (handle != 0) return handle;
  return operand.pinned() ? operand.fingerprint()
                          : canonical_fingerprint(operand.image());
}

/// Resolves one operand in place: a non-zero `handle` becomes the store's
/// pinned parse, a by-value image gets its canonical fingerprint when
/// `hash`.  False: the handle is not resident.
bool resolve(SharedImage& operand, ImageHandle handle, ImageStore* store,
             bool hash) {
  if (handle != 0) {
    operand = store ? store->acquire(handle) : SharedImage{};
    return static_cast<bool>(operand);
  }
  if (hash && !operand.pinned())
    operand = SharedImage(operand.share(),
                          canonical_fingerprint(operand.image()));
  return true;
}

}  // namespace

ShardRouter::ShardRouter(RouterConfig config, Completion on_complete)
    : config_(config),
      on_complete_(std::move(on_complete)),
      epoch_(std::chrono::steady_clock::now()),
      results_(config_.cache ? config_.cache
                             : std::make_shared<ResultCache>()) {
  SYSRLE_REQUIRE(config_.shards >= 1, "ShardRouter: need at least one shard");
  SYSRLE_REQUIRE(config_.replicas >= 1,
                 "ShardRouter: need at least one replica per shard");

  sets_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    ReplicaSetConfig rsc;
    rsc.replicas = config_.replicas;
    rsc.service = config_.replica_service;
    rsc.breaker = config_.replica_breaker;
    sets_.push_back(std::make_unique<ReplicaSet>(
        s, rsc, [this, s](std::size_t r) -> DiffService::Completion {
          return [this, s, r](ServiceResponse resp) {
            on_replica_response(s, r, std::move(resp));
          };
        }));
  }

  ring_.reserve(config_.shards * kVirtualNodes);
  for (std::size_t s = 0; s < config_.shards; ++s)
    for (std::size_t v = 0; v < kVirtualNodes; ++v)
      ring_.emplace_back(
          mix64(config_.seed ^ mix64(s * kVirtualNodes + v + 1)), s);
  std::sort(ring_.begin(), ring_.end());
}

ShardRouter::~ShardRouter() { drain(); }

std::uint64_t ShardRouter::now_us() const {
  return static_cast<std::uint64_t>(
      us_between(epoch_, std::chrono::steady_clock::now()));
}

std::uint64_t ShardRouter::route_key_of(const ServiceRequest& request) {
  if (request.route_key != 0) return request.route_key;
  return pair_route_key(fingerprint_of(request.reference, request.ref_handle),
                        fingerprint_of(request.scan, request.scan_handle));
}

std::size_t ShardRouter::shard_of(std::uint64_t key) const {
  const std::uint64_t point = mix64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::optional<RejectReason> ShardRouter::try_submit(ServiceRequest request) {
  // Resolve each operand before taking the lock, so concurrent submitters
  // never queue behind hashing or the store.  A handle pins the store's
  // parse for the request's whole lifetime (the pin blocks eviction until
  // the last dispatch copy dies); a by-value image is hashed once.  Hooked
  // requests with an explicit route key never share a result, so they
  // skip the hash.
  const bool hooked = request.fault || request.engine_override;
  const bool hash = !hooked || request.route_key == 0;
  ImageStore* store = config_.store.get();
  const bool ref_resolved =
      resolve(request.reference, request.ref_handle, store, hash);
  const bool resolved =
      resolve(request.scan, request.scan_handle, store, hash) && ref_resolved;
  SYSRLE_REQUIRE(!resolved || request.same_size(),
                 "ShardRouter: request image dimensions differ");
  std::vector<Delivery> deliveries;
  std::optional<RejectReason> result;
  {
    std::lock_guard<std::mutex> lk(mu_);
    result = submit_locked(std::move(request), !resolved, deliveries);
  }
  deliver(deliveries);
  return result;
}

std::optional<RejectReason> ShardRouter::submit_locked(
    ServiceRequest request, bool unknown_handle, std::vector<Delivery>& out) {
  ++stats_.offered;
  const RequestContext cctx = client_ctx(request.id);

  std::optional<RejectReason> shed;
  if (draining_) {
    ++stats_.shed_shutdown;
    shed = RejectReason::kShutdown;
  } else if (request.deadline.expired()) {
    ++stats_.shed_deadline_at_submit;
    shed = RejectReason::kDeadlineExpired;
  } else if (unknown_handle) {
    // Typed shed: the operand was never registered (or already evicted).
    // The caller re-registers and re-submits; nothing is silently dropped.
    ++stats_.shed_unknown_handle;
    shed = RejectReason::kUnknownHandle;
  }
  if (shed) {
    flight_record(FlightEventKind::kShed, cctx, to_string(*shed));
    flight_retain(cctx.request_id, "shed");
    return shed;
  }

  // Requests carrying per-request behaviour hooks (fault injection, engine
  // overrides) never share a computation or a result.
  const bool hooked = request.fault || request.engine_override;
  const ResultKey result_key =
      ResultKey::of(request.reference.fingerprint(),
                    request.scan.fingerprint(), request.options);
  const std::uint64_t key =
      request.route_key != 0
          ? request.route_key
          : pair_route_key(result_key.fp_a, result_key.fp_b);

  bool registered = false;
  if (!hooked) {
    // Only results of two store operands stay resident: their key is the
    // verified store fingerprint pair, so a hit is answerable without
    // re-hashing anything.
    const bool cacheable = config_.cache != nullptr &&
                           request.reference.pinned() &&
                           request.scan.pinned();
    const ResultCache::Admission admission =
        results_->admit(result_key, request.reference.share(),
                        request.scan.share(), next_call_id_, cacheable);
    using Kind = ResultCache::Admission::Kind;
    if (cacheable && admission.kind != Kind::kHit)
      flight_record(FlightEventKind::kCacheMiss, cctx, "", result_key.fp_a);
    switch (admission.kind) {
      case Kind::kHit: {
        // Bit-identical replay of the original completion; no engine, no
        // queue, no dispatch.  Delivered outside the lock like every other
        // response.
        ++stats_.admitted;
        ++stats_.completed;
        flight_record(FlightEventKind::kAdmit, cctx, "cache");
        flight_record(FlightEventKind::kCacheHit, cctx, "", result_key.fp_a);
        ServiceResponse resp;
        resp.id = request.id;
        resp.priority = request.priority;
        resp.status = ServiceResponse::Status::kCompleted;
        resp.from_cache = true;
        if (request.keep_diff) resp.diff = admission.result->diff;
        resp.rows_processed = admission.result->rows_processed;
        resp.fallback_rows = admission.result->fallback_rows;
        flight_record(FlightEventKind::kRespond, cctx, to_string(resp.status));
        out.push_back({std::move(resp)});
        return std::nullopt;
      }
      case Kind::kJoined: {
        auto owner = calls_.find(admission.owner);
        SYSRLE_REQUIRE(owner != calls_.end(),
                       "ShardRouter: result-table owner is not a live call");
        flight_record(FlightEventKind::kAdmit, cctx, "coalesced");
        flight_record(FlightEventKind::kCoalesceJoined, cctx, "",
                      owner->second->request.id);
        owner->second->waiters.push_back(
            {std::move(request), std::chrono::steady_clock::now()});
        ++stats_.coalesced;
        ++stats_.admitted;
        return std::nullopt;
      }
      case Kind::kOwner:
        registered = true;
        break;
      case Kind::kCollision:
        // Runs unregistered: it must never complete a key another
        // computation owns.
        ++stats_.coalesce_collisions;
        break;
      case Kind::kBypass:
        break;
    }
  }

  auto call = std::make_shared<Call>();
  call->call_id = next_call_id_++;  // the id admit() registered above
  call->request = std::move(request);
  call->accepted = std::chrono::steady_clock::now();
  call->key = key;
  call->home_shard = shard_of(key);
  call->registered = registered;
  call->result_key = result_key;

  shed = dispatch_locked(call);
  if (shed) {
    if (call->registered) results_->release(call->result_key, call->call_id);
    if (*shed == RejectReason::kShardDown)
      ++stats_.shed_shard_down;
    else
      ++stats_.shed_shutdown;
    flight_record(FlightEventKind::kShed, cctx, to_string(*shed));
    flight_retain(cctx.request_id, "shed");
    return shed;
  }
  ++stats_.admitted;
  flight_record(FlightEventKind::kAdmit, cctx, "primary");
  calls_.emplace(call->call_id, call);
  return std::nullopt;
}

std::optional<RejectReason> ShardRouter::dispatch_locked(
    const std::shared_ptr<Call>& call) {
  const bool interactive = call->request.priority == Priority::kInteractive;
  bool crossed_shard = false;

  // Shard order: home first, then — interactive only — the rest of the
  // ring.  Batch work is keyed to its shard (its handles, its cache
  // locality); when the whole shard is down it sheds typed instead of
  // spilling onto healthy shards that interactive traffic needs.
  for (std::size_t hop = 0; hop < sets_.size(); ++hop) {
    if (hop > 0 && !interactive) break;
    const std::size_t shard = (call->home_shard + hop) % sets_.size();
    ReplicaSet& set = *sets_[shard];
    const std::vector<std::size_t> order = set.preference(call->key);

    // Each failed submission records a breaker failure, so this loop
    // terminates: every iteration moves some breaker toward open.
    std::size_t attempts = 0;
    const std::size_t max_attempts =
        set.size() *
        (static_cast<std::size_t>(config_.replica_breaker.failure_threshold) +
         2);
    while (attempts++ < max_attempts) {
      const std::optional<std::size_t> r = set.pick(call->key, now_us());
      if (!r) break;
      if (submit_to_replica_locked(call, shard, *r)) {
        if (*r != order.front()) {
          ++stats_.failovers;
          flight_record(FlightEventKind::kFailover, call->dispatch_ctx,
                        hop > 0 ? "cross_shard" : "in_shard");
        }
        if (crossed_shard || hop > 0) ++stats_.cross_shard_failovers;
        return std::nullopt;
      }
    }
    crossed_shard = true;
  }
  return RejectReason::kShardDown;
}

bool ShardRouter::submit_to_replica_locked(const std::shared_ptr<Call>& call,
                                           std::size_t shard,
                                           std::size_t replica) {
  ServiceRequest backend = call->request;  // shares the operands
  backend.id = call->call_id;
  // A registered call's diff may serve waiters that asked for it, or stay
  // resident; each delivery drops it when its own request did not.
  backend.keep_diff = call->request.keep_diff || call->registered;

  // Observability identity: client request id (stable across failover and
  // promotion), this dispatch's ordinal, and where it landed.
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = call->request.id;
  ctx.attempt = call->dispatch_count++;
  ctx.shard = static_cast<std::int32_t>(shard);
  ctx.replica = static_cast<std::int32_t>(replica);
  backend.ctx = ctx;

  const std::shared_ptr<DiffService> service =
      sets_[shard]->replica(replica);
  const std::optional<RejectReason> reason =
      service->try_submit(std::move(backend));
  if (reason) {
    // A shed — queue_full or shutdown (killed replica) — is the
    // router-level health signal: it counts as a replica failure so a
    // replica that keeps shedding gets quarantined.
    const BreakerState before = sets_[shard]->breaker_state(replica);
    const BreakerState after = sets_[shard]->record_failure(replica, now_us());
    if (before != BreakerState::kOpen && after == BreakerState::kOpen) {
      flight_record(FlightEventKind::kBreakerTrip, ctx, to_string(*reason));
      flight_retain(ctx.request_id, "breaker_trip");
    }
    return false;
  }
  flight_record(FlightEventKind::kDispatch, ctx, "primary", call->call_id);
  call->dispatch_ctx = ctx;
  return true;
}

void ShardRouter::on_replica_response(std::size_t shard, std::size_t replica,
                                      ServiceResponse response) {
  std::vector<Delivery> deliveries;
  {
    std::unique_lock<std::mutex> lk(mu_);
    auto it = calls_.find(response.id);
    SYSRLE_REQUIRE(it != calls_.end(),
                   "ShardRouter: response for unknown call");
    const std::shared_ptr<Call> call = it->second;  // finishing erases it

    // Router-level breaker accounting for the replica that served it.  A
    // deadline expiry says nothing about replica health; release the probe
    // slot pick() may have taken.
    switch (response.status) {
      case ServiceResponse::Status::kCompleted:
        sets_[shard]->record_success(replica, now_us());
        break;
      case ServiceResponse::Status::kFailed: {
        const BreakerState before = sets_[shard]->breaker_state(replica);
        const BreakerState after =
            sets_[shard]->record_failure(replica, now_us());
        if (before != BreakerState::kOpen && after == BreakerState::kOpen) {
          flight_record(FlightEventKind::kBreakerTrip, call->dispatch_ctx,
                        "replica_failed");
          flight_retain(call->dispatch_ctx.request_id, "breaker_trip");
        }
        break;
      }
      case ServiceResponse::Status::kRejected:
        sets_[shard]->release_probe(replica);
        break;
    }
    finish_call_locked(call, std::move(response), deliveries);
  }
  deliver(deliveries);
}

void ShardRouter::finish_call_locked(const std::shared_ptr<Call>& call,
                                     ServiceResponse result,
                                     std::vector<Delivery>& out) {
  calls_.erase(call->call_id);

  // The payload goes only to deliveries whose own request kept its diff.
  const RleImage payload = std::exchange(result.diff, RleImage{0, 0});

  // The client's one response.
  ServiceResponse client = result;
  client.id = call->request.id;
  client.priority = call->request.priority;
  client.total_us =
      us_between(call->accepted, std::chrono::steady_clock::now());
  if (call->request.keep_diff) client.diff = payload;
  switch (client.status) {
    case ServiceResponse::Status::kCompleted:
      ++stats_.completed;
      break;
    case ServiceResponse::Status::kFailed:
      ++stats_.failed;
      break;
    case ServiceResponse::Status::kRejected:
      ++stats_.rejected;
      break;
  }
  flight_record(FlightEventKind::kRespond, client_ctx(client.id),
                to_string(client.status),
                static_cast<std::uint64_t>(client.total_us));
  out.push_back({std::move(client)});

  // Waiters.  A completed or failed outcome propagates typed to every
  // waiter (bit-identical response copy for completions).  A rejected
  // outcome (the primary's deadline expired or it was shed mid-flight)
  // promotes the first waiter whose own deadline still holds into a fresh
  // primary — the computation is still wanted, just not by the original
  // requester.
  std::vector<Waiter> waiters = std::move(call->waiters);
  call->waiters.clear();
  const bool propagate =
      result.status != ServiceResponse::Status::kRejected;
  const auto now = std::chrono::steady_clock::now();

  std::size_t w = 0;
  std::uint64_t promoted_to = 0;  // the promoted waiter's call id, if any
  if (propagate) {
    for (; w < waiters.size(); ++w) {
      Waiter& waiter = waiters[w];
      ServiceResponse wr;
      if (waiter.request.deadline.expired()) {
        // The waiter's own (shorter) deadline lapsed while the primary ran.
        wr.status = ServiceResponse::Status::kRejected;
        wr.reject_reason = RejectReason::kDeadlineExpired;
        ++stats_.waiter_deadline_sheds;
        ++stats_.rejected;
        flight_record(FlightEventKind::kDeadlineExpired,
                      client_ctx(waiter.request.id), "waiter");
        flight_retain(waiter.request.id, "deadline_expired");
      } else {
        wr = result;
        if (waiter.request.keep_diff) wr.diff = payload;  // the primary's bytes
        switch (wr.status) {
          case ServiceResponse::Status::kCompleted:
            ++stats_.completed;
            break;
          case ServiceResponse::Status::kFailed:
            ++stats_.failed;
            break;
          case ServiceResponse::Status::kRejected:
            ++stats_.rejected;
            break;
        }
      }
      wr.id = waiter.request.id;
      wr.priority = waiter.request.priority;
      wr.queue_us = 0.0;
      wr.total_us = us_between(waiter.arrived, now);
      flight_record(FlightEventKind::kRespond, client_ctx(wr.id),
                    to_string(wr.status),
                    static_cast<std::uint64_t>(wr.total_us));
      out.push_back({std::move(wr)});
    }
  } else {
    for (; w < waiters.size(); ++w) {
      Waiter& waiter = waiters[w];
      if (waiter.request.deadline.expired()) {
        ServiceResponse wr;
        wr.status = ServiceResponse::Status::kRejected;
        wr.reject_reason = RejectReason::kDeadlineExpired;
        wr.id = waiter.request.id;
        wr.priority = waiter.request.priority;
        wr.total_us = us_between(waiter.arrived, now);
        ++stats_.waiter_deadline_sheds;
        ++stats_.rejected;
        flight_record(FlightEventKind::kDeadlineExpired,
                      client_ctx(wr.id), "waiter");
        flight_retain(wr.id, "deadline_expired");
        flight_record(FlightEventKind::kRespond, client_ctx(wr.id),
                      to_string(wr.status),
                      static_cast<std::uint64_t>(wr.total_us));
        out.push_back({std::move(wr)});
        continue;
      }
      // Promote: this waiter becomes the new primary of the same key.
      auto next = std::make_shared<Call>();
      next->call_id = next_call_id_++;
      next->request = std::move(waiter.request);
      next->accepted = waiter.arrived;
      next->key = call->key;
      next->home_shard = call->home_shard;
      next->registered = call->registered;
      next->result_key = call->result_key;
      const std::optional<RejectReason> reason = dispatch_locked(next);
      if (reason) {
        // Nowhere to run it: the waiter was admitted, so it gets a typed
        // response (shard_down / shutdown), never silence.
        ServiceResponse wr;
        wr.status = ServiceResponse::Status::kRejected;
        wr.reject_reason = *reason;
        wr.id = next->request.id;
        wr.priority = next->request.priority;
        wr.total_us = us_between(waiter.arrived, now);
        ++stats_.rejected;
        flight_record(FlightEventKind::kRespond, client_ctx(wr.id),
                      to_string(wr.status),
                      static_cast<std::uint64_t>(wr.total_us));
        out.push_back({std::move(wr)});
        continue;
      }
      next->waiters.assign(std::make_move_iterator(waiters.begin() + w + 1),
                           std::make_move_iterator(waiters.end()));
      promoted_to = next->call_id;
      calls_.emplace(next->call_id, next);
      ++stats_.coalesce_promotions;
      flight_record(FlightEventKind::kCoalescePromoted,
                    client_ctx(next->request.id), "", call->request.id);
      break;
    }
  }

  // Settle the result-table entry.  A completion stays resident when it was
  // admitted cache-eligible (its operand references are non-pinning shares
  // of the store entries, so caching never blocks store eviction).  A
  // promotion re-owns the pending entry in place, so later duplicates join
  // the new primary and its completion settles the entry as admitted.
  if (call->registered) {
    if (result.status == ServiceResponse::Status::kCompleted) {
      results_->complete(call->result_key, call->call_id, payload,
                         result.rows_processed, result.fallback_rows);
    } else if (promoted_to != 0) {
      results_->reassign(call->result_key, call->call_id, promoted_to);
    } else {
      results_->release(call->result_key, call->call_id);
    }
  }
}

void ShardRouter::deliver(std::vector<Delivery>& deliveries) {
  if (!on_complete_) return;
  for (Delivery& d : deliveries) on_complete_(std::move(d.response));
}

void ShardRouter::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  // Replica drains deliver every outstanding response; those responses
  // resolve every pending call (and its waiters) through
  // on_replica_response, which still runs during drain.
  for (const auto& set : sets_) set->drain();
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

ServiceStats ShardRouter::backend_stats() const {
  ServiceStats total;
  for (const auto& set : sets_) total += set->aggregate_stats();
  return total;
}

BreakerState ShardRouter::replica_breaker_state(std::size_t shard,
                                                std::size_t replica) const {
  return sets_.at(shard)->breaker_state(replica);
}

std::size_t ShardRouter::healthy_replicas() const {
  std::size_t healthy = 0;
  for (const auto& set : sets_)
    for (std::size_t r = 0; r < set->size(); ++r)
      if (set->breaker_state(r) != BreakerState::kOpen) ++healthy;
  return healthy;
}

void ShardRouter::kill_replica(std::size_t shard, std::size_t replica) {
  sets_.at(shard)->kill(replica);
}

void ShardRouter::revive_replica(std::size_t shard, std::size_t replica) {
  sets_.at(shard)->revive(replica);
}

}  // namespace sysrle
