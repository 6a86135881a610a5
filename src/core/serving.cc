#include "core/serving.h"

#include <cmath>
#include <exception>
#include <utility>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace deepst {
namespace core {

namespace {

bool OutsideWithSlack(const geo::BoundingBox& box, const geo::Point& p,
                      double slack_m) {
  return p.x < box.min.x - slack_m || p.x > box.max.x + slack_m ||
         p.y < box.min.y - slack_m || p.y > box.max.y + slack_m;
}

}  // namespace

std::string DegradationsToString(uint8_t degradations) {
  if (degradations == kDegradationNone) return "none";
  std::string out;
  auto append = [&out](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (degradations & kDegradationTrafficPriorMean) append("traffic_prior_mean");
  if (degradations & kDegradationUniformProxy) append("uniform_proxy");
  if (degradations & kDegradationSnappedOrigin) append("snapped_origin");
  if (degradations & kDegradationDeadlineBudget) append("deadline_budget");
  if (degradations & kDegradationOverlayDropped) append("overlay_dropped");
  return out;
}

ServingContext::ServingContext(DeepSTModel* model,
                               const roadnet::SpatialIndex* index,
                               const ServingConfig& config,
                               traffic::SnapshotStore* store)
    : model_(model), index_(index), config_(config), store_(store) {}

traffic::SnapshotPin ServingContext::PinSnapshot(ContextOptions* options,
                                                 ServingResult* result) {
  if (store_ == nullptr) return traffic::SnapshotPin();
  // Admission is the pinning point: from here to the last beam step the
  // query reads this immutable generation, no matter how many swaps land.
  traffic::SnapshotPin pin = store_->Acquire();
  options->traffic_cache = pin.cache();
  result->snapshot_generation = pin.generation();
  return pin;
}

util::Status ServingContext::ResolveQuery(RouteQuery* query,
                                          bool origin_required,
                                          ContextOptions* options,
                                          uint8_t* degradations,
                                          bool* what_if) {
  const roadnet::RoadNetwork& net = model_->network();
  const DeepSTConfig& mc = model_->config();

  // -- Snapshot window ---------------------------------------------------------
  if (!std::isfinite(query->start_time_s) || query->start_time_s < 0.0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "start_time_s %f is not a sane snapshot time", query->start_time_s));
  }

  // -- Origin ------------------------------------------------------------------
  if (query->origin == roadnet::kInvalidSegment && query->has_origin_point) {
    if (!std::isfinite(query->origin_point.x) ||
        !std::isfinite(query->origin_point.y)) {
      return util::Status::InvalidArgument("origin point is not finite");
    }
    if (config_.strict) {
      return util::Status::FailedPrecondition(
          "origin is not a network segment; strict mode refuses to snap");
    }
    const roadnet::SegmentCandidate snap = index_->Nearest(query->origin_point);
    if (snap.segment == roadnet::kInvalidSegment ||
        snap.projection.distance > config_.origin_snap_radius_m) {
      return util::Status::NotFound(util::StrFormat(
          "no segment within %.0f m of origin point (%.1f, %.1f)",
          config_.origin_snap_radius_m, query->origin_point.x,
          query->origin_point.y));
    }
    query->origin = snap.segment;
    *degradations |= kDegradationSnappedOrigin;
  }
  if (origin_required &&
      (query->origin < 0 || query->origin >= net.num_segments())) {
    return util::Status::InvalidArgument(util::StrFormat(
        "origin segment %d out of range (network has %d segments)",
        static_cast<int>(query->origin), net.num_segments()));
  }

  // -- Destination -------------------------------------------------------------
  if (mc.destination_mode == DestinationMode::kProxies) {
    if (!std::isfinite(query->destination.x) ||
        !std::isfinite(query->destination.y)) {
      return util::Status::InvalidArgument("destination is not finite");
    }
    if (OutsideWithSlack(net.bounds(), query->destination,
                         config_.bounds_slack_m)) {
      if (config_.strict) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "destination (%.1f, %.1f) outside the network; strict mode "
            "refuses the uniform-proxy fallback",
            query->destination.x, query->destination.y));
      }
      options->uniform_proxy = true;
      *degradations |= kDegradationUniformProxy;
    }
  } else if (mc.destination_mode == DestinationMode::kFinalSegment) {
    if (query->final_segment < 0 ||
        query->final_segment >= net.num_segments()) {
      return util::Status::InvalidArgument(util::StrFormat(
          "final_segment %d out of range (kFinalSegment mode requires a "
          "valid final segment)",
          static_cast<int>(query->final_segment)));
    }
  }

  // -- Traffic snapshot --------------------------------------------------------
  if (mc.use_traffic) {
    // Staleness is judged against the generation the query pinned at
    // admission, not whatever the store publishes mid-query.
    traffic::TrafficTensorCache* cache = options->traffic_cache != nullptr
                                             ? options->traffic_cache
                                             : model_->traffic_cache();
    const bool missing = !cache->HasObservations(query->start_time_s);
    const bool stale =
        query->start_time_s - cache->latest_observation_time() >
        config_.max_snapshot_age_s;
    if (missing || stale) {
      if (config_.strict) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "traffic snapshot %s for t=%.0f; strict mode refuses the "
            "prior-mean fallback",
            missing ? "missing" : "stale", query->start_time_s));
      }
      options->traffic_prior_mean = true;
      *degradations |= kDegradationTrafficPriorMean;
    }
  }

  // -- What-if overlay ---------------------------------------------------------
  if (!query->overlay.empty()) {
    if (!mc.use_traffic) {
      return util::Status::InvalidArgument(
          "what-if overlay requested on a model variant without traffic "
          "conditioning");
    }
    DEEPST_RETURN_IF_ERROR(traffic::ValidateOverlay(query->overlay));
    if (options->traffic_prior_mean) {
      // The prior-mean fallback already fired (under strict it refused
      // above, so an overlay can never mask a real degradation): there is
      // no observed tensor to edit. Serve reality under the prior and say
      // so, rather than pretending the scenario applied.
      *degradations |= kDegradationOverlayDropped;
    } else {
      options->overlay = &query->overlay;
      if (what_if != nullptr) *what_if = true;
    }
  }
  return util::Status::Ok();
}

util::StatusOr<ServingResult> ServingContext::PredictInternal(
    const RouteQuery& query, double deadline_ms) {
  util::Stopwatch sw;
  ServingResult result;
  RouteQuery resolved = query;
  ContextOptions options;
  const traffic::SnapshotPin pin = PinSnapshot(&options, &result);
  DEEPST_RETURN_IF_ERROR(ResolveQuery(&resolved, /*origin_required=*/true,
                                      &options, &result.degradations,
                                      &result.what_if));
  // Everything past this point runs model code that may throw (injected
  // query faults, allocation failure); convert to Status so a single bad
  // query can never take the process down.
  try {
    util::Rng rng(config_.rng_seed);
    PredictionContext ctx = model_->MakeContext(resolved, &rng, options);
    if (deadline_ms > 0.0 && model_->config().map_prediction) {
      bool budget_hit = false;
      result.route = model_->PredictRouteBeam(ctx, resolved.origin, &rng,
                                              deadline_ms, &budget_hit);
      if (budget_hit) result.degradations |= kDegradationDeadlineBudget;
    } else {
      result.route = model_->PredictRoute(ctx, resolved.origin, &rng);
    }
  } catch (const std::exception& e) {
    return util::Status::Internal(
        util::StrFormat("query execution failed: %s", e.what()));
  }
  result.degraded = result.degradations != kDegradationNone;
  result.latency_ms = sw.ElapsedMillis();
  return result;
}

util::StatusOr<ServingResult> ServingContext::Predict(const RouteQuery& query) {
  util::StatusOr<ServingResult> outcome =
      PredictInternal(query, config_.deadline_ms);
  RecordOutcome(outcome);
  return outcome;
}

util::StatusOr<ServingResult> ServingContext::ScoreRoute(
    const RouteQuery& query, const traj::Route& route) {
  util::Stopwatch sw;
  const roadnet::RoadNetwork& net = model_->network();
  auto fail = [this](util::Status status) -> util::StatusOr<ServingResult> {
    util::StatusOr<ServingResult> outcome(std::move(status));
    RecordOutcome(outcome);
    return outcome;
  };
  if (route.empty()) {
    return fail(util::Status::InvalidArgument("route is empty"));
  }
  for (roadnet::SegmentId s : route) {
    if (s < 0 || s >= net.num_segments()) {
      return fail(util::Status::InvalidArgument(util::StrFormat(
          "route references segment %d out of range", static_cast<int>(s))));
    }
  }
  ServingResult result;
  RouteQuery resolved = query;
  // Scoring does not generate from the origin; default it to the route head
  // so callers can score without resolving one.
  if (resolved.origin == roadnet::kInvalidSegment &&
      !resolved.has_origin_point) {
    resolved.origin = route.front();
  }
  ContextOptions options;
  const traffic::SnapshotPin pin = PinSnapshot(&options, &result);
  {
    util::Status status = ResolveQuery(&resolved, /*origin_required=*/false,
                                       &options, &result.degradations,
                                       &result.what_if);
    if (!status.ok()) return fail(std::move(status));
  }
  try {
    util::Rng rng(config_.rng_seed);
    PredictionContext ctx = model_->MakeContext(resolved, &rng, options);
    result.score = model_->ScoreRoute(ctx, route);
  } catch (const std::exception& e) {
    return fail(util::Status::Internal(
        util::StrFormat("query execution failed: %s", e.what())));
  }
  result.degraded = result.degradations != kDegradationNone;
  result.latency_ms = sw.ElapsedMillis();
  util::StatusOr<ServingResult> outcome(std::move(result));
  RecordOutcome(outcome);
  return outcome;
}

util::Status ServingContext::ValidateScoreRoutes(
    const std::vector<traj::Route>& routes) {
  if (routes.empty()) {
    return util::Status::InvalidArgument("score request has no routes");
  }
  const roadnet::RoadNetwork& net = model_->network();
  for (const traj::Route& route : routes) {
    if (route.empty()) {
      return util::Status::InvalidArgument("route is empty");
    }
    for (roadnet::SegmentId s : route) {
      if (s < 0 || s >= net.num_segments()) {
        return util::Status::InvalidArgument(util::StrFormat(
            "route references segment %d out of range", static_cast<int>(s)));
      }
    }
  }
  return util::Status::Ok();
}

util::StatusOr<ServingResult> ServingContext::ExecuteIngest(
    const ServingRequest& request) {
  util::Stopwatch sw;
  if (store_ == nullptr) {
    return util::Status::FailedPrecondition(
        "no live traffic store attached; ingest unavailable");
  }
  traffic::IngestReport report;
  DEEPST_RETURN_IF_ERROR(store_->Ingest(request.observations, &report));
  // Returning OK here IS the durability ack: the WAL append completed.
  ServingResult result;
  result.ingested = report.accepted;
  result.ingest_rejected = report.rejected;
  result.snapshot_generation = store_->generation();
  result.latency_ms = sw.ElapsedMillis();
  return result;
}

util::StatusOr<ServingResult> ServingContext::ExecuteOne(
    const ServingRequest& request) {
  const double deadline =
      request.deadline_ms > 0.0 ? request.deadline_ms : config_.deadline_ms;
  if (request.kind == ServingRequest::Kind::kIngest) {
    return ExecuteIngest(request);
  }
  if (request.kind == ServingRequest::Kind::kPredict) {
    return PredictInternal(request.query, deadline);
  }
  util::Stopwatch sw;
  DEEPST_RETURN_IF_ERROR(ValidateScoreRoutes(request.routes));
  ServingResult result;
  RouteQuery resolved = request.query;
  if (resolved.origin == roadnet::kInvalidSegment &&
      !resolved.has_origin_point) {
    resolved.origin = request.routes.front().front();
  }
  ContextOptions options;
  const traffic::SnapshotPin pin = PinSnapshot(&options, &result);
  DEEPST_RETURN_IF_ERROR(ResolveQuery(&resolved, /*origin_required=*/false,
                                      &options, &result.degradations,
                                      &result.what_if));
  try {
    util::Rng rng(config_.rng_seed);
    PredictionContext ctx = model_->MakeContext(resolved, &rng, options);
    result.scores = model_->ScoreRoutes(ctx, request.routes);
  } catch (const std::exception& e) {
    return util::Status::Internal(
        util::StrFormat("query execution failed: %s", e.what()));
  }
  result.score = result.scores.empty() ? 0.0 : result.scores.front();
  result.degraded = result.degradations != kDegradationNone;
  result.latency_ms = sw.ElapsedMillis();
  return result;
}

std::vector<util::StatusOr<ServingResult>> ServingContext::ExecuteBatch(
    std::vector<ServingRequest>* requests) {
  util::Stopwatch sw;
  const size_t n = requests->size();
  std::vector<util::StatusOr<ServingResult>> results(n, ServingResult{});
  if (n == 0) return results;

  // Cross-query coalescing requires the deterministic MAP config (no rng
  // draws in generation, so batch composition cannot perturb any stream).
  // Other configs execute request by request -- same per-request results,
  // just without the shared batch.
  const DeepSTConfig& mc = model_->config();
  const bool batchable = mc.map_prediction && !mc.sample_stop;
  if (!batchable) {
    for (size_t i = 0; i < n; ++i) {
      results[i] = ExecuteOne((*requests)[i]);
      RecordOutcome(results[i]);
    }
    return results;
  }

  // Stage 1: validate, resolve and build every request's context
  // individually. A request that fails here only fails its own slot.
  // Ingest requests execute right here -- their work is a WAL append, not
  // an inference call, so they never ride the coalesced model batch.
  struct Prepared {
    RouteQuery resolved;
    ContextOptions options;
    PredictionContext ctx;
    traffic::SnapshotPin pin;  // held until the request's result is built
    uint8_t degradations = kDegradationNone;
    bool what_if = false;
    uint64_t generation = 0;
  };
  std::vector<Prepared> prep(n);
  std::vector<size_t> predict_ix;
  std::vector<size_t> score_ix;
  for (size_t i = 0; i < n; ++i) {
    const ServingRequest& req = (*requests)[i];
    Prepared& p = prep[i];
    if (req.kind == ServingRequest::Kind::kIngest) {
      results[i] = ExecuteIngest(req);
      RecordOutcome(results[i]);
      continue;
    }
    const bool is_score = req.kind == ServingRequest::Kind::kScore;
    p.resolved = req.query;
    if (is_score) {
      util::Status status = ValidateScoreRoutes(req.routes);
      if (!status.ok()) {
        results[i] = std::move(status);
        RecordOutcome(results[i]);
        continue;
      }
      if (p.resolved.origin == roadnet::kInvalidSegment &&
          !p.resolved.has_origin_point) {
        p.resolved.origin = req.routes.front().front();
      }
    }
    {
      ServingResult pin_stamp;
      p.pin = PinSnapshot(&p.options, &pin_stamp);
      p.generation = pin_stamp.snapshot_generation;
    }
    util::Status status = ResolveQuery(&p.resolved, !is_score, &p.options,
                                       &p.degradations, &p.what_if);
    if (!status.ok()) {
      results[i] = std::move(status);
      RecordOutcome(results[i]);
      continue;
    }
    try {
      util::Rng rng(config_.rng_seed);
      p.ctx = model_->MakeContext(p.resolved, &rng, p.options);
      (is_score ? score_ix : predict_ix).push_back(i);
    } catch (const std::exception& e) {
      results[i] = util::Status::Internal(
          util::StrFormat("query execution failed: %s", e.what()));
      RecordOutcome(results[i]);
    }
  }

  // Stage 2: one coalesced batch per kind. If the shared call throws (an
  // injected fault, allocation failure), re-execute every rider
  // individually: only the poisoned request fails, with its own Status.
  if (!predict_ix.empty()) {
    std::vector<PredictItem> items(predict_ix.size());
    for (size_t k = 0; k < predict_ix.size(); ++k) {
      const size_t i = predict_ix[k];
      const ServingRequest& req = (*requests)[i];
      items[k].ctx = &prep[i].ctx;
      items[k].origin = prep[i].resolved.origin;
      items[k].deadline_ms =
          req.deadline_ms > 0.0 ? req.deadline_ms : config_.deadline_ms;
    }
    bool batch_ok = true;
    try {
      model_->PredictRoutesBeamMulti(&items);
    } catch (const std::exception&) {
      batch_ok = false;
    }
    for (size_t k = 0; k < predict_ix.size(); ++k) {
      const size_t i = predict_ix[k];
      if (batch_ok) {
        ServingResult result;
        result.degradations = prep[i].degradations;
        if (items[k].budget_hit) {
          result.degradations |= kDegradationDeadlineBudget;
        }
        result.route = std::move(items[k].route);
        result.degraded = result.degradations != kDegradationNone;
        result.what_if = prep[i].what_if;
        result.snapshot_generation = prep[i].generation;
        result.latency_ms = sw.ElapsedMillis();
        results[i] = std::move(result);
      } else {
        results[i] = ExecuteOne((*requests)[i]);
      }
      prep[i].pin.Release();
      RecordOutcome(results[i]);
    }
  }
  if (!score_ix.empty()) {
    std::vector<ScoreItem> items(score_ix.size());
    for (size_t k = 0; k < score_ix.size(); ++k) {
      const size_t i = score_ix[k];
      items[k].ctx = &prep[i].ctx;
      items[k].routes = &(*requests)[i].routes;
    }
    bool batch_ok = true;
    try {
      model_->ScoreRoutesMulti(&items);
    } catch (const std::exception&) {
      batch_ok = false;
    }
    for (size_t k = 0; k < score_ix.size(); ++k) {
      const size_t i = score_ix[k];
      if (batch_ok) {
        ServingResult result;
        result.degradations = prep[i].degradations;
        result.scores = std::move(items[k].scores);
        result.score = result.scores.empty() ? 0.0 : result.scores.front();
        result.degraded = result.degradations != kDegradationNone;
        result.what_if = prep[i].what_if;
        result.snapshot_generation = prep[i].generation;
        result.latency_ms = sw.ElapsedMillis();
        results[i] = std::move(result);
      } else {
        results[i] = ExecuteOne((*requests)[i]);
      }
      prep[i].pin.Release();
      RecordOutcome(results[i]);
    }
  }
  return results;
}

void ServingContext::RecordOutcome(
    const util::StatusOr<ServingResult>& outcome) {
  if (!outcome.ok()) {
    n_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const ServingResult& r = outcome.value();
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  if (r.degradations != kDegradationNone) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationTrafficPriorMean) {
    n_traffic_prior_mean_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationUniformProxy) {
    n_uniform_proxy_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationSnappedOrigin) {
    n_snapped_origin_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationDeadlineBudget) {
    n_deadline_budget_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationOverlayDropped) {
    n_overlay_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.what_if) {
    n_what_if_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServingStats ServingContext::stats() const {
  ServingStats s;
  s.queries = n_queries_.load(std::memory_order_relaxed);
  s.failures = n_failures_.load(std::memory_order_relaxed);
  s.degraded = n_degraded_.load(std::memory_order_relaxed);
  s.traffic_prior_mean = n_traffic_prior_mean_.load(std::memory_order_relaxed);
  s.uniform_proxy = n_uniform_proxy_.load(std::memory_order_relaxed);
  s.snapped_origin = n_snapped_origin_.load(std::memory_order_relaxed);
  s.deadline_budget = n_deadline_budget_.load(std::memory_order_relaxed);
  s.overlay_dropped = n_overlay_dropped_.load(std::memory_order_relaxed);
  s.what_if = n_what_if_.load(std::memory_order_relaxed);
  const TrafficEncodeStats enc = model_->traffic_encode_stats();
  s.traffic_encode_lookups = enc.lookups;
  s.traffic_encodes = enc.encodes;
  return s;
}

}  // namespace core
}  // namespace deepst
