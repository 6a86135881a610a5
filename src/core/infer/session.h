#ifndef DEEPST_CORE_INFER_SESSION_H_
#define DEEPST_CORE_INFER_SESSION_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/deepst_model.h"
#include "nn/infer/forward.h"
#include "util/stopwatch.h"

namespace deepst {
namespace core {
namespace infer {

// Model weights packed once for the GEMV fast path and shared read-only by
// every pooled session (packing happens at most once per model generation,
// not per session — "pack at pool construction"). Built at the model's
// config.infer_precision; the embedding table stays double in every mode
// (it is gathered, not multiplied). Biases are read through tensor pointers
// into the model, which must outlive the view.
struct SharedInferWeights {
  nn::infer::Precision precision = nn::infer::Precision::kDouble;
  nn::infer::GruStackView gru;
  nn::infer::PackedMatrix alpha_w;   // [N_max, H]
  std::vector<double> emb_table_d;   // [V, emb_dim]
  size_t packed_weight_bytes = 0;    // GEMV operand bytes at this precision
  // Bytes of the K-major panel sidecars built for the blocked GEMM path
  // (config.gemm_blocking; 0 when off). Panels duplicate the full blocks of
  // each matrix in streaming order, so this is close to a second copy of
  // packed_weight_bytes — reported separately for footprint accounting.
  size_t packed_panel_bytes = 0;

  static std::shared_ptr<const SharedInferWeights> Build(
      const DeepSTModel& model);
};

// Graph-free inference engine for one DeepSTModel. A session owns every
// scratch buffer the generation and scoring loops need (a nn::infer::Arena
// plus preallocated hypothesis pools), so after warmup a call performs zero
// heap allocation. Sessions are NOT thread-safe; DeepSTModel keeps a
// mutex-guarded pool of them and leases one per call, which is what makes
// the public model API safe under EvaluatePredictionParallel.
//
// Semantics mirror the model's *Reference methods exactly: the same valid-
// slot renormalization, visit guards, beam bookkeeping and ShouldStop rng
// call order. Numerics differ from the reference only through the forward
// kernels' 4-lane accumulation (~1e-7 per logit, parity-tested at 1e-5);
// the fast path itself is bitwise identical for every thread count and for
// batched vs one-at-a-time scoring.
//
// One row-mapped engine: every call folds its queries' contexts into rows
// of a [Q, .] bias block (PrepareContexts), and every GRU step reads row
// b's biases from query row_ctx[b] (StepBatch). A single-query call is the
// Q = 1 case with an all-zero row map, so the beam loop, the step, the
// context fold and the padded scorer each exist once, and the single-query
// entry points are thin adapters over them.
//
// Per-query precomputation (PrepareContexts): the GRU input is
// [token_embedding, dest_repr, traffic_repr] where the context part is
// constant for a whole query, so its layer-0 input-to-hidden product
// (+ b_ih) is folded into a per-query bias and each step only multiplies
// the embedding columns. Likewise alpha's bias, dest_term and traffic_term
// collapse into one per-query logit bias row.
//
// The per-step GEMV weights are packed once per model at
// config.infer_precision (double/bf16/int8) and shared across the pool;
// bf16/int8 change results within the gated accuracy tolerance
// (docs/inference.md).
class InferenceSession {
 public:
  explicit InferenceSession(const DeepSTModel* model);

  // Counterparts of the DeepSTModel prediction API (same contracts).
  traj::Route PredictRoute(const PredictionContext& ctx,
                           roadnet::SegmentId origin, util::Rng* rng);
  // One-query adapter over the lock-step beam loop (BeamSearch).
  traj::Route PredictRouteBeam(const PredictionContext& ctx,
                               roadnet::SegmentId origin, util::Rng* rng,
                               double deadline_ms = 0.0,
                               bool* budget_hit = nullptr);
  double ScoreRoute(const PredictionContext& ctx, const traj::Route& route);
  double ScoreContinuation(const PredictionContext& ctx,
                           const traj::Route& prefix,
                           const traj::Route& continuation);

  // Batched scoring: all candidates advance through one padded
  // [batch, max_len] sequence of GRU steps. Results are bitwise identical
  // to scoring each route individually through this session.
  std::vector<double> ScoreRoutes(const PredictionContext& ctx,
                                  const std::vector<traj::Route>& routes);
  // Shared-prefix variant for recovery: warms the state over `prefix` once
  // (batch 1), broadcasts it, then scores all continuations as one batch.
  std::vector<double> ScoreContinuations(
      const PredictionContext& ctx, const traj::Route& prefix,
      const std::vector<traj::Route>& candidates);

  // -- Cross-query batching (the serve daemon's scheduler) --------------------
  // Work items are core::PredictItem / core::ScoreItem (deepst_model.h).
  // Each item carries its own folded context; the queries share every padded
  // GRU step, with each batch row reading its own query's context biases
  // through the row-mapped kernels. Kernels are row-local, so each item's
  // result is bitwise identical to the corresponding single-query call on
  // this session.
  //
  // Lock-step beam search over several queries: every expansion step runs
  // one padded StepBatch across all live hypotheses of all queries. `rng`
  // feeds ShouldStop; with config.sample_stop the draws happen in beam
  // order, so such a batch must hold exactly one query (checked). A query
  // whose deadline expires drops out of the batch with its best hypothesis
  // so far; the others keep stepping.
  void PredictRoutesBeamMulti(std::vector<PredictItem>* items,
                              util::Rng* rng = nullptr);
  // Batched scoring across queries: every candidate route of every item
  // advances through one padded [rows, max_len] step sequence. Bitwise
  // identical per item to ScoreRoutes(*item.ctx, *item.routes).
  void ScoreRoutesMulti(std::vector<ScoreItem>* items);

  // Teacher-forced top-1 slots: feeds route[0..t] and appends the argmax
  // valid next-segment slot at each of the route.size()-1 transitions. The
  // precision accuracy-parity harness compares these across packed weight
  // precisions.
  void TopSlotsAlongRoute(const PredictionContext& ctx,
                          const traj::Route& route, std::vector<int>* slots);

  // Number of scratch-storage growths so far; constant across calls once
  // the session is warm (the zero-allocation steady state).
  int64_t arena_grow_count() const { return arena_.grow_count(); }
  // Growths of the non-arena step scratch (gathered embeddings, the
  // per-layer double state mirrors and the per-query hypothesis pools).
  // Reserved once per call at the max batch (ResetState / beam setup), so
  // like arena_grow_count this is constant once the session is warm —
  // StepBatch itself never resizes.
  int64_t scratch_grow_count() const { return scratch_grow_count_; }

 private:
  // Scratch arena slot map. Per-layer slots follow the fixed block.
  enum Slot {
    kCtxIh = 0,     // [Q, 3H] layer-0 context input product + b_ih
    kLogitBias,     // [Q, N_max] alpha bias + dest_term + traffic_term
    kGi,            // [B, 3H]
    kGh,            // [B, 3H]
    kLogits,        // [B, N_max]
    kPerLayer,      // first of 2 slots per GRU layer: state, gather
  };
  int StateSlotIndex(int layer) const { return kPerLayer + 2 * layer; }
  int GatherSlotIndex(int layer) const { return kPerLayer + 2 * layer + 1; }
  nn::Tensor* StateSlot(int layer) { return arena_.Get(StateSlotIndex(layer)); }
  nn::Tensor* GatherSlot(int layer) {
    return arena_.Get(GatherSlotIndex(layer));
  }

  // Folds context q into row q of kCtxIh ([Q, 3H]) and kLogitBias
  // ([Q, N_max]).
  void PrepareContexts(const PredictionContext* const* ctxs, int64_t count);
  // Re-shapes the per-layer state slots to [batch, H] and zero-fills them
  // (float slots and their double mirrors alike).
  void ResetState(int64_t batch);
  // Grow-only reservation of the step scratch (embd_ / dstate_) for up to
  // `batch` rows; called once per public call at the max batch so StepBatch
  // never reallocates. EnsureGatherScratch is the beam-loop counterpart for
  // the gather mirrors (rows = queries x width).
  void EnsureStepScratch(int64_t batch);
  void EnsureGatherScratch(int64_t rows);
  // One batched GRU step: reads tokens, updates the state slots in place
  // and (when `want_logits`) fills kLogits with [batch, N_max] rows. Row b
  // reads the context biases of query row_ctx[b] (all zero for a
  // single-context call).
  void StepBatch(const int* tokens, const int* row_ctx, int64_t batch,
                 bool want_logits);

  // One beam-search hypothesis; fixed-capacity, reused across calls.
  struct Hyp {
    traj::Route route;  // also the loop-guard set (no segment repeats)
    double log_prob = 0.0;
    bool done = false;
    int src_row = -1;  // row in the stepped batch this hyp's state lives in

    double Score() const;
  };
  void CopyHyp(const Hyp& src, Hyp* dst);
  // Scores one padded batch of routes, row b under query row_ctx[b]'s
  // biases; the first `first_scored` transitions only warm the state
  // (ScoreContinuation(s) feed them beforehand).
  void ScorePaddedBatch(const std::vector<const traj::Route*>& rows,
                        const std::vector<int>& row_ctx, size_t first_scored,
                        std::vector<double>* out);
  // The multi-query scorer behind ScoreRoutes and ScoreRoutesMulti.
  void ScoreItems(ScoreItem* items, size_t count);

  // Per-query beam bookkeeping, grown once to the largest batch seen.
  struct QueryBeam {
    std::vector<Hyp> beams;  // the current width hypotheses
    std::vector<Hyp> pool;   // one step's candidates (done + expansions)
    size_t pool_size = 0;
    std::vector<int> pool_order;  // sort permutation over pool
    std::vector<int> active_row;  // beam index -> batch row or -1
    int num_beams = 0;
    bool finished = false;
    util::Stopwatch watch;  // per-item deadline budget
  };
  void EnsureQueryBeams(size_t count);
  // Copies the best hypothesis (preferring completed ones) into the item's
  // route.
  void FinalizeQuery(const QueryBeam& qb, PredictItem* item);
  // The lock-step beam loop behind PredictRouteBeam and
  // PredictRoutesBeamMulti.
  void BeamSearch(PredictItem* items, size_t count, util::Rng* rng);

  const DeepSTModel* model_;
  const roadnet::RoadNetwork& net_;
  const DeepSTConfig& config_;
  // Packed weights shared across the model's session pool (see
  // SharedInferWeights); the references below alias *weights_.
  std::shared_ptr<const SharedInferWeights> weights_shared_;
  const nn::infer::GruStackView& gru_;
  const std::vector<double>& emb_table_d_;   // [V, emb_dim]
  const nn::infer::PackedMatrix& alpha_w_;   // [N_max, H]
  const nn::Tensor* alpha_b_;                // [N_max]
  int64_t emb_dim_;
  int64_t nmax_;

  nn::infer::Arena arena_;
  // Double-precision activation scratch fed to the GEMV kernels: gathered
  // token embeddings, the persistent per-layer double mirrors of the float
  // hidden states, and the per-query context vector. dstate_[l] always
  // equals ToDouble(StateSlot(l)) for the active rows — refreshed once per
  // layer per step (after GruGates), instead of converting every GEMV
  // operand — and dgather_[l] mirrors GatherSlot(l) the same way through
  // the beam keep phase (double->double row copies are exact, so the
  // mirrors carry the same values ToDouble would produce). Grow-only via
  // EnsureStepScratch / EnsureGatherScratch.
  std::vector<double> embd_;                  // [B, emb_dim]
  std::vector<std::vector<double>> dstate_;   // per layer: [B, H]
  std::vector<std::vector<double>> dgather_;  // per layer: [rows, H]
  int64_t scratch_grow_count_ = 0;
  std::vector<double> ctxd_;  // [ctx_dim]
  std::vector<std::pair<double, int>> ranked_;  // slot ranking scratch
  std::vector<int> tokens_;
  std::vector<double> weights_;            // sampled-prediction scratch
  std::vector<const traj::Route*> rows_;   // batched-scoring row set
  std::vector<int> row_ctx_;               // batch row -> query index
  // Batch row -> (item, route) it scores, recorded as the row is built.
  std::vector<std::pair<size_t, size_t>> row_dst_;
  std::vector<double> batch_out_;
  std::vector<const PredictionContext*> ctx_ptrs_;
  std::vector<QueryBeam> query_beams_;
  traj::Route full_;                       // prefix + continuation scratch
  std::vector<traj::Route> fulls_;
};

}  // namespace infer
}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_INFER_SESSION_H_
