// Online base-file selection (paper §IV).
//
// The randomized algorithm: sample each request with probability p, keep up
// to K sampled documents, score each stored document by the sum of delta
// sizes from it (as base) to every other stored document, evict the worst
// on overflow, and propose the best as the class base-file. Footnote 3's two
// anti-clustering variants are implemented as eviction policies:
//   kWorst          — always evict the max-score document;
//   kPeriodicRandom — every R-th eviction removes a random sample (never the
//                     current best) instead of the worst;
//   kTwoSet         — a candidate set scored against an independent set of K
//                     random reference samples; worst candidate / random
//                     reference evicted.
//
// FirstResponsePolicy and OnlineOptimalPolicy are the two comparison
// algorithms of Table III.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "delta/delta.hpp"
#include "obs/metrics_registry.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cbde::core {

struct SelectorConfig {
  double sample_prob = 0.2;      ///< p — request sampling probability
  std::size_t max_samples = 8;   ///< K — stored base-file candidates

  enum class Eviction { kWorst, kPeriodicRandom, kTwoSet };
  Eviction eviction = Eviction::kWorst;
  /// For kPeriodicRandom: every `random_evict_period`-th eviction is random.
  std::size_t random_evict_period = 8;

  /// Delta parameterization used for candidate scoring. Light keeps the
  /// "calculation can be done offline" cost low; scores only need to rank.
  delta::DeltaParams score_params = delta::DeltaParams::light();
};

struct SelectorStats {
  std::uint64_t observed = 0;
  std::uint64_t sampled = 0;
  std::uint64_t evictions = 0;
  std::uint64_t random_evictions = 0;
};

/// Shared registry counters a selector mirrors its stats into. Selectors
/// are per-class; the owning DeltaServer hands every class the same handles
/// so the counters aggregate across classes. All-null (default) = no-op.
struct SelectorInstruments {
  obs::Counter* observed = nullptr;
  obs::Counter* sampled = nullptr;
  obs::Counter* evictions = nullptr;
};

class BaseFileSelector {
 public:
  BaseFileSelector(SelectorConfig config, std::uint64_t seed);

  /// Observe a served document; with probability p it becomes a candidate.
  void observe(util::BytesView doc);

  /// Unconditionally admit a document as a candidate (used for the request
  /// that creates a class, so a base-file exists immediately).
  void admit(util::BytesView doc);

  /// Candidate with minimal sum of deltas to the other stored documents, or
  /// nullptr if no candidates are stored.
  const util::Bytes* best() const;

  /// Score (sum of delta sizes) of best(); 0 with fewer than 2 candidates.
  double best_score() const;

  /// Drop all stored samples (triggered by a basic-rebase, paper §IV).
  void flush();

  std::size_t stored() const { return candidates_.size(); }
  /// Total bytes held by stored candidates (and references for kTwoSet).
  std::size_t stored_bytes() const;
  const SelectorStats& stats() const { return stats_; }

  void set_instruments(const SelectorInstruments& instr) { instr_ = instr; }

 private:
  void insert_candidate(std::shared_ptr<const util::Bytes> doc);
  void insert_reference(std::shared_ptr<const util::Bytes> doc);  // kTwoSet only
  void evict_candidate();
  void remove_candidate(std::size_t idx);
  double score(std::size_t idx) const;
  std::size_t best_index() const;
  void rescore_against_references();  // kTwoSet: refresh matrix column set

  SelectorConfig config_;
  util::Rng rng_;
  /// Each stored candidate is held as an Encoder (score_params) so its
  /// match index is built once on admission; scoring a newcomer against K
  /// incumbents then costs K index-free size-only scans instead of K index
  /// builds. The index is sized to the sample (~100 KiB for a 45 KB page
  /// under light params; Encoder::index_bytes()).
  std::vector<std::unique_ptr<delta::Encoder>> candidates_;
  /// score_matrix_[i][j] = delta size with candidates_[i] as base and
  /// (candidates_ or references_)[j] as target, j != i for the one-set
  /// policies.
  std::vector<std::vector<double>> score_matrix_;
  /// kTwoSet only. A document admitted while both sets have room lands in
  /// the reference set AND the candidate encoder as one shared buffer (the
  /// old per-set copies doubled the sampling footprint); the sets still
  /// evict independently — the shared_ptr keeps whichever side survives
  /// alive. stored_bytes() counts each distinct buffer once.
  std::vector<std::shared_ptr<const util::Bytes>> references_;
  SelectorStats stats_;
  SelectorInstruments instr_;
};

/// Common interface for the Table III base-file policies: each observes the
/// request stream and exposes the base-file it would currently use.
class BasePolicy {
 public:
  virtual ~BasePolicy() = default;
  virtual void observe(util::BytesView doc) = 0;
  virtual const util::Bytes* current_base() const = 0;
  virtual std::string_view name() const = 0;
};

/// "Uses the first response as a base-file."
class FirstResponsePolicy : public BasePolicy {
 public:
  void observe(util::BytesView doc) override;
  const util::Bytes* current_base() const override;
  std::string_view name() const override { return "first-response"; }

 private:
  std::optional<util::Bytes> base_;
};

/// The randomized online algorithm of §IV (rebases whenever a better stored
/// candidate appears; Table III measures candidate quality, so no timeout).
class RandomizedPolicy : public BasePolicy {
 public:
  RandomizedPolicy(SelectorConfig config, std::uint64_t seed);
  void observe(util::BytesView doc) override;
  const util::Bytes* current_base() const override;
  std::string_view name() const override { return "randomized"; }

  const BaseFileSelector& selector() const { return selector_; }

 private:
  BaseFileSelector selector_;
  bool first_ = true;
};

/// "The online optimal algorithm that uses as a base-file the one that
/// minimizes the average delta so far" — stores every document seen.
class OnlineOptimalPolicy : public BasePolicy {
 public:
  explicit OnlineOptimalPolicy(delta::DeltaParams score_params = delta::DeltaParams::light());
  void observe(util::BytesView doc) override;
  const util::Bytes* current_base() const override;
  std::string_view name() const override { return "online-optimal"; }

 private:
  delta::DeltaParams score_params_;
  /// One encoder per stored document: observe() is O(n) size-only scans
  /// plus a single index build, not O(n) builds.
  std::vector<std::unique_ptr<delta::Encoder>> docs_;
  std::vector<double> score_;  // sum of deltas from docs_[i] to all others
  std::size_t best_ = 0;
};

/// Offline reference: given the whole sequence, the document minimizing the
/// total delta cost (used by tests to sanity-check the online algorithms).
std::size_t offline_optimal_index(const std::vector<util::Bytes>& docs,
                                  const delta::DeltaParams& score_params);

}  // namespace cbde::core
