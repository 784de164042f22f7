// The delta-server (paper §II, §VI-C): the engine placed next to the
// web-server that implements class-based delta-encoding.
//
// Per request it: partitions the URL, groups the request into a class
// (ClassManager), feeds the base-file selector and the anonymization
// process, and decides how to respond — full document (direct) or a
// compressed delta against the class's *published* (anonymized) base-file.
// It tracks which base-file version each client holds, charges base-file
// distribution bytes when a client must first obtain the base, and runs the
// two rebase mechanisms of §IV:
//   group-rebase — the selector proposes a better base-file and the
//                  rebase-timeout has expired;
//   basic-rebase — consecutive relatively-large deltas indicate a stale
//                  base; the current document becomes the new working base
//                  and all stored samples are flushed.
// A freshly (re)based base-file is only published once anonymization
// completes; until then the previous published base keeps serving (§V).
//
// Scaling (the paper's whole pitch): the server is SHARDED. Classes are
// partitioned over `DeltaServerConfig::shards` independent DeltaServerShard
// instances by a stable crc32 of the request's (server-part, hint-part);
// each shard owns its own mutex, ClassManager, class states, base store and
// byte ledger, so requests to different shards never contend. There is no
// global lock anywhere in the serve path — DeltaServer itself is a stateless
// router plus a merger for the read-side accessors.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/anonymizer.hpp"
#include "core/base_store.hpp"
#include "core/basefile_selector.hpp"
#include "core/class_manager.hpp"
#include "core/metrics.hpp"
#include "compress/compressor.hpp"
#include "http/partition.hpp"
#include "obs/obs.hpp"
#include "util/clock.hpp"
#include "util/thread_annotations.hpp"

namespace cbde::core {

/// CPU cost model for the delta-server's per-request work, used by the
/// capacity experiment (§VI-C). Constants are calibrated so a 50-60 KB
/// base-file costs 6-8 ms, matching the paper's measurement on a PIII-866.
struct DeltaCpuModel {
  double fixed_us = 500;          ///< request handling, class lookup
  double encode_us_per_kb = 110;  ///< delta generation per KB of base+target
  double compress_us_per_kb = 40; ///< gzip-like pass per KB of delta

  double cost(std::size_t base_bytes, std::size_t target_bytes,
              std::size_t delta_bytes) const {
    return fixed_us +
           encode_us_per_kb * static_cast<double>(base_bytes + target_bytes) / 1024.0 +
           compress_us_per_kb * static_cast<double>(delta_bytes) / 1024.0;
  }
};

struct DeltaServerConfig {
  GroupingConfig grouping;
  SelectorConfig selector;
  AnonymizerConfig anonymizer;
  /// If false, base-files are published raw immediately (no privacy; the
  /// classless-vs-class ablations use this).
  bool anonymize = true;
  bool compress_deltas = true;
  /// Codec of every per-request delta. The Karp-Rabin correcting codec
  /// compresses to the same wire size as the full hash-chain index at a
  /// fraction of its encode time (docs/PERFORMANCE.md, codec family);
  /// grouping probes and selector scoring keep their own `light` params.
  delta::DeltaParams transmit_params = delta::DeltaParams::correcting();
  compress::CompressParams compress_params = {};
  /// Uncompressed delta larger than this fraction of the document counts as
  /// "relatively large" for basic-rebase purposes.
  double basic_rebase_ratio = 0.7;
  /// Consecutive large deltas (per class) before a basic-rebase fires.
  int basic_rebase_after = 3;
  /// Minimum simulated time between group-rebases of one class.
  util::SimTime rebase_timeout = 120 * util::kSecond;
  /// Published base-file versions kept available after a rebase, so clients
  /// holding (or currently fetching) an older version are not stranded.
  std::size_t published_history = 3;
  DeltaCpuModel cpu;
  std::uint64_t seed = 7;
  /// Independent server shards. Requests route by
  /// crc32("server-part\0hint-part") % shards (DeltaServer::route), so all
  /// requests of one partition pair — and therefore every class, since
  /// classes never span pairs — live on exactly one shard. 1 = the
  /// unsharded behavior, byte-for-byte identical to the historical server.
  std::size_t shards = 1;
  /// Base store built for each shard; null = one MemoryBaseStore per shard.
  /// (A DiskBaseStore factory should hand each shard its own directory.)
  std::function<std::unique_ptr<BaseStore>(std::size_t shard_index)> store_factory;
  /// Observability domain settings (sampling rate, histogram resolution,
  /// event-log sink); used only when `obs_instance` is null.
  obs::ObsConfig obs;
  /// Share one telemetry domain across a serving stack (server + worker
  /// pool + proxy cache): the pipeline sets this so every layer registers
  /// into the same registry. Null = the server creates its own from `obs`.
  std::shared_ptr<obs::Obs> obs_instance;
};

struct ServedResponse {
  enum class Mode { kDirect, kDelta };
  Mode mode = Mode::kDirect;

  ClassId class_id = 0;
  bool class_created = false;
  std::size_t grouping_tries = 0;

  /// For kDelta: the base version the delta was computed against.
  std::uint32_t base_version = 0;
  /// True if this client did not hold the current base and must fetch it.
  bool base_needed = false;
  std::size_t base_size = 0;  ///< size of the published base (if base_needed)

  std::size_t doc_size = 0;    ///< full document size (the direct baseline)
  std::size_t delta_size = 0;  ///< uncompressed delta size (kDelta only)
  util::Bytes wire_body;       ///< bytes sent: compressed delta, or the document
  bool wire_compressed = false;

  bool group_rebase = false;
  bool basic_rebase = false;
  double cpu_us = 0;

  /// Shard that served the request (0 when unsharded). Lets callers (the
  /// worker pool's queue-wait attribution, capacity tooling) index per-shard
  /// instruments without re-deriving the route.
  std::size_t shard = 0;

  /// Trace of this request when it was sampled (Obs::maybe_trace), null
  /// otherwise. Spans are closed by the time serve() returns.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Published (client-visible) base-file of a class, if any. `bytes` views
/// storage owned by `keepalive`, so the view stays valid after the server
/// rebases the class (or is destroyed) — callers need no lock discipline.
struct PublishedBase {
  std::uint32_t version = 0;
  util::BytesView bytes;
  std::shared_ptr<const delta::Encoder> keepalive;
};

/// Operational snapshot of one class.
struct ClassSummary {
  ClassId id = 0;
  std::uint64_t members = 0;
  std::uint32_t published_version = 0;
  std::size_t published_size = 0;
  std::size_t working_size = 0;
  std::size_t selector_samples = 0;
  bool anonymizing = false;
};

/// Handles into the obs registry backing PipelineMetrics plus the serve
/// latency/size distributions. Registered once by the DeltaServer (the
/// registry is name-keyed and label-free) and shared by every shard:
/// the instruments themselves are atomic, so cross-shard increments are
/// safe; snapshot *consistency* comes from the per-shard ledgers, not from
/// these (see PipelineMetrics::merge for the convention).
struct ServerInstruments {
  obs::Counter* requests = nullptr;
  obs::Counter* direct_responses = nullptr;
  obs::Counter* delta_responses = nullptr;
  obs::Counter* direct_bytes = nullptr;
  obs::Counter* wire_bytes = nullptr;
  obs::Counter* base_wire_bytes = nullptr;
  obs::Counter* group_rebases = nullptr;
  obs::Counter* basic_rebases = nullptr;
  obs::Counter* anonymizations = nullptr;
  obs::Counter* classes_created = nullptr;
  obs::Counter* delta_fallbacks = nullptr;
  obs::DoubleCounter* cpu_us = nullptr;
  obs::Gauge* classes = nullptr;
  obs::Gauge* storage = nullptr;
  obs::Histogram* encode_latency = nullptr;
  obs::Histogram* delta_size = nullptr;
  obs::Histogram* doc_size = nullptr;
  /// Per-shard series (index == shard index), named via
  /// obs::shard_metric_name: cbde_shard_<k>_requests_total and
  /// cbde_shard_<k>_serve_microseconds. Sized to the shard count at
  /// construction so the serve path indexes without a lookup or allocation.
  /// The TimeSeriesRecorder derives shard rates and the imbalance
  /// coefficient from these.
  std::vector<obs::Counter*> shard_requests;
  std::vector<obs::Histogram*> shard_serve;
  /// Lock-wait profiling cell shared by every shard mutex (one "site");
  /// null unless ObsConfig::lock_profile is set. Feeds
  /// cbde_lock_wait_seconds_server_shard.
  util::LockWaitCell* shard_lock = nullptr;
  /// Handed to every per-class selector/anonymizer, so their counts
  /// aggregate across classes.
  SelectorInstruments selector;
  AnonymizerInstruments anonymizer;
};

/// One shard: the complete class-based delta-encoding machinery for the
/// subset of (server-part, hint-part) pairs that hash to it. Everything
/// mutable is guarded by the shard's own mu_; shards share nothing mutable
/// except the internally-synchronized obs instruments.
class DeltaServerShard {
 public:
  /// `config` and `instr` are owned by the DeltaServer and must outlive the
  /// shard. `id_stride` is the server's shard count, so class ids satisfy
  /// (id - 1) % id_stride == index and route back here without a lookup.
  DeltaServerShard(const DeltaServerConfig& config, std::size_t index,
                   ClassId id_stride, std::unique_ptr<BaseStore> store,
                   obs::Obs& obs, const ServerInstruments& instr);

  /// One request, already partitioned and routed here. Same three-phase
  /// shape the unsharded server had — locked bookkeeping/grouping, unlocked
  /// encode+compress against an encoder snapshot, locked commit — except mu_
  /// now serializes only this shard's classes. `trace` is the router's
  /// final sampling decision (null = untraced).
  ServedResponse serve(std::uint64_t user_id, const http::UrlParts& parts,
                       const http::Url& url, util::BytesView doc, util::SimTime now,
                       std::shared_ptr<obs::TraceContext> trace) EXCLUDES(mu_);

  std::optional<PublishedBase> published_base(ClassId id) const EXCLUDES(mu_);
  std::optional<util::Bytes> fetch_base(ClassId id, std::uint32_t version) const
      EXCLUDES(mu_);

  /// Snapshot of this shard's byte ledger — internally consistent because
  /// every request commits all of its counters under mu_.
  PipelineMetrics ledger() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return ledger_;
  }
  GroupingStats grouping_stats() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classes_.stats();
  }
  void append_class_summaries(std::vector<ClassSummary>& out) const EXCLUDES(mu_);
  std::size_t storage_bytes() const EXCLUDES(mu_);
  std::size_t classless_storage_bytes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classless_storage_bytes_;
  }
  std::size_t num_classes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classes_.num_classes();
  }
  const BaseStore& store() const { return *store_; }

 private:
  struct ClassState {
    /// Working base (raw) + its prebuilt light index: the grouping and
    /// rebase-comparison reference. Rebuilt on create and on either rebase.
    std::shared_ptr<const delta::Encoder> working_encoder;
    std::uint64_t working_owner = 0;
    /// Published (anonymized) base + its prebuilt transmit index: what
    /// per-request deltas are computed against. Held shared so serve() can
    /// encode outside the lock against a snapshot that a concurrent rebase
    /// cannot invalidate. The bytes also live in the base store; this is
    /// the hot copy.
    std::shared_ptr<const delta::Encoder> transmit_encoder;
    std::uint32_t published_version = 0;
    /// Versions currently retained in the base store, oldest first.
    std::vector<std::uint32_t> retained_versions;
    BaseFileSelector selector;
    Anonymizer anonymizer;
    util::SimTime last_group_rebase = 0;
    int consecutive_large_deltas = 0;

    ClassState(const DeltaServerConfig& config, std::uint64_t seed)
        : selector(config.selector, seed), anonymizer(config.anonymizer) {}
  };

  ClassState& state_of(ClassId id) REQUIRES(mu_);
  std::shared_ptr<const delta::Encoder> make_working_encoder(util::BytesView doc) const;
  void start_publication(ClassId id, ClassState& cls, util::SimTime now) REQUIRES(mu_);
  void maybe_complete_publication(ClassId id, ClassState& cls, util::SimTime now)
      REQUIRES(mu_);
  void record_publication(ClassId id, ClassState& cls, util::SimTime now) REQUIRES(mu_);

  const DeltaServerConfig& config_;  // owned by the server, immutable
  const std::size_t index_;          ///< this shard's position in the server
  /// The pointer is immutable after construction; the store itself is
  /// internally synchronized (see BaseStore), so it carries no GUARDED_BY.
  std::unique_ptr<BaseStore> store_;
  obs::Obs& obs_;                    // internally synchronized
  const ServerInstruments& instr_;   // owned by the server, atomic handles
  ClassManager classes_ GUARDED_BY(mu_);
  /// ClassState objects are owned by unique_ptr map values and never
  /// erased, so a ClassState* stays valid across an unlock — but its
  /// fields follow the map's discipline: touch them only while holding mu_.
  std::map<ClassId, std::unique_ptr<ClassState>> states_ GUARDED_BY(mu_);
  /// Base version each (client, class) currently holds.
  std::map<std::pair<std::uint64_t, ClassId>, std::uint32_t> client_versions_
      GUARDED_BY(mu_);
  /// Distinct (user, url) -> last document size, for the classless-storage
  /// comparison.
  std::map<std::uint64_t, std::size_t> classless_docs_ GUARDED_BY(mu_);
  std::size_t classless_storage_bytes_ GUARDED_BY(mu_) = 0;
  /// This shard's share of PipelineMetrics. Kept as a plain struct beside
  /// the atomic registry instruments so metrics() can take a per-shard-
  /// consistent snapshot without any cross-shard lock.
  PipelineMetrics ledger_ GUARDED_BY(mu_);
  mutable Mutex mu_;
};

/// The sharded server: routes each request to the owning shard and merges
/// the shards for every read-side accessor. Holds no mutable state of its
/// own — and therefore no lock.
class DeltaServer {
 public:
  /// Compat aliases: these used to be nested classes before the server was
  /// sharded, and all call sites name them through DeltaServer::.
  using PublishedBase = cbde::core::PublishedBase;
  using ClassSummary = cbde::core::ClassSummary;

  /// `store` holds retained published base-file versions; defaults to an
  /// in-memory store per shard. The explicit-store parameter predates
  /// sharding and is only accepted with shards == 1; sharded deployments
  /// use DeltaServerConfig::store_factory.
  DeltaServer(DeltaServerConfig config, http::RuleBook rules,
              std::unique_ptr<BaseStore> store = nullptr);

  /// Process one request: `doc` is the current snapshot obtained from the
  /// web-server. Advances all class machinery and returns the response.
  ///
  /// Thread-safe: concurrent calls are allowed (DeltaWorkerPool drives this
  /// from several threads). The URL is partitioned lock-free (RuleBook is
  /// immutable), the request routes to its shard, and only that shard's
  /// mutex is ever taken — requests on different shards proceed fully in
  /// parallel. See DeltaServerShard::serve for the three-phase shape.
  /// Samples the request itself via Obs::maybe_trace().
  ServedResponse serve(std::uint64_t user_id, const http::Url& url, util::BytesView doc,
                       util::SimTime now);

  /// serve() for a request whose sampling decision was made upstream and is
  /// final: `trace` is the context to record into, or null for an untraced
  /// request, and serve() draws no second sample. The worker pool decides at
  /// submit time, so queue wait and serve stages land in the same trace.
  ServedResponse serve(std::uint64_t user_id, const http::Url& url, util::BytesView doc,
                       util::SimTime now, std::shared_ptr<obs::TraceContext> trace);

  /// Published (client-visible) base-file of a class, if any; served by the
  /// owning shard.
  std::optional<PublishedBase> published_base(ClassId id) const;

  /// A specific retained version (current or recent history) from the
  /// owning shard's base store; nullopt if the class is unknown or the
  /// version has aged out.
  std::optional<util::Bytes> fetch_base(ClassId id, std::uint32_t version) const;

  /// One shard's base store (shard 0 by default, the whole store when
  /// unsharded). Stores are internally synchronized, so direct inspection
  /// is safe even while workers are serving.
  const BaseStore& base_store(std::size_t shard = 0) const;
  /// Aggregates across every shard's store.
  std::size_t store_entries() const;
  std::size_t store_bytes() const;

  /// Merged snapshot of the pipeline counters: the sum of the per-shard
  /// ledgers, visited in ascending shard order, each read under its own
  /// shard mutex. Every increment commits under a shard mutex, so each
  /// addend — and therefore the merge — satisfies the conservation
  /// identities; see PipelineMetrics::merge for the exact convention. The
  /// registry instruments carry the same totals for scrapes (parity is
  /// pinned by tests), so the two reports cannot drift.
  PipelineMetrics metrics() const;
  /// One shard's ledger (consistent under that shard's mutex).
  PipelineMetrics shard_metrics(std::size_t shard) const;

  /// The telemetry domain this server records into (shared with the worker
  /// pool / pipeline when DeltaServerConfig::obs_instance was set).
  obs::Obs& obs() const { return *obs_; }
  std::shared_ptr<obs::Obs> obs_ptr() const { return obs_; }
  /// Merged grouping statistics (§III instrumentation); same ascending
  /// shard-order snapshot convention as metrics().
  GroupingStats grouping_stats() const;
  const http::RuleBook& rules() const { return rules_; }

  /// Server-side storage the scheme requires: working + published bases and
  /// selector samples across all classes of all shards (the paper's
  /// scalability metric). Counts document bytes only, not the match
  /// indexes built over them (delta::Encoder::index_bytes()).
  std::size_t storage_bytes() const;

  /// Merged operational snapshot of every class, ordered by class id.
  std::vector<ClassSummary> class_summaries() const;

  /// What classless delta-encoding would store instead: one base-file per
  /// distinct (user, URL) pair seen.
  std::size_t classless_storage_bytes() const;

  std::size_t num_classes() const;
  std::size_t num_shards() const { return shards_.size(); }

  /// Shard index for a partition pair: crc32 over server-part, one NUL
  /// separator, hint-part — the in-tree slice-by-8, zlib-compatible crc32,
  /// so the assignment is identical across runs, platforms and standard
  /// libraries (std::hash<std::string> guarantees none of that). Exposed
  /// static for tests and capacity tooling.
  static std::size_t route(std::string_view server_part, std::string_view hint_part,
                           std::size_t num_shards);
  /// Owning shard of a class id (ids are striped id_first + k * shards).
  std::size_t shard_of_class(ClassId id) const;

 private:
  DeltaServerConfig config_;  // immutable after construction
  http::RuleBook rules_;      // immutable after construction
  std::shared_ptr<obs::Obs> obs_;  // immutable after construction
  ServerInstruments instr_;        // immutable after construction
  /// Construction order matters: shards_ must outlive nothing above (they
  /// hold references to config_ and instr_), so it is declared last and
  /// destroyed first.
  std::vector<std::unique_ptr<DeltaServerShard>> shards_;
};

}  // namespace cbde::core
