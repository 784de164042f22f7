#include "core/delta_server.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace cbde::core {

DeltaServer::DeltaServer(DeltaServerConfig config, http::RuleBook rules,
                         std::unique_ptr<BaseStore> store)
    : config_(std::move(config)),
      rules_(std::move(rules)),
      obs_(config_.obs_instance ? config_.obs_instance
                                : std::make_shared<obs::Obs>(config_.obs)) {
  CBDE_EXPECT(config_.shards >= 1);
  // The explicit-store parameter predates sharding; one store cannot be
  // split, so it is only accepted unsharded. Sharded deployments hand each
  // shard its own store via DeltaServerConfig::store_factory.
  CBDE_EXPECT(store == nullptr || config_.shards == 1);

  // Registry instruments are the scrape-side mirror of the per-shard ledgers
  // (metrics() itself merges the ledgers), registered once here and shared
  // by every shard — the registry is name-keyed with no labels, so a
  // per-shard registration would collide. Names follow
  // cbde_<layer>_<name>[_unit] — tools/lint/cbde_lint.py enforces the shape,
  // docs/OBSERVABILITY.md holds the catalog.
  auto& reg = obs_->registry();
  instr_.requests =
      &reg.counter("cbde_server_requests_total", "Requests served");
  instr_.direct_responses = &reg.counter("cbde_server_direct_responses_total",
                                         "Responses sent as the full document");
  instr_.delta_responses = &reg.counter("cbde_server_delta_responses_total",
                                        "Responses sent as a compressed delta");
  instr_.direct_bytes =
      &reg.counter("cbde_server_direct_bytes_total",
                   "Bytes a full-transfer server would have sent (Direct KB)");
  instr_.wire_bytes = &reg.counter("cbde_server_wire_bytes_total",
                                   "Response bytes actually sent (Delta KB)");
  instr_.base_wire_bytes =
      &reg.counter("cbde_server_base_wire_bytes_total",
                   "Base-file distribution bytes charged to the server");
  instr_.group_rebases =
      &reg.counter("cbde_server_group_rebases_total", "Group-rebases (§IV)");
  instr_.basic_rebases =
      &reg.counter("cbde_server_basic_rebases_total", "Basic-rebases (§IV)");
  instr_.anonymizations = &reg.counter("cbde_server_anonymizations_total",
                                       "Anonymization processes completed (§V)");
  instr_.classes_created =
      &reg.counter("cbde_server_classes_created_total", "Classes created");
  instr_.delta_fallbacks = &reg.counter(
      "cbde_server_delta_fallbacks_total",
      "Deltas discarded for being no smaller than the document itself");
  instr_.cpu_us = &reg.double_counter("cbde_server_cpu_microseconds_total",
                                      "Modeled delta-server CPU (§VI-C)");
  instr_.classes = &reg.gauge("cbde_server_classes", "Live classes");
  instr_.storage =
      &reg.gauge("cbde_server_storage_bytes",
                 "Server-side footprint as of the last storage_bytes() audit");
  instr_.encode_latency =
      &obs_->histogram("cbde_server_encode_latency_microseconds",
                       "Wall time of one delta encode against the published base");
  instr_.delta_size = &obs_->histogram("cbde_server_delta_size_bytes",
                                       "Uncompressed delta size per delta response");
  instr_.doc_size = &obs_->histogram("cbde_server_doc_size_bytes",
                                     "Full document size per request");
  instr_.selector.observed =
      &reg.counter("cbde_selector_observed_total",
                   "Documents shown to the base-file selectors (§IV)");
  instr_.selector.sampled = &reg.counter("cbde_selector_sampled_total",
                                         "Documents admitted as base candidates");
  instr_.selector.evictions =
      &reg.counter("cbde_selector_evictions_total", "Candidate evictions");
  instr_.anonymizer.begins = &reg.counter("cbde_anonymizer_begins_total",
                                          "Anonymization processes started (§V)");
  instr_.anonymizer.docs_observed =
      &reg.counter("cbde_anonymizer_docs_observed_total",
                   "Documents counted toward an anonymization's N");

  // Per-shard series: the registry is label-free, so the shard index becomes
  // a name segment (obs::shard_metric_name). Registered here — once, at a
  // single site — and indexed by the shards on the serve path.
  instr_.shard_requests.reserve(config_.shards);
  instr_.shard_serve.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    instr_.shard_requests.push_back(
        &reg.counter(obs::shard_metric_name("cbde_shard_requests_total", i),
                     "Requests served by this shard"));
    instr_.shard_serve.push_back(
        &obs_->histogram(obs::shard_metric_name("cbde_shard_serve_microseconds", i),
                         "Wall time of one serve() on this shard"));
  }
  if (obs_->config().lock_profile) {
    instr_.shard_lock = &obs_->lock_wait_profile(
        "cbde_lock_wait_seconds_server_shard",
        "Wait to acquire a shard mutex (one site shared by all shards)");
  }

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    std::unique_ptr<BaseStore> shard_store =
        store != nullptr      ? std::move(store)
        : config_.store_factory ? config_.store_factory(i)
                                : std::make_unique<MemoryBaseStore>();
    CBDE_EXPECT(shard_store != nullptr);
    shards_.push_back(std::make_unique<DeltaServerShard>(
        config_, i, /*id_stride=*/config_.shards, std::move(shard_store), *obs_,
        instr_));
  }
}

std::size_t DeltaServer::route(std::string_view server_part, std::string_view hint_part,
                               std::size_t num_shards) {
  CBDE_EXPECT(num_shards >= 1);
  if (num_shards == 1) return 0;
  const auto as_bytes = [](std::string_view s) {
    return util::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  // crc32 chains like zlib's: crc32(b, crc32(a)) == crc32(a + b). The NUL
  // separator keeps ("ab", "c") and ("a", "bc") independent.
  static constexpr std::uint8_t kSep = 0;
  std::uint32_t h = util::crc32(as_bytes(server_part));
  h = util::crc32(util::BytesView(&kSep, 1), h);
  h = util::crc32(as_bytes(hint_part), h);
  return h % num_shards;
}

std::size_t DeltaServer::shard_of_class(ClassId id) const {
  // Ids start at 1 and stripe as index + 1 + k * shards; map the "no class"
  // id 0 to shard 0 so lookups on it fall through to a clean miss there.
  return id == 0 ? 0 : static_cast<std::size_t>((id - 1) % shards_.size());
}

ServedResponse DeltaServer::serve(std::uint64_t user_id, const http::Url& url,
                                  util::BytesView doc, util::SimTime now) {
  CBDE_EXPECT(!url.host.empty());
  CBDE_EXPECT(now >= 0);
  return serve(user_id, url, doc, now, obs_->maybe_trace());
}

ServedResponse DeltaServer::serve(std::uint64_t user_id, const http::Url& url,
                                  util::BytesView doc, util::SimTime now,
                                  std::shared_ptr<obs::TraceContext> trace) {
  CBDE_EXPECT(!url.host.empty());
  CBDE_EXPECT(now >= 0);
  // Partitioning is pure (the RuleBook is immutable), so it runs before any
  // lock; the same parts then both pick the shard and feed grouping.
  const http::UrlParts parts = rules_.partition(url);
  DeltaServerShard& shard =
      *shards_[route(parts.server_part, parts.hint_part, shards_.size())];
  return shard.serve(user_id, parts, url, doc, now, std::move(trace));
}

std::optional<PublishedBase> DeltaServer::published_base(ClassId id) const {
  return shards_[shard_of_class(id)]->published_base(id);
}

std::optional<util::Bytes> DeltaServer::fetch_base(ClassId id,
                                                   std::uint32_t version) const {
  return shards_[shard_of_class(id)]->fetch_base(id, version);
}

const BaseStore& DeltaServer::base_store(std::size_t shard) const {
  CBDE_EXPECT(shard < shards_.size());
  return shards_[shard]->store();
}

std::size_t DeltaServer::store_entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->store().entries();
  return total;
}

std::size_t DeltaServer::store_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->store().bytes_stored();
  return total;
}

PipelineMetrics DeltaServer::metrics() const {
  PipelineMetrics merged;
  for (const auto& shard : shards_) merged.merge(shard->ledger());
  return merged;
}

PipelineMetrics DeltaServer::shard_metrics(std::size_t shard) const {
  CBDE_EXPECT(shard < shards_.size());
  return shards_[shard]->ledger();
}

GroupingStats DeltaServer::grouping_stats() const {
  GroupingStats merged;
  for (const auto& shard : shards_) merged.merge(shard->grouping_stats());
  return merged;
}

std::size_t DeltaServer::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->storage_bytes();
  // The gauge mirrors the last audit; per-request maintenance would cost a
  // full class walk on the hot path for a number only scrapes care about.
  instr_.storage->set(static_cast<std::int64_t>(total));
  return total;
}

std::vector<ClassSummary> DeltaServer::class_summaries() const {
  std::vector<ClassSummary> out;
  for (const auto& shard : shards_) shard->append_class_summaries(out);
  // Shards stripe the id space, so per-shard output interleaves; present one
  // id-ordered view regardless of shard count.
  std::sort(out.begin(), out.end(),
            [](const ClassSummary& a, const ClassSummary& b) { return a.id < b.id; });
  return out;
}

std::size_t DeltaServer::classless_storage_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->classless_storage_bytes();
  return total;
}

std::size_t DeltaServer::num_classes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_classes();
  return total;
}

DeltaServerShard::DeltaServerShard(const DeltaServerConfig& config, std::size_t index,
                                   ClassId id_stride, std::unique_ptr<BaseStore> store,
                                   obs::Obs& obs, const ServerInstruments& instr)
    : config_(config),
      index_(index),
      store_(std::move(store)),
      obs_(obs),
      instr_(instr),
      classes_(config.grouping, config.seed ^ 0x9E3779B97F4A7C15ull,
               /*id_first=*/static_cast<ClassId>(index) + 1, id_stride) {
  CBDE_EXPECT(index_ < id_stride);  // id_stride is the server's shard count
  CBDE_EXPECT(store_ != nullptr);
  // Opt-in lock-wait profiling: all shard mutexes share one cell (the
  // "server_shard" site), wired before any request can contend the mutex.
  if (instr_.shard_lock != nullptr) mu_.attach_wait_profile(instr_.shard_lock);
}

DeltaServerShard::ClassState& DeltaServerShard::state_of(ClassId id) {
  auto it = states_.find(id);
  if (it == states_.end()) {
    // The seed comes from the class's identity (ClassManager::class_seed),
    // not from a shard-local RNG stream, so the selector draws the same
    // sampling decisions for the same class at any shard count.
    // alloc: ok(ClassState is built once per class creation, never per request)
    auto created = std::make_unique<ClassState>(config_, classes_.class_seed(id));
    // alloc: ok(one state node per class, amortized across the class's requests)
    it = states_.emplace(id, std::move(created)).first;
    it->second->selector.set_instruments(instr_.selector);
    it->second->anonymizer.set_instruments(instr_.anonymizer);
  }
  return *it->second;
}

std::shared_ptr<const delta::Encoder> DeltaServerShard::make_working_encoder(
    util::BytesView doc) const {
  // sema: ok(light-param index built only at class create/rebase, never per request; amortized off the hot path)
  return std::make_shared<const delta::Encoder>(util::Bytes(doc.begin(), doc.end()),
                                                config_.grouping.light_params);
}

void DeltaServerShard::start_publication(ClassId id, ClassState& cls,
                                         util::SimTime now) {
  if (!config_.anonymize) {
    // No privacy requirement: publish the working base immediately. The
    // transmit encoder aliases the working encoder's base (shared_base is a
    // refcount bump) — only the full-param index is built, the document is
    // not copied.
    // sema: ok(transmit index built only on publication (class create/rebase), not per request)
    cls.transmit_encoder = std::make_shared<const delta::Encoder>(
        cls.working_encoder->shared_base(), config_.transmit_params);
    ++cls.published_version;
    record_publication(id, cls, now);
    cls.last_group_rebase = now;
    return;
  }
  cls.anonymizer.begin(cls.working_encoder->shared_base(), cls.working_owner);
}

void DeltaServerShard::maybe_complete_publication(ClassId id, ClassState& cls,
                                                  util::SimTime now) {
  if (!cls.anonymizer.ready()) return;
  // sema: ok(transmit index rebuilt only when an anonymization round completes, not per request)
  cls.transmit_encoder = std::make_shared<const delta::Encoder>(
      cls.anonymizer.finalize(), config_.transmit_params);
  ++cls.published_version;
  record_publication(id, cls, now);
  cls.last_group_rebase = now;
  instr_.anonymizations->inc();
  ++ledger_.anonymizations_completed;
  obs_.emit(obs::EventKind::kAnonymizationComplete, now, id,
            {{"version", std::to_string(cls.published_version)}});
}

void DeltaServerShard::record_publication(ClassId id, ClassState& cls,
                                          util::SimTime now) {
  store_->put(id, cls.published_version, util::as_view(cls.transmit_encoder->base()));
  cls.retained_versions.push_back(cls.published_version);
  while (cls.retained_versions.size() > config_.published_history) {
    store_->erase(id, cls.retained_versions.front());
    cls.retained_versions.erase(cls.retained_versions.begin());
  }
  obs_.emit(obs::EventKind::kBasePublished, now, id,
            {{"version", std::to_string(cls.published_version)},
             {"size", std::to_string(cls.transmit_encoder->base().size())}});
}

ServedResponse DeltaServerShard::serve(std::uint64_t user_id,
                                       const http::UrlParts& parts,
                                       const http::Url& url, util::BytesView doc,
                                       util::SimTime now,
                                       std::shared_ptr<obs::TraceContext> trace) {
  ServedResponse out;
  out.doc_size = doc.size();
  out.shard = index_;
  const std::uint64_t serve_start = obs::now_us();
  obs::TraceContext* tc = trace.get();
  obs::Span serve_span(tc, "serve");
  instr_.doc_size->observe(doc.size());
  instr_.shard_requests[index_]->inc();

  // Phase 1 — locked: bookkeeping, grouping, selector/anonymizer feeding,
  // publication progress; ends by snapshotting the class's published-base
  // encoder so the expensive encode can run outside the lock. The lock is
  // this shard's — requests routed to other shards never wait here.
  ClassState* cls_ptr = nullptr;
  std::shared_ptr<const delta::Encoder> transmit;
  std::uint32_t snap_version = 0;
  {
    obs::Span group_span(tc, "group");
    const LockGuard lock(mu_);
    instr_.requests->inc();
    ++ledger_.requests;
    instr_.direct_bytes->add(doc.size());
    ledger_.direct_bytes += doc.size();

    // Classless-storage bookkeeping: basic delta-encoding would store one
    // base-file per (user, URL). The key chains fnv1a64 over the URL fields
    // (FNV is byte-sequential, so chaining equals hashing the concatenation)
    // — the old url.to_string() materialized a heap string under mu_ on
    // every request just to hash it.
    {
      constexpr std::string_view kFieldSep{"\0", 1};
      std::uint64_t key = util::fnv1a64(url.scheme, user_id ^ 0xABCDEF12345ull);
      key = util::fnv1a64(kFieldSep, key);
      key = util::fnv1a64(url.host, key);
      key = util::fnv1a64(kFieldSep, key);
      key = util::fnv1a64(url.path, key);
      key = util::fnv1a64(kFieldSep, key);
      key = util::fnv1a64(url.query, key);
      // alloc: ok(one ledger node per distinct classless URL; repeat requests hit the existing node)
      auto [it, inserted] = classless_docs_.try_emplace(key, doc.size());
      const std::size_t previous = inserted ? 0 : it->second;
      classless_storage_bytes_ += doc.size();
      classless_storage_bytes_ -= previous;
      it->second = doc.size();
    }

    // 1. Group the request into a class (the URL was already partitioned —
    // and routed — by the server). Probes run against the cached per-class
    // light encoders — no index is built here. The probe callback runs
    // synchronously inside group() with mu_ held, but the analysis cannot
    // see into the lambda, so it reaches the class table through a local
    // alias established under the lock.
    const auto& states = states_;
    const auto decision =
        // sema: ok(probe callback runs synchronously inside group() while mu_ is held; ClassManager never stores it)
        classes_.group(parts, doc, [&states](ClassId id) -> const delta::Encoder* {
          const auto it = states.find(id);
          return it == states.end() ? nullptr : it->second->working_encoder.get();
        });
    out.class_id = decision.id;
    out.class_created = decision.created;
    out.grouping_tries = decision.tries;
    group_span.tag("class", std::to_string(decision.id));
    group_span.tag("created", decision.created ? "true" : "false");
    group_span.tag("tries", std::to_string(decision.tries));
    if (decision.created) {
      instr_.classes_created->inc();
      // add(), not set(): the gauge is shared by all shards (classes are
      // never destroyed, so creations == live classes).
      instr_.classes->add(1);
      obs_.emit(obs::EventKind::kClassCreated, now, decision.id,
                {{"user", std::to_string(user_id)},
                 {"tries", std::to_string(decision.tries)}});
    }

    ClassState& cls = state_of(decision.id);
    // sema: ok(ClassState nodes are never erased; phase 2 reads only the immutable encoder snapshot and phase 3 retakes mu_ before touching fields)
    cls_ptr = &cls;
    const bool creating = decision.created || cls.working_encoder == nullptr;
    if (creating) {
      cls.working_encoder = make_working_encoder(doc);
      cls.working_owner = user_id;
      cls.selector.admit(doc);
      start_publication(decision.id, cls, now);
    } else {
      // 2. Feed the selector and any in-progress anonymization.
      cls.selector.observe(doc);
      cls.anonymizer.observe(user_id, doc);
      maybe_complete_publication(decision.id, cls, now);
    }

    // 3. Decide the response. The request that creates a class is always
    // served directly: its document just became the (un-anonymized) base.
    if (cls.published_version > 0 && !creating) {
      transmit = cls.transmit_encoder;
      snap_version = cls.published_version;
    }
  }

  // Phase 2 — unlocked: delta encode + compression against the snapshot.
  // A concurrent rebase may replace the class's encoder meanwhile; the
  // shared_ptr keeps this one alive and the response reports snap_version.
  bool serve_delta = transmit != nullptr;
  util::Bytes delta_wire;
  bool large_delta = false;
  if (serve_delta) {
    obs::Span encode_span(tc, "encode");
    const std::uint64_t encode_start = obs::now_us();
    auto encoded = transmit->encode(doc);
    instr_.encode_latency->observe(obs::now_us() - encode_start);
    out.delta_size = encoded.delta.size();
    instr_.delta_size->observe(encoded.delta.size());
    out.cpu_us += config_.cpu.cost(transmit->base().size(), doc.size(),
                                   encoded.delta.size());
    large_delta = static_cast<double>(out.delta_size) >
                  config_.basic_rebase_ratio * static_cast<double>(doc.size());
    encode_span.tag("delta_bytes", std::to_string(encoded.delta.size()));
    encode_span.end();
    obs::Span compress_span(tc, "compress");
    delta_wire = config_.compress_deltas
                     ? compress::compress(util::as_view(encoded.delta),
                                          config_.compress_params)
                     : std::move(encoded.delta);
    compress_span.tag("wire_bytes", std::to_string(delta_wire.size()));
    // A delta larger than the document itself is useless; fall back.
    if (delta_wire.size() >= doc.size()) {
      serve_delta = false;
      instr_.delta_fallbacks->inc();
    }
  } else {
    out.cpu_us += config_.cpu.fixed_us;
  }

  // Materialize the response body before retaking the lock: the direct path
  // copies the full document, and that memcpy used to run inside the phase-3
  // critical section (sema-copy: heavy copy under mu_).
  if (serve_delta) {
    out.mode = ServedResponse::Mode::kDelta;
    out.wire_body = std::move(delta_wire);
    out.wire_compressed = config_.compress_deltas;
  } else {
    out.mode = ServedResponse::Mode::kDirect;
    out.wire_body.assign(doc.begin(), doc.end());
  }

  // Phase 3 — locked: commit the response, then the rebase decisions.
  {
    obs::Span commit_span(tc, "commit");
    const LockGuard lock(mu_);
    ClassState& cls = *cls_ptr;
    if (serve_delta) {
      out.base_version = snap_version;
      const auto key = std::make_pair(user_id, out.class_id);
      const auto it = client_versions_.find(key);
      if (it == client_versions_.end() || it->second != snap_version) {
        out.base_needed = true;
        out.base_size = transmit->base().size();
        // alloc: ok(per-(user, class) version ledger: a node inserts only on a base handoff)
        client_versions_[key] = snap_version;
      }
      instr_.delta_responses->inc();
      ++ledger_.delta_responses;
    } else {
      instr_.direct_responses->inc();
      ++ledger_.direct_responses;
    }
    // A delta response is only worth sending if it beats the document.
    CBDE_ASSERT_INVARIANT(out.mode == ServedResponse::Mode::kDirect ||
                          out.wire_body.size() < out.doc_size);
    instr_.wire_bytes->add(out.wire_body.size());
    ledger_.wire_bytes += out.wire_body.size();
    if (out.base_needed) {
      instr_.base_wire_bytes->add(out.base_size);
      ledger_.base_wire_bytes += out.base_size;
    }
    instr_.cpu_us->add(out.cpu_us);
    ledger_.cpu_us_total += out.cpu_us;

    // 4. Basic-rebase: consecutive relatively-large deltas flush the class.
    if (cls.published_version > 0) {
      cls.consecutive_large_deltas = large_delta ? cls.consecutive_large_deltas + 1 : 0;
      if (cls.consecutive_large_deltas >= config_.basic_rebase_after) {
        cls.consecutive_large_deltas = 0;
        cls.working_encoder = make_working_encoder(doc);
        cls.working_owner = user_id;
        cls.selector.flush();  // "all K stored documents are flushed"
        cls.selector.admit(doc);
        start_publication(out.class_id, cls, now);
        out.basic_rebase = true;
        instr_.basic_rebases->inc();
        ++ledger_.basic_rebases;
        obs_.emit(obs::EventKind::kBasicRebase, now, out.class_id,
                  {{"delta_size", std::to_string(out.delta_size)},
                   {"doc_size", std::to_string(out.doc_size)}});
      }
    }

    // 5. Group-rebase: a better candidate exists and the timeout has expired.
    if (!out.basic_rebase && !cls.anonymizer.in_progress() &&
        now - cls.last_group_rebase >= config_.rebase_timeout) {
      if (const util::Bytes* best = cls.selector.best();
          best != nullptr && *best != cls.working_encoder->base()) {
        cls.working_encoder = make_working_encoder(util::as_view(*best));
        cls.working_owner = user_id;  // conservatively exclude the requester
        start_publication(out.class_id, cls, now);
        out.group_rebase = true;
        instr_.group_rebases->inc();
        ++ledger_.group_rebases;
        obs_.emit(obs::EventKind::kGroupRebase, now, out.class_id,
                  {{"base_size", std::to_string(best->size())}});
        // Avoid immediate re-trigger while the new base awaits anonymization.
        cls.last_group_rebase = now;
      }
    }
    commit_span.tag("mode",
                    out.mode == ServedResponse::Mode::kDelta ? "delta" : "direct");
    if (out.group_rebase) commit_span.tag("group_rebase", "true");
    if (out.basic_rebase) commit_span.tag("basic_rebase", "true");
  }
  serve_span.tag("class", std::to_string(out.class_id));
  serve_span.tag("bytes_in", std::to_string(out.doc_size));
  serve_span.tag("bytes_out", std::to_string(out.wire_body.size()));
  if (out.base_needed) serve_span.tag("base_bytes", std::to_string(out.base_size));
  serve_span.end();
  instr_.shard_serve[index_]->observe(obs::now_us() - serve_start);
  out.trace = std::move(trace);
  return out;
}

std::optional<PublishedBase> DeltaServerShard::published_base(ClassId id) const {
  const LockGuard lock(mu_);
  const auto it = states_.find(id);
  if (it == states_.end() || it->second->published_version == 0) return std::nullopt;
  // Hand out a shared_ptr snapshot alongside the view: the encoder (and the
  // base bytes the view points into) stay alive even if a rebase swaps
  // transmit_encoder right after the lock drops.
  std::shared_ptr<const delta::Encoder> keep = it->second->transmit_encoder;
  return PublishedBase{it->second->published_version, util::as_view(keep->base()),
                       std::move(keep)};
}

std::optional<util::Bytes> DeltaServerShard::fetch_base(ClassId id,
                                                        std::uint32_t version) const {
  // Hot path: the current version is cached in memory. Snapshot the shared
  // base handle under the lock (a refcount bump); the caller's owning copy
  // is materialized — and the store fallback runs (BaseStore is internally
  // synchronized) — after mu_ drops. The full-buffer copy used to happen
  // inside the critical section.
  std::shared_ptr<const util::Bytes> cached;
  {
    const LockGuard lock(mu_);
    const auto it = states_.find(id);
    if (it != states_.end() && it->second->published_version == version &&
        version != 0) {
      cached = it->second->transmit_encoder->shared_base();
    }
  }
  if (cached != nullptr) return *cached;
  return store_->get(id, version);
}

void DeltaServerShard::append_class_summaries(std::vector<ClassSummary>& out) const {
  const LockGuard lock(mu_);
  out.reserve(out.size() + states_.size());
  for (const auto& [id, cls] : states_) {
    ClassSummary summary;
    summary.id = id;
    summary.members = classes_.members_of(id);
    summary.published_version = cls->published_version;
    summary.published_size =
        cls->transmit_encoder ? cls->transmit_encoder->base().size() : 0;
    summary.working_size =
        cls->working_encoder ? cls->working_encoder->base().size() : 0;
    summary.selector_samples = cls->selector.stored();
    summary.anonymizing = cls->anonymizer.in_progress();
    out.push_back(summary);
  }
}

std::size_t DeltaServerShard::storage_bytes() const {
  const LockGuard lock(mu_);
  // Retained published versions live in the base store (the in-memory copy
  // of each current base is a cache, not extra footprint).
  std::size_t total = store_->bytes_stored();
  for (const auto& [id, cls] : states_) {
    total += cls->working_encoder ? cls->working_encoder->base().size() : 0;
    total += cls->anonymizer.in_progress() ? cls->anonymizer.pending_base().size() : 0;
    // Selector samples are part of the server-side footprint too.
    total += cls->selector.stored_bytes();
  }
  return total;
}

}  // namespace cbde::core
