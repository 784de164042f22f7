// table2 — the paper's three Table II catalog sites, replayed by one caller
// in a closed loop through origin -> DeltaServer::serve -> base fetch through
// the proxy LruCache -> ClientAgent::reconstruct, with the default server
// config. One round replays the seeded trace on a fresh stack; a run is as
// many whole rounds as fit in --seconds.
//
// On the clock: serve, the base fetch (proxy get, origin fetch_base and
// proxy put on a miss, store_base) and reconstruct. Off the clock: origin
// document generation and the benchmark's own checks.
#include <algorithm>
#include <map>
#include <memory>

#include "alloc_hook.hpp"
#include "client/agent.hpp"
#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "proxy/cache.hpp"
#include "server/origin.hpp"
#include "trace/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cbde;

/// Latency percentiles and rates are taken per window of this many
/// consecutive requests and reported as the median across windows.
constexpr std::size_t kWindow = 1000;
/// One of the paper's Table II rows. The sites themselves are withheld in
/// the paper; these are the repo's synthetic stand-ins with the published
/// request counts and document sizes (bench/bench_table2_bandwidth.cpp).
struct SiteSpec {
  const char* label;
  std::size_t paper_requests;
  double paper_savings;  // percent
  std::size_t num_users;
  trace::SiteConfig site;
};

/// A round replays 1/kScale of each site's published request count, so one
/// round takes a few seconds and a run holds several whole rounds.
constexpr std::size_t kScale = 8;
/// Savings floor per site: the paper's value less this many points. A 1/8
/// replay carries eight times the paper's cold-start share (class creation
/// and anonymization windows are served direct), which costs site 2, the
/// smallest, about seven points.
constexpr double kFloorMargin = 10.0;
/// User ids of site k are offset by k * kUserStride so the three sites'
/// populations stay disjoint behind one delta-server.
constexpr std::uint64_t kUserStride = 1'000'000;
/// Requests of the trace replayed once on a throwaway stack during set-up.
constexpr std::size_t kWarmupRequests = 300;

trace::TemplateConfig catalog_template(std::size_t page_bytes) {
  trace::TemplateConfig config;
  config.skeleton_bytes = page_bytes * 82 / 100;
  config.doc_unique_bytes = page_bytes * 28 / 1000;
  config.volatile_bytes = page_bytes * 14 / 1000;
  config.personal_bytes = page_bytes * 8 / 1000;
  config.cohort_bytes = page_bytes * 6 / 1000;
  config.private_bytes = 96;
  config.num_sections = 10;
  return config;
}

std::vector<SiteSpec> table2_sites() {
  std::vector<SiteSpec> specs;
  {
    SiteSpec spec{"site1", 16407, 94.8, 600, {}};
    spec.site.host = "www.site1.example";
    spec.site.style = trace::UrlStyle::kPathSegment;
    spec.site.categories = {"laptops", "desktops", "monitors", "printers"};
    spec.site.docs_per_category = 60;
    spec.site.doc_template = catalog_template(45 * 1024);
    spec.site.seed = 1001;
    specs.push_back(spec);
  }
  {
    SiteSpec spec{"site2", 1476, 95.0, 120, {}};
    spec.site.host = "www.site2.example";
    spec.site.style = trace::UrlStyle::kQueryParam;
    spec.site.categories = {"news", "sports"};
    spec.site.docs_per_category = 40;
    spec.site.doc_template = catalog_template(34 * 1024);
    spec.site.seed = 1002;
    specs.push_back(spec);
  }
  {
    SiteSpec spec{"site3", 7460, 97.1, 300, {}};
    spec.site.host = "www.site3.example";
    spec.site.style = trace::UrlStyle::kPathOnly;
    spec.site.categories = {"articles", "archive", "topics"};
    spec.site.docs_per_category = 50;
    auto& tc = spec.site.doc_template;
    tc = catalog_template(31 * 1024);
    tc.doc_unique_bytes = 31 * 1024 * 15 / 1000;
    tc.personal_bytes = 0;
    tc.cohort_bytes = 0;
    tc.private_bytes = 0;
    spec.site.seed = 1003;
    specs.push_back(spec);
  }
  return specs;
}

struct Request {
  std::size_t site = 0;
  std::uint64_t user = 0;
  http::Url url;
  util::SimTime time = 0;
};

struct Setup {
  std::vector<SiteSpec> specs;
  std::vector<std::unique_ptr<trace::SiteModel>> sites;  // outlive origin
  std::unique_ptr<server::OriginServer> origin;
  http::RuleBook rules;
  std::vector<Request> trace;
};

/// Per-site byte sums for the savings floor.
struct SiteBytes {
  std::uint64_t direct = 0;
  std::uint64_t sent = 0;
};

struct RoundResult {
  Ledger ledger;
  std::vector<SiteBytes> site_bytes;
  std::size_t storage_bytes = 0;
};

class Table2 {
 public:
  Table2(const Args& args, Outcome& out) : args_(args), out_(out) {}

  std::unique_ptr<Setup> setup() {
    auto s = std::make_unique<Setup>();
    s->specs = table2_sites();
    s->origin = std::make_unique<server::OriginServer>();
    for (std::size_t k = 0; k < s->specs.size(); ++k) {
      const SiteSpec& spec = s->specs[k];
      s->sites.push_back(std::make_unique<trace::SiteModel>(spec.site));
      const trace::SiteModel& site = *s->sites.back();
      s->origin->add_site(site);
      s->rules.add_rule(spec.site.host, site.partition_rule());

      trace::WorkloadConfig w;
      w.num_requests = spec.paper_requests / kScale;
      w.num_users = spec.num_users;
      w.zipf_alpha = 1.0;
      w.revisit_prob = 0.6;
      w.seed = args_.seed * 7919 + spec.site.seed;
      for (const trace::Request& r : trace::WorkloadGenerator(site, w).generate()) {
        s->trace.push_back(Request{k, r.user_id + k * kUserStride, r.url, r.time});
      }
    }
    std::stable_sort(s->trace.begin(), s->trace.end(),
                     [](const Request& a, const Request& b) { return a.time < b.time; });
    // Warm the allocator, the code and the origin's templates on a
    // throwaway stack; its outputs are checked like any round's.
    Outcome scratch;
    LayerReport unused;
    Samples unused_pages;
    run_round(*s, std::min(kWarmupRequests, s->trace.size()), false, scratch, unused,
              unused_pages);
    if (!scratch.correct) throw std::runtime_error("table2 warmup produced wrong output");
    return s;
  }

  /// Replay the first `n` requests of the trace on a fresh stack.
  RoundResult run_round(const Setup& s, std::size_t n, bool traced, Outcome& out,
                        LayerReport& report, Samples& pages) {
    core::DeltaServerConfig config;
    if (traced) {
      // Every other request carries the server's spans; the other half is
      // untraced, which is where allocations are counted.
      config.obs.sample_rate = 0.5;
      config.obs.lock_profile = true;
    }
    core::DeltaServer server(config, s.rules);
    proxy::LruCache cache(64 * 1024 * 1024);
    std::map<std::uint64_t, client::ClientAgent> clients;
    // Traced runs re-execute reconstruct as decompress + apply; they need
    // the base each client holds.
    std::map<std::pair<core::ClassId, std::uint32_t>, util::Bytes> bases;

    RoundResult result;
    result.site_bytes.resize(s.specs.size());
    LayerTable& layers = report.layers;
    std::uint64_t wall_ns = 0;
    std::uint64_t untraced_serves = 0;
    std::uint64_t core_allocs = 0;
    std::uint64_t client_allocs = 0;

    std::uint64_t mark = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const Request& req = s.trace[i];
      std::uint64_t t = now_ns();
      const auto doc = s.origin->document(req.url, req.user, req.time);
      if (traced) layers.add("server.document", now_ns() - t);
      if (!doc) {
        out.wrong("origin has no document for " + req.url.to_string());
        continue;
      }

      const std::uint64_t a0 = traced ? bench::alloc_count() : 0;
      const std::uint64_t t0 = now_ns();
      core::ServedResponse resp = server.serve(req.user, req.url, util::as_view(*doc), req.time);
      const std::uint64_t t1 = now_ns();
      const std::uint64_t a1 = traced ? bench::alloc_count() : 0;
      if (traced) {
        layers.add("core.serve", t1 - t0);
        if (resp.trace != nullptr) {
          layers.add_spans(*resp.trace);
        } else {
          ++untraced_serves;
          core_allocs += a1 - a0;
        }
      }

      client::ClientAgent& agent = clients[req.user];
      const bool is_delta = resp.mode == core::ServedResponse::Mode::kDelta;
      const client::BaseRef ref{resp.class_id, resp.base_version};
      util::Bytes rebuilt;
      std::uint64_t origin_base = 0;
      std::uint64_t t2 = t1;
      std::uint64_t t3 = t1;
      if (is_delta) {
        if (resp.base_needed) {
          // The client asks the proxy for the published base-file; on a
          // miss the proxy fetches it from the origin and keeps it.
          const std::string key = "class" + std::to_string(resp.class_id) + "/v" +
                                  std::to_string(resp.base_version);
          std::uint64_t p = now_ns();
          std::optional<util::Bytes> base;
          if (const auto hit = cache.get(key)) base = util::Bytes(hit->begin(), hit->end());
          if (traced) layers.add("proxy.get", now_ns() - p);
          if (!base) {
            base = server.fetch_base(resp.class_id, resp.base_version);
            if (!base) {
              ++out.failed;
              out.note("base-file missing for class " + std::to_string(resp.class_id));
              continue;
            }
            origin_base = base->size();
            p = now_ns();
            cache.put(key, *base);
            if (traced) layers.add("proxy.put", now_ns() - p);
          }
          if (base->size() != resp.base_size) out.wrong("base-file size differs from base_size");
          if (traced) bases.try_emplace({resp.class_id, resp.base_version}, *base);
          agent.store_base(ref, std::move(*base));
        }
        t2 = now_ns();
        try {
          rebuilt = agent.reconstruct(ref, util::as_view(resp.wire_body), resp.wire_compressed);
        } catch (const std::exception& e) {
          ++out.failed;
          out.note(std::string("reconstruct failed: ") + e.what());
          continue;
        }
        t3 = now_ns();
      }
      const std::uint64_t a3 = traced ? bench::alloc_count() : 0;
      pages.add(static_cast<double>(t3 - t0) / 1e3);
      if (traced) {
        if (resp.base_needed) layers.add("client.base_fetch", t2 - t1);
        if (is_delta) layers.add("client.reconstruct", t3 - t2);
        client_allocs += a3 - a1;
        wall_ns += now_ns() - mark;
        if (is_delta) split_reconstruct(bases, agent, resp, layers);
      }

      // Checks against the origin's document, made apart from the program.
      if (is_delta) {
        if (rebuilt != *doc) out.wrong("reconstruction differs from the origin document");
        if (resp.wire_body.size() >= doc->size()) out.wrong("delta body not smaller than document");
      } else if (resp.wire_body != *doc) {
        out.wrong("direct body differs from the origin document");
      }
      result.ledger.count(resp);
      result.ledger.origin_base_bytes += origin_base;
      result.site_bytes[req.site].direct += doc->size();
      result.site_bytes[req.site].sent += resp.wire_body.size() + origin_base;
      if (traced) mark = now_ns();
    }
    check_ledger(result.ledger, server.metrics(), "table2 round", out);
    result.storage_bytes = server.storage_bytes();
    if (traced) {
      report.counts.add_round(server, result.ledger);
      layer_wall_ns_ += wall_ns;
      untraced_serves_ += untraced_serves;
      core_allocs_ += core_allocs;
      client_allocs_ += client_allocs;
      cache_hits_ += cache.stats().hits;
      cache_lookups_ += cache.stats().hits + cache.stats().misses;
    }
    return result;
  }

  /// Off the loop clock: time compress::decompress and delta::apply on the
  /// bytes reconstruct just consumed, to split client.reconstruct.
  static void split_reconstruct(
      const std::map<std::pair<core::ClassId, std::uint32_t>, util::Bytes>& bases,
      const client::ClientAgent& agent, const core::ServedResponse& resp, LayerTable& layers) {
    const auto held = agent.base_version(resp.class_id);
    const auto it = held ? bases.find({resp.class_id, *held}) : bases.end();
    if (it == bases.end() || !resp.wire_compressed) return;
    std::uint64_t t = now_ns();
    const util::Bytes raw = compress::decompress(util::as_view(resp.wire_body));
    layers.add("compress.decompress", now_ns() - t);
    t = now_ns();
    const util::Bytes doc = delta::apply(util::as_view(it->second), util::as_view(raw));
    layers.add("delta.apply", now_ns() - t);
  }

  Outcome run() {
    std::vector<double> setup_s;
    LayerReport report;
    Samples pages;
    Ledger total;
    std::vector<SiteBytes> site_total;
    std::size_t storage = 0;
    std::size_t rounds = 0;
    std::string per_round = "table2: req/s per round:";
    const auto round = [&](const Setup& set_up) {
      Samples round_pages;
      const RoundResult r =
          run_round(set_up, set_up.trace.size(), args_.trace, out_, report, round_pages);
      pages.append(round_pages);
      per_round += " " + std::to_string(static_cast<int>(round_pages.size() / (round_pages.sum() / 1e6)));
      total.add(r.ledger);
      site_total.resize(r.site_bytes.size());
      for (std::size_t k = 0; k < site_total.size(); ++k) {
        site_total[k].direct += r.site_bytes[k].direct;
        site_total[k].sent += r.site_bytes[k].sent;
      }
      storage = r.storage_bytes;
    };
    const std::unique_ptr<Setup> s =
        run_rounds(args_.seconds, [this] { return setup(); }, round, setup_s, rounds, out_);

    out_.attempted = rounds * s->trace.size();
    for (std::size_t k = 0; k < site_total.size(); ++k) {
      const SiteSpec& spec = s->specs[k];
      const double savings =
          100.0 * (1.0 - static_cast<double>(site_total[k].sent) /
                             static_cast<double>(site_total[k].direct));
      const double floor = spec.paper_savings - kFloorMargin;
      char line[160];
      std::snprintf(line, sizeof(line), "table2 %s: origin savings %.2f%% (paper %.1f%%, floor %.1f%%)",
                    spec.label, savings, spec.paper_savings, floor);
      out_.note(line);
      if (savings < floor) out_.wrong(std::string(spec.label) + " savings below floor");
    }
    out_.note(per_round);
    out_.note("table2: page p50 " +
              std::to_string(static_cast<int>(pages.windowed_quantile(kWindow, 0.50))) +
              " us, p99 " +
              std::to_string(static_cast<int>(pages.windowed_quantile(kWindow, 0.99))) + " us");
    out_.note("table2: rounds=" + std::to_string(rounds) +
              " requests/round=" + std::to_string(s->trace.size()));

    if (!args_.trace) {
      out_.metric("setup_s", median(setup_s), "s");
      out_.metric("req_per_s", pages.windowed_rate(kWindow), "req/s");
      out_.metric("origin_bytes_per_req", total.origin_bytes_per_req(), "B");
      out_.metric("server_storage_kb", static_cast<double>(storage) / 1024.0, "KiB");
      out_.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      return out_;
    }
    const Names covered = {"server.document", "core.serve", "client.base_fetch",
                           "client.reconstruct"};
    report.coverage = report.layers.coverage(layer_wall_ns_, covered);
    report.core_allocs_per_req =
        untraced_serves_ == 0 ? 0 : static_cast<double>(core_allocs_) / untraced_serves_;
    report.client_allocs_per_req =
        pages.size() == 0 ? 0 : static_cast<double>(client_allocs_) / pages.size();
    report.proxy_hit_ratio =
        cache_lookups_ == 0 ? 0 : static_cast<double>(cache_hits_) / cache_lookups_;
    report.req_per_s = pages.windowed_rate(kWindow);
    report.emit(out_);
    out_.layer_table = report.layers.render(layer_wall_ns_, covered);
    char line[96];
    std::snprintf(line, sizeof(line), "coverage of traced wall time: %.2f%%\n",
                  100.0 * report.coverage);
    out_.layer_table += line;
    return out_;
  }

 private:
  const Args& args_;
  Outcome& out_;
  // Traced-run accumulators across rounds.
  std::uint64_t layer_wall_ns_ = 0;
  std::uint64_t untraced_serves_ = 0;
  std::uint64_t core_allocs_ = 0;
  std::uint64_t client_allocs_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_lookups_ = 0;
};

}  // namespace

Outcome run_table2(const Args& args) {
  Outcome out;
  Table2 workload(args, out);
  return workload.run();
}

}  // namespace perfbench
