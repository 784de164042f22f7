#include "common.hpp"

#include <sys/resource.h>

namespace perfbench {

void check_ledger(const Ledger& mine, const cbde::core::PipelineMetrics& server,
                  const std::string& where, Outcome& out) {
  const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      out.wrong(where + ": " + what + " " + std::to_string(got) +
                " (benchmark) != " + std::to_string(want) + " (DeltaServer::metrics)");
    }
  };
  expect("requests", mine.requests, server.requests);
  expect("delta responses", mine.delta_responses, server.delta_responses);
  expect("direct responses", mine.direct_responses, server.direct_responses);
  expect("direct bytes", mine.direct_bytes, server.direct_bytes);
  expect("response bytes", mine.wire_bytes, server.wire_bytes);
  expect("base-transfer bytes", mine.base_bytes, server.base_wire_bytes);
  if (server.requests != server.direct_responses + server.delta_responses) {
    out.wrong(where + ": requests != direct + delta responses");
  }
}

void ServerCounts::add_round(const cbde::core::DeltaServer& server, const Ledger& ledger) {
  const cbde::core::PipelineMetrics m = server.metrics();
  requests += m.requests;
  group_rebases += m.group_rebases;
  basic_rebases += m.basic_rebases;
  anonymizations += m.anonymizations_completed;
  delta_responses += m.delta_responses;
  direct_responses += m.direct_responses;
  const auto& reg = server.obs().registry();
  if (const auto* c = reg.find_counter("cbde_server_delta_fallbacks_total")) {
    delta_fallbacks += c->value();
  }
  if (const auto* c = reg.find_counter("cbde_server_classes_created_total")) {
    classes_created += c->value();
  }
  grouping_tries += ledger.grouping_tries;
  delta_raw_bytes += ledger.delta_raw_bytes;
  delta_wire_bytes += ledger.delta_wire_bytes;
}

void ServerCounts::remove(const ServerCounts& earlier) {
  requests -= earlier.requests;
  classes_created -= earlier.classes_created;
  group_rebases -= earlier.group_rebases;
  basic_rebases -= earlier.basic_rebases;
  anonymizations -= earlier.anonymizations;
  delta_responses -= earlier.delta_responses;
  direct_responses -= earlier.direct_responses;
  delta_fallbacks -= earlier.delta_fallbacks;
  grouping_tries -= earlier.grouping_tries;
  delta_raw_bytes -= earlier.delta_raw_bytes;
  delta_wire_bytes -= earlier.delta_wire_bytes;
}

void LayerReport::emit(Outcome& out) const {
  const auto per_kreq = [&](std::uint64_t n) {
    return counts.requests == 0
               ? 0.0
               : 1000.0 * static_cast<double>(n) / static_cast<double>(counts.requests);
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  out.metric("core.serve_us", layers.mean_us("core.serve"), "us");
  out.metric("core.group_us", layers.mean_us("core.group"), "us");
  out.metric("core.encode_us", layers.mean_us("core.encode"), "us");
  out.metric("core.compress_us", layers.mean_us("core.compress"), "us");
  out.metric("core.commit_us", layers.mean_us("core.commit"), "us");
  out.metric("core.grouping_tries_per_req", ratio(counts.grouping_tries, counts.requests),
             "1/req");
  out.metric("core.classes_created", per_kreq(counts.classes_created), "1/kreq");
  out.metric("core.group_rebases", per_kreq(counts.group_rebases), "1/kreq");
  out.metric("core.basic_rebases", per_kreq(counts.basic_rebases), "1/kreq");
  out.metric("core.anonymizations", per_kreq(counts.anonymizations), "1/kreq");
  out.metric("core.delta_responses", per_kreq(counts.delta_responses), "1/kreq");
  out.metric("core.direct_responses", per_kreq(counts.direct_responses), "1/kreq");
  out.metric("core.delta_fallbacks", per_kreq(counts.delta_fallbacks), "1/kreq");
  out.metric("core.delta_bytes_per_resp", ratio(counts.delta_wire_bytes, counts.delta_responses),
             "B");
  out.metric("compress.ratio", ratio(counts.delta_wire_bytes, counts.delta_raw_bytes), "ratio");
  out.metric("core.lock_wait_share", lock_wait_share, "share");
  out.metric("pool.queue_wait_us", layers.mean_us("pool.queue_wait"), "us");
  out.metric("pool.shard_imbalance", shard_imbalance, "ratio");
  out.metric("pool.generator_late_us", generator_late_us, "us");
  out.metric("pool.handoff_us", layers.mean_us("pool.handoff"), "us");
  out.metric("proxy.get_us", layers.mean_us("proxy.get"), "us");
  out.metric("proxy.put_us", layers.mean_us("proxy.put"), "us");
  out.metric("proxy.handle_us", layers.mean_us("proxy.handle"), "us");
  out.metric("proxy.hit_ratio", proxy_hit_ratio, "ratio");
  out.metric("http.handle_us", layers.mean_us("http.handle"), "us");
  out.metric("http.parse_us", layers.mean_us("http.parse"), "us");
  out.metric("http.serialize_us", layers.mean_us("http.serialize"), "us");
  out.metric("client.reconstruct_us", layers.mean_us("client.reconstruct"), "us");
  out.metric("compress.decompress_us", layers.mean_us("compress.decompress"), "us");
  out.metric("delta.apply_us", layers.mean_us("delta.apply"), "us");
  out.metric("client.base_fetch_us", layers.mean_us("client.base_fetch"), "us");
  out.metric("server.document_us", layers.mean_us("server.document"), "us");
  out.metric("core.allocs_per_req", core_allocs_per_req, "1/req");
  out.metric("client.allocs_per_req", client_allocs_per_req, "1/req");
  out.metric("trace.coverage", coverage, "share");
  out.metric("trace.residual_share", residual_share, "share");
  out.metric("trace.req_per_s", req_per_s, "req/s");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
