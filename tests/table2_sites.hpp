// The three Table II catalog sites (bench/bench_table2_bandwidth.cpp), as
// the golden tests generate their page corpora from them.
#pragma once

#include <vector>

#include "trace/site.hpp"

namespace cbde::testdata {

/// The Table II catalog content mix.
inline trace::TemplateConfig catalog_template(std::size_t page_bytes) {
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

inline std::vector<trace::SiteConfig> table2_sites() {
  std::vector<trace::SiteConfig> sites(3);
  sites[0].host = "www.site1.example";
  sites[0].style = trace::UrlStyle::kPathSegment;
  sites[0].categories = {"laptops", "desktops", "monitors", "printers"};
  sites[0].docs_per_category = 60;
  sites[0].doc_template = catalog_template(45 * 1024);
  sites[0].seed = 1001;
  sites[1].host = "www.site2.example";
  sites[1].style = trace::UrlStyle::kQueryParam;
  sites[1].categories = {"news", "sports"};
  sites[1].docs_per_category = 40;
  sites[1].doc_template = catalog_template(34 * 1024);
  sites[1].seed = 1002;
  sites[2].host = "www.site3.example";
  sites[2].style = trace::UrlStyle::kPathOnly;
  sites[2].categories = {"articles", "archive", "topics"};
  sites[2].docs_per_category = 50;
  sites[2].doc_template = catalog_template(31 * 1024);
  sites[2].doc_template.doc_unique_bytes = 31 * 1024 * 15 / 1000;
  sites[2].doc_template.personal_bytes = 0;
  sites[2].doc_template.cohort_bytes = 0;
  sites[2].doc_template.private_bytes = 0;
  sites[2].seed = 1003;
  return sites;
}

}  // namespace cbde::testdata
