#include "workload/harness.h"

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace partix::workload {

Result<std::unique_ptr<Deployment>> Deployment::Centralized(
    const xml::Collection& data, xdb::DatabaseOptions node_options,
    middleware::NetworkModel network) {
  auto deployment = std::unique_ptr<Deployment>(new Deployment());
  deployment->catalog_ = std::make_unique<middleware::DistributionCatalog>();
  deployment->cluster_ =
      std::make_unique<middleware::ClusterSim>(1, node_options, network);
  deployment->publisher_ = std::make_unique<middleware::DataPublisher>(
      deployment->cluster_.get(), deployment->catalog_.get());
  PARTIX_RETURN_IF_ERROR(
      deployment->publisher_->PublishCentralized(data, 0));
  deployment->service_ = std::make_unique<middleware::QueryService>(
      deployment->cluster_.get(), deployment->catalog_.get());
  return deployment;
}

Result<std::unique_ptr<Deployment>> Deployment::Fragmented(
    const xml::Collection& data, const frag::FragmentationSchema& schema,
    xdb::DatabaseOptions node_options, middleware::NetworkModel network,
    size_t replication_factor) {
  auto deployment = std::unique_ptr<Deployment>(new Deployment());
  deployment->catalog_ = std::make_unique<middleware::DistributionCatalog>();
  deployment->cluster_ = std::make_unique<middleware::ClusterSim>(
      schema.fragments.size(), node_options, network);
  deployment->publisher_ = std::make_unique<middleware::DataPublisher>(
      deployment->cluster_.get(), deployment->catalog_.get());
  const size_t node_count = schema.fragments.size();
  if (replication_factor == 0 || replication_factor > node_count) {
    return Status::InvalidArgument(
        "replication_factor " + std::to_string(replication_factor) +
        " must be in [1, " + std::to_string(node_count) + "]");
  }
  // One fragment per node: replica r of fragment i -> node (i + r) mod n.
  std::vector<middleware::FragmentPlacement> placements;
  for (size_t i = 0; i < node_count; ++i) {
    middleware::FragmentPlacement p{.fragment = schema.fragments[i].name(),
                                    .node = i};
    for (size_t r = 1; r < replication_factor; ++r) {
      p.backups.push_back((i + r) % node_count);
    }
    placements.push_back(std::move(p));
  }
  PARTIX_RETURN_IF_ERROR(deployment->publisher_->PublishFragmented(
      data, schema, std::move(placements)));
  deployment->service_ = std::make_unique<middleware::QueryService>(
      deployment->cluster_.get(), deployment->catalog_.get());
  return deployment;
}

Result<Measurement> Measure(Deployment* deployment, const QuerySpec& query,
                            const MeasureOptions& options) {
  Measurement out;
  out.query_id = query.id;
  middleware::ExecutionOptions exec;
  exec.include_transmission = options.include_transmission;
  exec.cold_caches = options.cold;
  exec.parallelism = options.parallelism;

  size_t counted = 0;
  for (size_t run = 0; run < options.runs; ++run) {
    PARTIX_ASSIGN_OR_RETURN(
        middleware::DistributedResult result,
        deployment->service().Execute(query.text, exec));
    if (options.discard_first && run == 0 && options.runs > 1) continue;
    ++counted;
    out.response_ms += result.response_ms;
    out.wall_ms += result.wall_ms;
    out.slowest_node_ms += result.slowest_node_ms;
    out.transmission_ms += result.transmission_ms;
    out.composition_ms += result.composition_ms;
    out.result_bytes = result.serialized.size();
    out.subqueries = result.subqueries.size();
    out.pruned_fragments = result.pruned_fragments;
  }
  if (counted > 0) {
    out.response_ms /= static_cast<double>(counted);
    out.wall_ms /= static_cast<double>(counted);
    out.slowest_node_ms /= static_cast<double>(counted);
    out.transmission_ms /= static_cast<double>(counted);
    out.composition_ms /= static_cast<double>(counted);
  }
  return out;
}

double ScaleFromEnv() {
  const char* raw = std::getenv("PARTIX_SCALE");
  if (raw == nullptr) return 1.0;
  double scale = 0.0;
  if (!ParseDouble(raw, &scale) || scale <= 0.0) return 1.0;
  return scale;
}

size_t RunsFromEnv(size_t fallback) {
  const char* raw = std::getenv("PARTIX_RUNS");
  if (raw == nullptr) return fallback;
  int64_t runs = 0;
  if (!ParseInt64(raw, &runs) || runs < 1) return fallback;
  return static_cast<size_t>(runs);
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& series_names,
                const std::vector<std::vector<Measurement>>& series,
                const std::vector<QuerySpec>& queries) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-5s", "query");
  for (const std::string& name : series_names) {
    std::printf("  %14s", name.c_str());
  }
  std::printf("   speedup(best)\n");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("%-5s", queries[q].id.c_str());
    double base = 0.0;
    double best = 1e300;
    for (size_t s = 0; s < series.size(); ++s) {
      const Measurement& m = series[s][q];
      std::printf("  %11.2f ms", m.response_ms);
      if (s == 0) base = m.response_ms;
      if (s > 0) best = std::min(best, m.response_ms);
    }
    if (series.size() > 1 && best > 0.0) {
      std::printf("   %9.1fx", base / best);
    }
    std::printf("\n");
  }
}

}  // namespace partix::workload
