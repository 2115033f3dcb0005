#include "workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "fragmentation/fragmenter.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "partix/scheduler.h"
#include "summary.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using partix::Result;
using partix::Status;
namespace mw = partix::middleware;
namespace xdb = partix::xdb;
namespace gen = partix::gen;
namespace wl = partix::workload;
namespace telemetry = partix::telemetry;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = kKiB * kKiB;

uint64_t Scaled(uint64_t bytes, double scale) {
  return static_cast<uint64_t>(static_cast<double>(bytes) * scale);
}

// Fixed document and item counts for the 8 MiB Fig. 7(a) and 7(d)
// databases: 8 MiB over the generators' mean serialized sizes (541.6 bytes
// per ItemsSHor document, 56.5 KB per large store Item, averaged over six
// seeds). The *BySize generators derive the count from a probe of 8 or 16
// documents, so the count moved with the seed — 14.1k to 18.3k Items
// across five seeds, and every query's cost with it.
constexpr size_t kItemsSHorDocs = 15488;
// Set-up repetitions per run; setup_s and the set-up layer timings are
// their medians.
constexpr size_t kSetupReps = 5;
constexpr size_t kStoreHybItems = 148;

size_t ScaledCount(size_t count, double scale) {
  return std::max<size_t>(
      8, static_cast<size_t>(static_cast<double>(count) * scale + 0.5));
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

struct WorkloadDef {
  std::string name;
  std::string collection;  // the name the generator gives the collection
  size_t clients = 1;
  size_t parallelism = 1;
  /// Clients go through one Scheduler (admission control) instead of
  /// calling the query service directly.
  bool scheduled = false;
  std::function<Result<partix::xml::Collection>(uint64_t seed, double scale)>
      generate;
  std::function<Result<partix::frag::FragmentationSchema>(
      const std::string& collection)>
      schema;
  std::function<std::vector<wl::QuerySpec>(const std::string& collection)>
      queries;
  /// Parse-cache bytes per node.
  std::function<size_t(double scale)> cache_bytes;
};

std::vector<wl::QuerySpec> Only(std::vector<wl::QuerySpec> all,
                                const std::vector<std::string>& ids) {
  std::vector<wl::QuerySpec> out;
  for (const std::string& id : ids) {
    if (const wl::QuerySpec* q = wl::FindQuery(all, id)) out.push_back(*q);
  }
  return out;
}

size_t DefaultCacheBytes(double) {
  return xdb::DatabaseOptions().cache_capacity_bytes;
}

std::vector<WorkloadDef> Definitions() {
  std::vector<WorkloadDef> defs;

  // Fig. 7(a) ItemsSHor: after warm-up nothing is parsed; the time goes to
  // engine evaluation, the 4-way fan-out and the streaming union. The join
  // path is never entered.
  WorkloadDef horizontal;
  horizontal.name = "horizontal_union";
  horizontal.collection = gen::ItemsGenOptions().name;
  horizontal.parallelism = 4;
  horizontal.generate = [](uint64_t seed, double scale) {
    gen::ItemsGenOptions options;
    options.seed = seed;
    options.large_docs = false;
    options.doc_count = ScaledCount(kItemsSHorDocs, scale);
    return gen::GenerateItems(options, nullptr);
  };
  horizontal.schema = [](const std::string& collection) {
    return wl::SectionHorizontalSchema(collection,
                                       gen::ItemsGenOptions().sections, 4);
  };
  horizontal.queries = wl::HorizontalQueries;
  horizontal.cache_bytes = DefaultCacheBytes;
  defs.push_back(horizontal);

  // Fig. 7(c) XBenchVer, multi-fragment queries only: compose dominates,
  // and the body fragment exceeds the 1 MiB parse cache, so this is the
  // one workload larger than the program's cache.
  WorkloadDef vertical;
  vertical.name = "vertical_join";
  vertical.collection = gen::XBenchGenOptions().name;
  vertical.parallelism = 3;
  vertical.generate = [](uint64_t seed, double scale) {
    gen::XBenchGenOptions options;
    options.seed = seed;
    options.target_doc_bytes = Scaled(192 * kKiB, scale);
    return gen::GenerateArticlesBySize(options, Scaled(2 * kMiB, scale),
                                       nullptr);
  };
  vertical.schema = wl::ArticleVerticalSchema;
  vertical.queries = [](const std::string& collection) {
    return Only(wl::VerticalQueries(collection), {"Q4", "Q7", "Q8", "Q9"});
  };
  // fig7c's rule: max(1 MiB, database / 3).
  vertical.cache_bytes = [](double scale) {
    return std::max<size_t>(kMiB, Scaled(2 * kMiB, scale) / 3);
  };
  defs.push_back(vertical);

  // Fig. 7(d) StoreHyb, FragMode2: the same executor, stream and engine
  // layers driven by concurrency between queries rather than fan-out
  // within one. parallelism = 1 on purpose: fanning the sub-ms lookups out
  // made their p90 swing ~3x between windows.
  WorkloadDef hybrid;
  hybrid.name = "hybrid_concurrent";
  hybrid.collection = gen::StoreGenOptions().name;
  hybrid.clients = 4;
  hybrid.parallelism = 1;
  hybrid.scheduled = true;
  hybrid.generate = [](uint64_t seed, double scale) {
    gen::StoreGenOptions options;
    options.seed = seed;
    options.large_items = true;
    options.item_count = ScaledCount(kStoreHybItems, scale);
    return gen::GenerateStore(options, nullptr);
  };
  hybrid.schema = [](const std::string& collection) {
    return wl::StoreHybridSchema(collection, gen::StoreGenOptions().sections,
                                 4, partix::frag::HybridMode::kSinglePrunedDoc);
  };
  hybrid.queries = wl::HybridQueries;
  hybrid.cache_bytes = DefaultCacheBytes;
  defs.push_back(hybrid);
  return defs;
}

// ---------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Steal ticks of the whole guest (the 8th value of /proc/stat's cpu line).
uint64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------
// Deployment and set-up
// ---------------------------------------------------------------------

struct Deployment {
  // Declaration order is destruction order reversed: the scheduler
  // detaches its pool from the executor before the service and cluster go.
  std::unique_ptr<mw::DistributionCatalog> catalog;
  std::unique_ptr<mw::ClusterSim> cluster;
  std::unique_ptr<mw::DataPublisher> publisher;
  std::unique_ptr<mw::QueryService> service;
  std::unique_ptr<mw::Scheduler> scheduler;
};

/// Per-query counts that repeat exactly from run to run on a single-client
/// workload (choosing-metrics §8: a later change may name one as a claim).
struct Counts {
  uint64_t subqueries = 0;
  uint64_t pruned = 0;
  uint64_t docs_parsed = 0;
  uint64_t result_bytes = 0;
  uint64_t result_items = 0;
  uint64_t stream_blocks = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t engine_requests = 0;
  uint64_t attempts = 0;

  bool operator==(const Counts&) const = default;

  static Counts Of(const mw::DistributedResult& r) {
    Counts c;
    c.subqueries = r.subqueries.size();
    c.pruned = r.pruned_fragments;
    for (const mw::SubQueryStats& s : r.subqueries) {
      c.docs_parsed += s.docs_parsed;
      c.attempts += s.attempts;
    }
    c.result_bytes = r.result_bytes;
    c.result_items = r.result_items;
    c.stream_blocks = r.stream_blocks;
    c.plan_hits = r.plan_cache_hits;
    c.plan_misses = r.plan_cache_misses;
    c.engine_requests = r.engine_requests;
    return c;
  }

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "subqueries=%llu pruned=%llu docs_parsed=%llu "
                  "result_bytes=%llu result_items=%llu stream_blocks=%llu "
                  "plan_hits=%llu plan_misses=%llu engine_requests=%llu "
                  "attempts=%llu",
                  static_cast<unsigned long long>(subqueries),
                  static_cast<unsigned long long>(pruned),
                  static_cast<unsigned long long>(docs_parsed),
                  static_cast<unsigned long long>(result_bytes),
                  static_cast<unsigned long long>(result_items),
                  static_cast<unsigned long long>(stream_blocks),
                  static_cast<unsigned long long>(plan_hits),
                  static_cast<unsigned long long>(plan_misses),
                  static_cast<unsigned long long>(engine_requests),
                  static_cast<unsigned long long>(attempts));
    return buf;
  }
};

struct SetupTimes {
  double generate_s = 0.0;
  double apply_s = 0.0;    // frag::ApplyFragmentation
  double publish_s = 0.0;  // DataPublisher::PublishFragmented
  double warmup_s = 0.0;
  double warmup_compile_ms = 0.0;
  double Total() const { return generate_s + apply_s + publish_s + warmup_s; }
};

struct FragmentShape {
  std::string name;
  size_t node = 0;
  size_t documents = 0;
  uint64_t bytes = 0;
};

struct DatasetShape {
  size_t documents = 0;
  uint64_t source_bytes = 0;
  uint64_t stored_bytes = 0;
  size_t cache_bytes = 0;
  std::vector<FragmentShape> fragments;
};

/// What the warm-up pass established: each query's answer (the reference
/// every later answer must equal byte for byte) and its steady-state
/// counts.
struct Reference {
  std::vector<std::string> answers;
  std::vector<Counts> counts;
};

mw::ExecutionOptions ExecOptions(const WorkloadDef& def, bool trace) {
  mw::ExecutionOptions options;
  options.parallelism = def.parallelism;
  options.streaming = true;
  options.trace = trace;
  return options;
}

Result<mw::DistributedResult> CallUntraced(const WorkloadDef& def,
                                           Deployment& d,
                                           const std::string& text,
                                           const mw::ClientContext& client) {
  const mw::ExecutionOptions options = ExecOptions(def, false);
  if (def.scheduled) return d.scheduler->Execute(text, options, client);
  return d.service->Execute(text, options);
}

Result<std::unique_ptr<Deployment>> SetUp(
    const WorkloadDef& def, const RunOptions& opt,
    const std::vector<wl::QuerySpec>& queries, SetupTimes* times,
    DatasetShape* shape, Reference* reference) {
  auto d = std::make_unique<Deployment>();
  double t = NowSeconds();
  {
    PARTIX_ASSIGN_OR_RETURN(partix::xml::Collection data,
                            def.generate(opt.seed, opt.scale));
    times->generate_s = NowSeconds() - t;

    t = NowSeconds();
    PARTIX_ASSIGN_OR_RETURN(partix::frag::FragmentationSchema schema,
                            def.schema(data.name()));
    PARTIX_ASSIGN_OR_RETURN(std::vector<partix::xml::Collection> fragments,
                            partix::frag::ApplyFragmentation(data, schema));
    times->apply_s = NowSeconds() - t;

    t = NowSeconds();
    xdb::DatabaseOptions node_options;
    node_options.cache_capacity_bytes = def.cache_bytes(opt.scale);
    d->catalog = std::make_unique<mw::DistributionCatalog>();
    d->cluster = std::make_unique<mw::ClusterSim>(
        schema.fragments.size(), node_options, mw::NetworkModel());
    d->publisher =
        std::make_unique<mw::DataPublisher>(d->cluster.get(), d->catalog.get());
    PARTIX_RETURN_IF_ERROR(d->publisher->PublishFragmented(data, schema));
    d->service =
        std::make_unique<mw::QueryService>(d->cluster.get(), d->catalog.get());
    if (def.scheduled) {
      mw::SchedulerOptions sched;
      sched.max_concurrent_queries = 4;
      sched.pool_threads = 4;
      d->scheduler = std::make_unique<mw::Scheduler>(d->service.get(), sched);
    }
    times->publish_s = NowSeconds() - t;

    // Dataset shape, outside the timed phases.
    shape->documents = data.size();
    shape->source_bytes = 0;
    for (const partix::xml::DocumentPtr& doc : data.docs()) {
      shape->source_bytes += partix::xml::Serialize(*doc).size();
    }
    shape->cache_bytes = node_options.cache_capacity_bytes;
    shape->fragments.clear();
    shape->stored_bytes = 0;
    for (size_t i = 0; i < schema.fragments.size(); ++i) {
      FragmentShape f;
      f.name = schema.fragments[i].name();
      f.node = i;
      xdb::Database& db = d->cluster->database(i);
      PARTIX_ASSIGN_OR_RETURN(f.documents, db.DocumentCount(f.name));
      for (const std::string& c : db.CollectionNames()) {
        PARTIX_ASSIGN_OR_RETURN(uint64_t bytes, db.SerializedBytes(c));
        if (c == f.name) f.bytes = bytes;
        shape->stored_bytes += bytes;
      }
      shape->fragments.push_back(f);
    }
  }

  // Warm-up: two passes in workload order. The first compiles plans and
  // fills caches; the second must reproduce it byte for byte and gives
  // the steady-state counts.
  t = NowSeconds();
  times->warmup_compile_ms = 0.0;
  reference->answers.assign(queries.size(), "");
  reference->counts.assign(queries.size(), Counts());
  mw::ClientContext warm_client;
  warm_client.client_id = "warmup";
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < queries.size(); ++q) {
      Result<mw::DistributedResult> r =
          CallUntraced(def, *d, queries[q].text, warm_client);
      if (!r.ok()) {
        return Status::Internal("warm-up " + queries[q].id + ": " +
                                r.status().ToString());
      }
      times->warmup_compile_ms += r->compile_ms;
      if (pass == 0) {
        reference->answers[q] = std::move(r->serialized);
      } else {
        if (r->serialized != reference->answers[q]) {
          return Status::Internal("warm-up " + queries[q].id +
                                  ": second pass answered differently");
        }
        reference->counts[q] = Counts::Of(*r);
      }
    }
  }
  times->warmup_s = NowSeconds() - t;
  return d;
}

// ---------------------------------------------------------------------
// Child processes: the oracle and the repeated set-ups
// ---------------------------------------------------------------------

std::string SortLines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string_view piece : partix::Split(text, '\n')) {
    lines.emplace_back(piece);
  }
  std::sort(lines.begin(), lines.end());
  return partix::Join(lines, "\n");
}

bool WriteAll(int fd, const std::string& bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Runs `work` in a forked child and returns the bytes it produced. The
/// child's time and memory are its own, so they count toward neither this
/// process's set-up time nor its peak RSS. Call it only before this
/// process starts any thread: a forked child gets the calling thread
/// alone, and a pool whose workers did not come along would never run.
Result<std::string> InChild(const std::function<Status(std::string*)>& work) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    Status st = work(&out);
    if (st.ok() && !WriteAll(fds[1], out)) st = Status::Internal("pipe");
    if (!st.ok()) std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    close(fds[1]);
    std::fflush(nullptr);
    _exit(st.ok() ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fds[0], buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    bytes.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("child process failed (status " +
                            std::to_string(status) + ")");
  }
  return bytes;
}

/// Answers every query once on a centralized deployment of the same
/// generated collection, in a child process. Returns each query's answer.
Result<std::vector<std::string>> OracleAnswers(
    const WorkloadDef& def, const RunOptions& opt,
    const std::vector<wl::QuerySpec>& queries) {
  PARTIX_ASSIGN_OR_RETURN(
      std::string bytes, InChild([&](std::string* out) -> Status {
        PARTIX_ASSIGN_OR_RETURN(partix::xml::Collection data,
                                def.generate(opt.seed, opt.scale));
        xdb::DatabaseOptions node_options;
        node_options.cache_capacity_bytes = def.cache_bytes(opt.scale);
        PARTIX_ASSIGN_OR_RETURN(
            std::unique_ptr<wl::Deployment> central,
            wl::Deployment::Centralized(data, node_options,
                                        mw::NetworkModel()));
        for (const wl::QuerySpec& q : queries) {
          PARTIX_ASSIGN_OR_RETURN(mw::DistributedResult r,
                                  central->service().Execute(q.text));
          const uint64_t n = r.serialized.size();
          out->append(reinterpret_cast<const char*>(&n), sizeof(n));
          *out += r.serialized;
        }
        return Status::Ok();
      }));
  std::vector<std::string> answers;
  size_t pos = 0;
  while (pos + sizeof(uint64_t) <= bytes.size()) {
    uint64_t n = 0;
    std::memcpy(&n, bytes.data() + pos, sizeof(n));
    pos += sizeof(n);
    if (n > bytes.size() - pos) break;
    answers.push_back(bytes.substr(pos, n));
    pos += n;
  }
  if (answers.size() != queries.size() || pos != bytes.size()) {
    return Status::Internal("oracle returned a truncated answer set");
  }
  return answers;
}

std::string AnswersDigest(const Reference& reference) {
  uint64_t h = partix::Fnv1a64("");
  for (const std::string& a : reference.answers) {
    h = partix::Fnv1a64(a, partix::Fnv1a64(std::to_string(a.size()), h));
  }
  return partix::HashHex(h);
}

/// One set-up repetition in a child process: its phase times, and the
/// digest of its warm-up answers.
Result<std::pair<SetupTimes, std::string>> SetUpInChild(
    const WorkloadDef& def, const RunOptions& opt,
    const std::vector<wl::QuerySpec>& queries) {
  PARTIX_ASSIGN_OR_RETURN(
      std::string text, InChild([&](std::string* out) -> Status {
        SetupTimes t;
        DatasetShape shape;
        Reference reference;
        PARTIX_ASSIGN_OR_RETURN(
            std::unique_ptr<Deployment> d,
            SetUp(def, opt, queries, &t, &shape, &reference));
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g %.17g %.17g %s",
                      t.generate_s, t.apply_s, t.publish_s, t.warmup_s,
                      t.warmup_compile_ms, AnswersDigest(reference).c_str());
        *out = buf;
        return Status::Ok();
      }));
  SetupTimes t;
  char digest[32] = {};
  if (std::sscanf(text.c_str(), "%lf %lf %lf %lf %lf %31s", &t.generate_s,
                  &t.apply_s, &t.publish_s, &t.warmup_s,
                  &t.warmup_compile_ms, digest) != 6) {
    return Status::Internal("malformed set-up report: " + text);
  }
  return std::make_pair(t, std::string(digest));
}

// ---------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------

/// One query execution as the client saw it.
struct ExecRecord {
  double latency_ms = 0.0;
  double response_ms = 0.0;
  // Traced pass only.
  double decompose_ms = 0.0;
  double dispatch_ms = 0.0;
  double compose_ms = 0.0;
  double ttfb_ms = 0.0;
  double transmission_ms = 0.0;
  double admission_ms = 0.0;  // call time outside the program's query span
  double queue_wait_ms = 0.0;     // registry deltas, single client only
  double read_lock_wait_ms = 0.0;
  double arena_chunks = 0.0;
  Counts counts;
};

/// Duration of the program's top-level phase span `name` (0 if absent).
double PhaseMs(const telemetry::TraceSpan& query, const std::string& name) {
  for (const telemetry::TraceSpan& child : query.children) {
    if (child.name == name) return child.duration_ms;
  }
  return 0.0;
}

/// The registry series read per execution (single client) or per window.
struct RegistryReading {
  double queue_wait_ms = 0.0;
  double read_lock_wait_ms = 0.0;
  double arena_chunks = 0.0;
};

RegistryReading ReadRegistry() {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
  static telemetry::Histogram* queue_wait =
      reg.GetHistogram("partix_queue_wait_ms");
  static telemetry::Histogram* read_lock =
      reg.GetHistogram("partix_driver_read_lock_wait_ms");
  static telemetry::Counter* chunks =
      reg.GetCounter("partix_arena_chunks_created_total");
  RegistryReading r;
  r.queue_wait_ms = queue_wait->Snapshot().sum;
  r.read_lock_wait_ms = read_lock->Snapshot().sum;
  r.arena_chunks = static_cast<double>(chunks->Value());
  return r;
}

struct PassResult {
  std::vector<std::vector<ExecRecord>> per_query;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  uint64_t drift = 0;
  std::vector<std::string> problems;  // first few, for the report
  double window_s = 0.0;
  double cpu_s = 0.0;
  uint64_t steal_ticks = 0;
  RegistryReading registry_delta;
  mw::SchedulerStats scheduler_delta;
  SpanLog spans{0};
};

/// Appends pass `more` to `into`, a pass of the same kind.
void Absorb(PassResult* into, PassResult more) {
  for (size_t q = 0; q < into->per_query.size(); ++q) {
    for (ExecRecord& r : more.per_query[q]) {
      into->per_query[q].push_back(std::move(r));
    }
  }
  into->attempted += more.attempted;
  into->errors += more.errors;
  into->wrong += more.wrong;
  into->drift += more.drift;
  for (std::string& p : more.problems) {
    if (into->problems.size() < 8) into->problems.push_back(std::move(p));
  }
  into->window_s += more.window_s;
  into->cpu_s += more.cpu_s;
  into->steal_ticks += more.steal_ticks;
  into->registry_delta.queue_wait_ms += more.registry_delta.queue_wait_ms;
  into->registry_delta.read_lock_wait_ms +=
      more.registry_delta.read_lock_wait_ms;
  into->registry_delta.arena_chunks += more.registry_delta.arena_chunks;
  into->scheduler_delta.admitted += more.scheduler_delta.admitted;
  into->scheduler_delta.queued += more.scheduler_delta.queued;
  into->spans.Append(more.spans);
}

struct ClientState {
  size_t start = 0;
  std::vector<std::vector<ExecRecord>> per_query;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  uint64_t drift = 0;
  std::vector<std::string> problems;
  SpanLog log{0};
};

class Loop {
 public:
  Loop(const WorkloadDef& def, Deployment& d,
       const std::vector<wl::QuerySpec>& queries, const Reference& reference,
       const std::vector<bool>& reference_ok, int64_t epoch)
      : def_(def),
        d_(d),
        queries_(queries),
        reference_(reference),
        reference_ok_(reference_ok),
        epoch_(epoch) {}

  /// Runs every client until `seconds` have passed and each has completed
  /// `min_cycles` full rounds; clients stop only at round boundaries, so
  /// every query gets the same number of samples per client and each pass
  /// starts from the same cache state.
  PassResult Run(bool traced, double seconds, size_t min_cycles,
                 bool corrupt_first) {
    corrupt_pending_.store(corrupt_first);
    std::vector<ClientState> clients(def_.clients);
    for (size_t c = 0; c < clients.size(); ++c) {
      clients[c].start = c * queries_.size() / clients.size();
      clients[c].per_query.resize(queries_.size());
      clients[c].log = SpanLog(epoch_);
    }
    telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
    reg.set_enabled(traced);
    const RegistryReading reg_before = ReadRegistry();
    const mw::SchedulerStats sched_before =
        d_.scheduler ? d_.scheduler->stats() : mw::SchedulerStats();
    const uint64_t steal_before = StealTicks();
    const double cpu_before = ProcessCpuSeconds();
    const double start = NowSeconds();
    const double deadline = start + seconds;

    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(c, traced, deadline, min_cycles, &clients[c]);
      });
    }
    for (std::thread& t : threads) t.join();

    PassResult out;
    out.window_s = NowSeconds() - start;
    out.cpu_s = ProcessCpuSeconds() - cpu_before;
    out.steal_ticks = StealTicks() - steal_before;
    const RegistryReading reg_after = ReadRegistry();
    reg.set_enabled(false);
    out.registry_delta.queue_wait_ms =
        reg_after.queue_wait_ms - reg_before.queue_wait_ms;
    out.registry_delta.read_lock_wait_ms =
        reg_after.read_lock_wait_ms - reg_before.read_lock_wait_ms;
    out.registry_delta.arena_chunks =
        reg_after.arena_chunks - reg_before.arena_chunks;
    if (d_.scheduler) {
      const mw::SchedulerStats after = d_.scheduler->stats();
      out.scheduler_delta.admitted = after.admitted - sched_before.admitted;
      out.scheduler_delta.queued = after.queued - sched_before.queued;
    }
    out.spans = SpanLog(epoch_);
    out.per_query.resize(queries_.size());
    for (ClientState& c : clients) {
      for (size_t q = 0; q < queries_.size(); ++q) {
        for (ExecRecord& r : c.per_query[q]) {
          out.per_query[q].push_back(std::move(r));
        }
      }
      out.attempted += c.attempted;
      out.errors += c.errors;
      out.wrong += c.wrong;
      out.drift += c.drift;
      for (std::string& p : c.problems) {
        if (out.problems.size() < 8) out.problems.push_back(std::move(p));
      }
      out.spans.Append(c.log);
    }
    return out;
  }

 private:
  void ClientLoop(size_t client_index, bool traced, double deadline,
                  size_t min_cycles, ClientState* state) {
    mw::ClientContext client;
    client.client_id = "client" + std::to_string(client_index);
    const size_t n = queries_.size();
    size_t pos = state->start;
    size_t cycles = 0;
    size_t in_cycle = 0;
    for (;;) {
      if (in_cycle == 0 && cycles >= min_cycles && NowSeconds() >= deadline) {
        break;
      }
      const size_t q = pos % n;
      ExecRecord rec;
      Result<mw::DistributedResult> r =
          traced ? CallTraced(q, client, state, &rec)
                 : CallTimed(q, client, &rec);
      Check(q, std::move(r), &rec, state);
      state->per_query[q].push_back(std::move(rec));
      ++pos;
      if (++in_cycle == n) {
        in_cycle = 0;
        ++cycles;
      }
    }
  }

  Result<mw::DistributedResult> CallTimed(size_t q,
                                          const mw::ClientContext& client,
                                          ExecRecord* rec) {
    const int64_t t0 = SteadyNanos();
    Result<mw::DistributedResult> r =
        CallUntraced(def_, d_, queries_[q].text, client);
    rec->latency_ms = static_cast<double>(SteadyNanos() - t0) * 1e-6;
    return r;
  }

  // The traced call: spans around each public call, the program's span
  // tree grafted below them, and (single client) the registry series read
  // on either side of the execution.
  Result<mw::DistributedResult> CallTraced(size_t q,
                                           const mw::ClientContext& client,
                                           ClientState* state,
                                           ExecRecord* rec) {
    SpanLog& log = state->log;
    const wl::QuerySpec& spec = queries_[q];
    const mw::ExecutionOptions options = ExecOptions(def_, true);
    const bool attribute_registry = def_.clients == 1;
    const RegistryReading before =
        attribute_registry ? ReadRegistry() : RegistryReading();
    const int root = log.Begin(spec.id, kLayerClient, -1, spec.id,
                               next_exec_.fetch_add(1) + 1);
    int call = -1;
    Result<mw::DistributedResult> r = Status::Internal("not executed");
    if (def_.scheduled) {
      call = log.Begin("Scheduler::Execute", "partix.scheduler", root);
      r = d_.scheduler->Execute(spec.text, options, client);
      log.End(call);
    } else {
      const int dec =
          log.Begin("QueryDecomposer::Decompose", "partix.decomposer", root);
      Result<mw::DistributedPlan> plan =
          d_.service->decomposer().Decompose(spec.text);
      log.End(dec);
      rec->decompose_ms =
          static_cast<double>(log.spans()[dec].end_ns -
                              log.spans()[dec].start_ns) *
          1e-6;
      if (plan.ok()) {
        call = log.Begin("QueryService::ExecutePlan", "partix.query_service",
                         root);
        r = d_.service->ExecutePlan(*plan, options);
        log.End(call);
      } else {
        r = plan.status();
      }
    }
    log.End(root);
    const Span& root_span = log.spans()[root];
    rec->latency_ms =
        static_cast<double>(root_span.end_ns - root_span.start_ns) * 1e-6;
    if (attribute_registry) {
      const RegistryReading after = ReadRegistry();
      rec->queue_wait_ms = after.queue_wait_ms - before.queue_wait_ms;
      rec->read_lock_wait_ms =
          after.read_lock_wait_ms - before.read_lock_wait_ms;
      rec->arena_chunks = after.arena_chunks - before.arena_chunks;
    }
    if (r.ok() && r->traced && call >= 0) {
      log.Graft(call, r->trace);
      const Span& call_span = log.spans()[call];
      rec->admission_ms =
          std::max(0.0, static_cast<double>(call_span.end_ns -
                                            call_span.start_ns) *
                                1e-6 -
                            r->trace.duration_ms);
      if (def_.scheduled) rec->decompose_ms = r->decompose_ms;
      rec->dispatch_ms = PhaseMs(r->trace, "dispatch");
      rec->compose_ms = PhaseMs(r->trace, "compose");
      rec->ttfb_ms = r->ttfb_ms;
      rec->transmission_ms = r->transmission_ms;
    }
    return r;
  }

  // Every answer must equal the warm-up answer byte for byte; the warm-up
  // answer was itself checked against the centralized oracle (sorted
  // lines), so a match implies the oracle relation too.
  void Check(size_t q, Result<mw::DistributedResult> r, ExecRecord* rec,
             ClientState* state) {
    ++state->attempted;
    auto note = [&](const std::string& what) {
      if (state->problems.size() < 4) {
        state->problems.push_back(queries_[q].id + ": " + what);
      }
    };
    if (!r.ok()) {
      ++state->errors;
      note(r.status().ToString());
      return;
    }
    rec->response_ms = r->response_ms;
    rec->counts = Counts::Of(*r);
    std::string answer = std::move(r->serialized);
    if (corrupt_pending_.exchange(false)) {
      // Self-test hook: a wrong answer, as if corrupted on its way back.
      if (answer.empty()) answer = "corrupt";
      answer[answer.size() / 2] ^= 0x20;
    }
    if (!reference_ok_[q] || answer != reference_.answers[q]) {
      ++state->wrong;
      note(reference_ok_[q] ? "answer differs from the warm-up answer"
                            : "warm-up answer differs from the oracle");
    }
    if (def_.clients == 1 && !(rec->counts == reference_.counts[q])) {
      ++state->drift;
      note("counts drifted: " + rec->counts.ToString() + " (warm-up " +
           reference_.counts[q].ToString() + ")");
    }
  }

  const WorkloadDef& def_;
  Deployment& d_;
  const std::vector<wl::QuerySpec>& queries_;
  const Reference& reference_;
  const std::vector<bool>& reference_ok_;
  const int64_t epoch_;
  std::atomic<bool> corrupt_pending_{false};
  std::atomic<uint64_t> next_exec_{0};
};

// ---------------------------------------------------------------------
// Engine replay
// ---------------------------------------------------------------------

struct ReplayQuery {
  double exec_ms = 0.0;  // median over reps of the summed sub-query time
  double bytes_parsed = 0.0;         // per rep
  double index_range_scans = 0.0;    // per rep
  xdb::QueryMetrics totals;          // summed over every rep
};

/// Replays every sub-query of every query sequentially on its node through
/// Database::Prepare + ExecutePrepared, reading xdb::QueryMetrics.
Result<std::vector<ReplayQuery>> Replay(Deployment& d,
                                        const std::vector<wl::QuerySpec>& qs,
                                        SpanLog* log, size_t reps) {
  std::vector<ReplayQuery> out(qs.size());
  for (size_t q = 0; q < qs.size(); ++q) {
    PARTIX_ASSIGN_OR_RETURN(mw::DistributedPlan plan,
                            d.service->decomposer().Decompose(qs[q].text));
    const int root = log->Begin("replay", "engine.replay", -1, qs[q].id);
    std::vector<double> per_rep;
    for (size_t rep = 0; rep < reps; ++rep) {
      double exec_ms = 0.0;
      for (const mw::SubQuery& sub : plan.subqueries) {
        xdb::Database& db = d.cluster->database(sub.node);
        const int p = log->Begin("Database::Prepare", "engine", root);
        Result<xdb::PrepareOutcome> prepared =
            sub.compiled ? db.Prepare(sub.compiled) : db.Prepare(sub.query);
        log->End(p);
        if (!prepared.ok()) return prepared.status();
        const int e = log->Begin("Database::ExecutePrepared", "engine", root);
        Result<xdb::QueryResult> r = db.ExecutePrepared(*prepared->plan);
        log->End(e);
        if (!r.ok()) return r.status();
        exec_ms += static_cast<double>(log->spans()[e].end_ns -
                                       log->spans()[e].start_ns) *
                   1e-6;
        const xdb::QueryMetrics& m = r->metrics;
        xdb::QueryMetrics& t = out[q].totals;
        t.docs_in_collections += m.docs_in_collections;
        t.docs_considered += m.docs_considered;
        t.docs_parsed += m.docs_parsed;
        t.bytes_parsed += m.bytes_parsed;
        t.cache_hits += m.cache_hits;
        t.nodes_visited += m.nodes_visited;
        t.index_range_scans += m.index_range_scans;
        t.result_items += m.result_items;
      }
      per_rep.push_back(exec_ms);
    }
    log->End(root);
    out[q].exec_ms = Median(per_rep);
    out[q].bytes_parsed =
        static_cast<double>(out[q].totals.bytes_parsed) / reps;
    out[q].index_range_scans =
        static_cast<double>(out[q].totals.index_range_scans) / reps;
  }
  return out;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Per-query median of one ExecRecord field.
std::vector<double> PerQueryMedians(const PassResult& pass,
                                    double ExecRecord::*field) {
  std::vector<double> out;
  for (const std::vector<ExecRecord>& recs : pass.per_query) {
    std::vector<double> v;
    v.reserve(recs.size());
    for (const ExecRecord& r : recs) v.push_back(r.*field);
    out.push_back(Median(std::move(v)));
  }
  return out;
}

/// Geometric mean of per-query timings. A median below the clock's
/// resolution counts as 1 ns, so the mean stays defined.
double CombineTimings(std::vector<double> per_query) {
  for (double& v : per_query) v = std::max(v, 1e-6);
  return GeoMean(per_query).value_or(0.0);
}

/// Per-query mean of a count (the first execution's value: on the
/// single-client workloads counts repeat exactly).
template <typename F>
double MeanCount(const PassResult& pass, F count_of) {
  std::vector<double> v;
  for (const std::vector<ExecRecord>& recs : pass.per_query) {
    std::vector<double> per_exec;
    for (const ExecRecord& r : recs) per_exec.push_back(count_of(r.counts));
    v.push_back(Median(std::move(per_exec)));
  }
  return Mean(v);
}

uint64_t CountsDigest(const std::vector<Counts>& counts) {
  uint64_t h = partix::Fnv1a64("");
  for (const Counts& c : counts) h = partix::Fnv1a64(c.ToString(), h);
  return h;
}

struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* moves;  // the end-to-end metric and workload it should move
};

// The per-layer metrics, in report order, with what each should move.
const std::vector<LayerMetricDef>& LayerMetricDefs() {
  static const std::vector<LayerMetricDef> defs = {
      {"gen.generate_s", "s", "setup_s, all"},
      {"fragmentation.apply_s", "s", "setup_s, all"},
      {"partix.publisher.store_s", "s", "setup_s, all"},
      {"partix.publisher.stored_bytes_ratio", "ratio", "peak_rss_mib, all"},
      {"engine.warmup_compile_ms", "ms", "setup_s, all"},
      {"engine.plan_cache_hit_ratio", "ratio", "latency_p50_ms, all"},
      {"engine.exec_ms", "ms",
       "latency_p50_ms, modeled_p50_ms on horizontal_union"},
      {"engine.docs_considered_ratio", "ratio",
       "cpu_ms_per_query on hybrid_concurrent"},
      {"storage.docs_parsed_per_query", "count",
       "latency_p50_ms on vertical_join (~0 elsewhere)"},
      {"storage.parsed_kib_per_query", "KiB",
       "latency_p50_ms on vertical_join"},
      {"storage.cache_hit_ratio", "ratio", "latency_p50_ms on vertical_join"},
      {"xquery.nodes_visited_per_item", "ratio",
       "cpu_ms_per_query on horizontal_union"},
      {"xquery.index_range_scans_per_query", "count",
       "cpu_ms_per_query on horizontal_union"},
      {"partix.decomposer.decompose_ms", "ms",
       "latency_p50_ms on hybrid_concurrent (sub-ms Q9/Q10)"},
      {"partix.decomposer.subqueries_per_query", "count",
       "cpu_ms_per_query, all"},
      {"partix.executor.dispatch_ms", "ms",
       "latency_p50_ms on horizontal_union"},
      {"partix.executor.queue_wait_ms", "ms",
       "latency_p90_ms on horizontal_union"},
      {"partix.executor.attempts_per_subquery", "ratio", "failed_ratio, all"},
      {"partix.driver.read_lock_wait_ms", "ms",
       "latency_p90_ms on hybrid_concurrent"},
      {"partix.stream.blocks_per_query", "count",
       "cpu_ms_per_query on hybrid_concurrent"},
      {"partix.stream.ttfb_ms", "ms",
       "none (Execute hands over the whole answer at once)"},
      {"partix.query_service.compose_ms", "ms",
       "latency_p50_ms, throughput_qps on vertical_join"},
      {"partix.query_service.result_kib_per_query", "KiB",
       "peak_rss_mib, cpu_ms_per_query on hybrid_concurrent"},
      {"partix.query_service.transmission_ms", "ms",
       "modeled_p50_ms on hybrid_concurrent"},
      {"partix.scheduler.admission_wait_ms", "ms",
       "latency_p90_ms on hybrid_concurrent (~0 elsewhere)"},
      {"partix.scheduler.queued_ratio", "ratio",
       "latency_p90_ms on hybrid_concurrent"},
      {"memory.arena_chunks_created_per_query", "count",
       "cpu_ms_per_query on vertical_join"},
      {"telemetry.trace_overhead_ratio", "ratio", "none"},
      {"telemetry.span_coverage_ratio", "ratio", "none (must stay >= 0.95)"},
  };
  return defs;
}

void MakeDir(const std::string& dir) {
  if (!dir.empty()) mkdir(dir.c_str(), 0775);
}

bool WriteText(const std::string& path, const std::string& body) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fwrite(body.data(), 1, body.size(), out);
  return std::fclose(out) == 0;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : Definitions()) names.push_back(def.name);
  return names;
}

Result<RunOutcome> RunWorkload(const RunOptions& opt) {
  const std::vector<WorkloadDef> defs = Definitions();
  auto def_it = std::find_if(defs.begin(), defs.end(),
                             [&](const WorkloadDef& d) {
                               return d.name == opt.workload;
                             });
  if (def_it == defs.end()) {
    return Status::InvalidArgument("unknown workload '" + opt.workload + "'");
  }
  const WorkloadDef& def = *def_it;
  if (!(opt.seconds > 0.0)) {
    return Status::InvalidArgument("seconds must be positive");
  }

  const std::vector<wl::QuerySpec> queries = def.queries(def.collection);
  const int64_t epoch = SteadyNanos();

  // 1. The oracle, outside set-up and outside this process's memory.
  PARTIX_ASSIGN_OR_RETURN(std::vector<std::string> oracle,
                          OracleAnswers(def, opt, queries));

  // 2. Set-up, repeated: all but the last repetition in child processes,
  // each from the same fresh process state; the last one here, and it is
  // the deployment measured. Peak RSS therefore holds one deployment.
  std::vector<SetupTimes> setups;
  std::vector<std::string> digests;
  for (size_t rep = 1; rep < kSetupReps; ++rep) {
    PARTIX_ASSIGN_OR_RETURN(auto child, SetUpInChild(def, opt, queries));
    setups.push_back(child.first);
    digests.push_back(child.second);
  }
  SetupTimes times;
  DatasetShape shape;
  Reference reference;
  PARTIX_ASSIGN_OR_RETURN(
      std::unique_ptr<Deployment> d,
      SetUp(def, opt, queries, &times, &shape, &reference));
  setups.push_back(times);
  for (const std::string& digest : digests) {
    if (digest != AnswersDigest(reference)) {
      return Status::Internal("set-up repetitions answered differently");
    }
  }
  // The fragmented answer must equal the centralized one after sorting
  // lines; how many differ only in line order is reported.
  std::vector<bool> reference_ok(queries.size());
  size_t order_only = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    reference_ok[q] =
        SortLines(reference.answers[q]) == SortLines(oracle[q]);
    if (reference_ok[q] && reference.answers[q] != oracle[q]) ++order_only;
  }
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(field(s));
    return Median(v);
  };

  // 3. The measured pass(es).
  Loop loop(def, *d, queries, reference, reference_ok, epoch);
  // Enough rounds that every query has the samples its p90 needs.
  const size_t min_samples = MinSamplesFor(0.9);
  const size_t min_cycles =
      opt.trace ? 1 : (min_samples + def.clients - 1) / def.clients;
  // A traced run measures untraced, traced, traced, untraced quarters, so
  // host drift cancels out of the trace overhead to first order.
  const double pass_seconds = opt.trace ? opt.seconds / 4 : opt.seconds;
  PassResult measured =
      loop.Run(false, pass_seconds, min_cycles, opt.corrupt_one_answer);
  PassResult traced;
  std::vector<ReplayQuery> replay;
  SpanLog replay_log(epoch);
  if (opt.trace) {
    traced = loop.Run(true, pass_seconds, 1, false);
    Absorb(&traced, loop.Run(true, pass_seconds, 1, false));
    Absorb(&measured, loop.Run(false, pass_seconds, 1, false));
    PARTIX_ASSIGN_OR_RETURN(replay, Replay(*d, queries, &replay_log, 3));
  }
  const double peak_rss = PeakRssMiB();

  const uint64_t attempted = measured.attempted + traced.attempted;
  const uint64_t errors = measured.errors + traced.errors;
  const uint64_t wrong = measured.wrong + traced.wrong;
  PARTIX_ASSIGN_OR_RETURN(double failed_ratio,
                          FailedRatio(errors, wrong, attempted));
  RunOutcome outcome;
  outcome.attempted = attempted;
  outcome.failed = errors + wrong;
  outcome.correct = outcome.failed == 0;

  // ---- per-query table and end-to-end metrics ----
  std::vector<double> p50s, p90s, modeled;
  std::string table;
  std::string query_json;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<ExecRecord>& recs = measured.per_query[q];
    std::vector<double> lat, resp;
    for (const ExecRecord& r : recs) {
      lat.push_back(r.latency_ms);
      resp.push_back(r.response_ms);
    }
    const double p50 = Median(lat);
    const double m50 = Median(resp);
    p50s.push_back(p50);
    modeled.push_back(m50);
    std::string p90_text = "n/a";
    if (!opt.trace) {
      PARTIX_ASSIGN_OR_RETURN(double p90, Percentile(lat, 0.9));
      p90s.push_back(p90);
      p90_text = Short(p90);
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-4s n=%-5zu p50=%-9s p90=%-9s modeled_p50=%-9s %s\n",
                  queries[q].id.c_str(), recs.size(), Short(p50).c_str(),
                  p90_text.c_str(), Short(m50).c_str(),
                  reference_ok[q] ? "" : "(warm-up answer != oracle)");
    table += line;
    query_json += std::string(q == 0 ? "" : ", ") + "{\"id\": \"" +
                  queries[q].id + "\", \"samples\": " +
                  std::to_string(recs.size()) + ", \"latency_p50_ms\": " +
                  Num(p50) + ", \"latency_p90_ms\": " +
                  (p90s.size() > q ? Num(p90s[q]) : "null") +
                  ", \"modeled_p50_ms\": " + Num(m50) + "}";
  }
  const uint64_t answers = measured.attempted - measured.errors;
  const double correct_answers =
      static_cast<double>(measured.attempted - measured.errors -
                          measured.wrong);
  PARTIX_ASSIGN_OR_RETURN(double latency_p50, GeoMean(p50s));
  const double setup_s = median_of([](const SetupTimes& s) {
    return s.Total();
  });
  // End-to-end metrics printed and recorded but left out of the result
  // line, which carries only the bounded ones: failed_ratio is 0 on a
  // correct run, and the p90 moved by more than the largest bound between
  // runs on a host whose hypervisor steals CPU (see README.md).
  std::vector<Metric> unbounded = {{"failed_ratio", failed_ratio, "ratio"}};
  if (!opt.trace) {
    PARTIX_ASSIGN_OR_RETURN(double latency_p90, GeoMean(p90s));
    PARTIX_ASSIGN_OR_RETURN(double modeled_p50, GeoMean(modeled));
    unbounded.insert(unbounded.begin(), {"latency_p90_ms", latency_p90, "ms"});
    outcome.metrics = {
        {"latency_p50_ms", latency_p50, "ms"},
        {"throughput_qps", correct_answers / measured.window_s, "1/s"},
        {"modeled_p50_ms", modeled_p50, "ms"},
        {"cpu_ms_per_query",
         measured.cpu_s * 1e3 / static_cast<double>(std::max<uint64_t>(
                                    1, answers)),
         "ms"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"setup_s", setup_s, "s"},
    };
  }

  // ---- per-layer metrics (traced run) ----
  LayerBreakdown breakdown;
  if (opt.trace) {
    const bool single = def.clients == 1;
    const double execs = static_cast<double>(traced.attempted);
    auto timing = [&](double ExecRecord::*field) {
      return CombineTimings(PerQueryMedians(traced, field));
    };
    // Registry series: per execution on one client; with concurrent
    // clients the registry cannot attribute, so the window mean.
    auto registry_timing = [&](double ExecRecord::*field, double window_sum) {
      return single ? timing(field) : Ratio(window_sum, execs);
    };
    uint64_t hits = 0, misses = 0, attempts = 0, subqueries = 0;
    for (const std::vector<ExecRecord>& recs : traced.per_query) {
      for (const ExecRecord& r : recs) {
        hits += r.counts.plan_hits;
        misses += r.counts.plan_misses;
        attempts += r.counts.attempts;
        subqueries += r.counts.subqueries;
      }
    }
    xdb::QueryMetrics totals;
    std::vector<double> engine_ms, parsed_kib, range_scans;
    for (const ReplayQuery& rq : replay) {
      engine_ms.push_back(rq.exec_ms);
      parsed_kib.push_back(rq.bytes_parsed / kKiB);
      range_scans.push_back(rq.index_range_scans);
      totals.docs_in_collections += rq.totals.docs_in_collections;
      totals.docs_considered += rq.totals.docs_considered;
      totals.docs_parsed += rq.totals.docs_parsed;
      totals.cache_hits += rq.totals.cache_hits;
      totals.nodes_visited += rq.totals.nodes_visited;
      totals.result_items += rq.totals.result_items;
    }
    PARTIX_ASSIGN_OR_RETURN(
        double traced_p50,
        GeoMean(PerQueryMedians(traced, &ExecRecord::latency_ms)));
    breakdown = BreakDown(traced.spans.spans());
    std::vector<double> chunks_per_query;
    for (const std::vector<ExecRecord>& recs : traced.per_query) {
      std::vector<double> v;
      for (const ExecRecord& r : recs) v.push_back(r.arena_chunks);
      chunks_per_query.push_back(Median(std::move(v)));
    }
    const std::map<std::string, double> values = {
        {"gen.generate_s",
         median_of([](const SetupTimes& s) { return s.generate_s; })},
        {"fragmentation.apply_s",
         median_of([](const SetupTimes& s) { return s.apply_s; })},
        {"partix.publisher.store_s",
         median_of([](const SetupTimes& s) {
           return s.publish_s - s.apply_s;
         })},
        {"partix.publisher.stored_bytes_ratio",
         Ratio(static_cast<double>(shape.stored_bytes),
               static_cast<double>(shape.source_bytes))},
        {"engine.warmup_compile_ms",
         median_of([](const SetupTimes& s) { return s.warmup_compile_ms; })},
        {"engine.plan_cache_hit_ratio",
         Ratio(static_cast<double>(hits), static_cast<double>(hits + misses))},
        {"engine.exec_ms", CombineTimings(engine_ms)},
        {"engine.docs_considered_ratio",
         Ratio(static_cast<double>(totals.docs_considered),
               static_cast<double>(totals.docs_in_collections))},
        {"storage.docs_parsed_per_query",
         MeanCount(traced,
                   [](const Counts& c) {
                     return static_cast<double>(c.docs_parsed);
                   })},
        {"storage.parsed_kib_per_query", Mean(parsed_kib)},
        {"storage.cache_hit_ratio",
         Ratio(static_cast<double>(totals.cache_hits),
               static_cast<double>(totals.cache_hits + totals.docs_parsed))},
        {"xquery.nodes_visited_per_item",
         Ratio(static_cast<double>(totals.nodes_visited),
               static_cast<double>(totals.result_items))},
        {"xquery.index_range_scans_per_query", Mean(range_scans)},
        {"partix.decomposer.decompose_ms", timing(&ExecRecord::decompose_ms)},
        {"partix.decomposer.subqueries_per_query",
         MeanCount(traced,
                   [](const Counts& c) {
                     return static_cast<double>(c.subqueries);
                   })},
        {"partix.executor.dispatch_ms", timing(&ExecRecord::dispatch_ms)},
        {"partix.executor.queue_wait_ms",
         registry_timing(&ExecRecord::queue_wait_ms,
                         traced.registry_delta.queue_wait_ms)},
        {"partix.executor.attempts_per_subquery",
         Ratio(static_cast<double>(attempts),
               static_cast<double>(subqueries))},
        {"partix.driver.read_lock_wait_ms",
         registry_timing(&ExecRecord::read_lock_wait_ms,
                         traced.registry_delta.read_lock_wait_ms)},
        {"partix.stream.blocks_per_query",
         MeanCount(traced,
                   [](const Counts& c) {
                     return static_cast<double>(c.stream_blocks);
                   })},
        {"partix.stream.ttfb_ms", timing(&ExecRecord::ttfb_ms)},
        {"partix.query_service.compose_ms", timing(&ExecRecord::compose_ms)},
        {"partix.query_service.result_kib_per_query",
         MeanCount(traced,
                   [](const Counts& c) {
                     return static_cast<double>(c.result_bytes) / kKiB;
                   })},
        {"partix.query_service.transmission_ms",
         timing(&ExecRecord::transmission_ms)},
        {"partix.scheduler.admission_wait_ms",
         timing(&ExecRecord::admission_ms)},
        {"partix.scheduler.queued_ratio",
         Ratio(static_cast<double>(traced.scheduler_delta.queued),
               static_cast<double>(traced.scheduler_delta.admitted))},
        {"memory.arena_chunks_created_per_query",
         single ? Mean(chunks_per_query)
                : Ratio(traced.registry_delta.arena_chunks, execs)},
        {"telemetry.trace_overhead_ratio", Ratio(traced_p50, latency_p50)},
        {"telemetry.span_coverage_ratio",
         Ratio(breakdown.covered_ms, breakdown.root_wall_ms)},
    };
    for (const LayerMetricDef& m : LayerMetricDefs()) {
      outcome.metrics.push_back({m.name, values.at(m.name), m.unit});
    }
  }

  // ---- report ----
  const uint64_t digest = CountsDigest(reference.counts);
  std::string record = "{\"workload\": \"" + def.name +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"trace\": " + (opt.trace ? "true" : "false") +
                       ", \"nproc\": " +
                       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
                       ", \"clients\": " + std::to_string(def.clients) +
                       ", \"parallelism\": " +
                       std::to_string(def.parallelism) +
                       ", \"scheduled\": " +
                       (def.scheduled ? "true" : "false") +
                       ", \"documents\": " + std::to_string(shape.documents) +
                       ", \"source_bytes\": " +
                       std::to_string(shape.source_bytes) +
                       ", \"cache_bytes_per_node\": " +
                       std::to_string(shape.cache_bytes) + ", \"fragments\": [";
  for (size_t i = 0; i < shape.fragments.size(); ++i) {
    const FragmentShape& f = shape.fragments[i];
    record += std::string(i == 0 ? "" : ", ") + "{\"name\": \"" + f.name +
              "\", \"node\": " + std::to_string(f.node) +
              ", \"documents\": " + std::to_string(f.documents) +
              ", \"bytes\": " + std::to_string(f.bytes) + "}";
  }
  record += "], \"setup_s_reps\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    record += std::string(i == 0 ? "" : ", ") + Num(setups[i].Total());
  }
  record += "], \"measured_seconds\": " + Num(measured.window_s) +
            ", \"steal_ticks\": " + std::to_string(measured.steal_ticks) +
            ", \"counts_digest\": \"" + partix::HashHex(digest) +
            "\", \"count_drift\": " +
            std::to_string(measured.drift + traced.drift) +
            ", \"oracle_order_only\": " + std::to_string(order_only) +
            ", \"failed_ratio\": " + Num(failed_ratio) + ", \"queries\": [" +
            query_json + "]}";

  std::printf("== perfbench %s (seed %llu, %s run) ==\n", def.name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "measured");
  std::printf("record: %s\n", record.c_str());
  std::printf("per query (untraced pass, ms; n = samples per query):\n%s",
              table.c_str());
  std::printf("oracle: %zu of %zu warm-up answers equal the centralized "
              "answer, %zu of them only after sorting lines\n",
              static_cast<size_t>(std::count(reference_ok.begin(),
                                             reference_ok.end(), true)),
              queries.size(), order_only);
  std::printf("failed_ratio: %s (%llu errors + %llu wrong of %llu)\n",
              Short(failed_ratio).c_str(),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(attempted));
  if (def.clients == 1) {
    std::printf("counts: digest %s, drift %llu%s\n",
                partix::HashHex(digest).c_str(),
                static_cast<unsigned long long>(measured.drift + traced.drift),
                measured.drift + traced.drift == 0 ? "" : "  <-- DRIFT");
  }
  for (const std::string& p : measured.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  for (const std::string& p : traced.problems) {
    std::printf("problem (traced): %s\n", p.c_str());
  }
  if (opt.trace) {
    std::printf("per-layer metrics (-> end-to-end metric it should move):\n");
    for (size_t i = 0; i < outcome.metrics.size(); ++i) {
      const Metric& m = outcome.metrics[i];
      std::printf("  %-42s %12s %-6s -> %s\n", m.name.c_str(),
                  Short(m.value).c_str(), m.unit.c_str(),
                  LayerMetricDefs()[i].moves);
    }
    const double execs = static_cast<double>(breakdown.executions);
    std::printf(
        "layers per traced query (%llu executions, wall %s ms): self time "
        "(busy, lanes add up) and share of wall under the layer's spans\n",
        static_cast<unsigned long long>(breakdown.executions),
        Short(breakdown.root_wall_ms / std::max(1.0, execs)).c_str());
    for (const auto& [layer, ms] : breakdown.self_ms) {
      std::printf("  %-24s self %10s ms  spans %5.1f%% of wall\n",
                  layer.c_str(), Short(ms / std::max(1.0, execs)).c_str(),
                  100.0 * Ratio(breakdown.spanned_ms[layer],
                                breakdown.root_wall_ms));
    }
    std::printf("  %-24s      %10s ms        %5.1f%% of wall outside every "
                "layer span\n",
                "uncovered",
                Short((breakdown.root_wall_ms - breakdown.covered_ms) /
                      std::max(1.0, execs))
                    .c_str(),
                100.0 * (1.0 - Ratio(breakdown.covered_ms,
                                     breakdown.root_wall_ms)));
  } else {
    for (const Metric& m : outcome.metrics) {
      std::printf("  %-20s %12s %s\n", m.name.c_str(), Short(m.value).c_str(),
                  m.unit.c_str());
    }
    for (const Metric& m : unbounded) {
      std::printf("  %-20s %12s %-5s (not in the result line)\n",
                  m.name.c_str(), Short(m.value).c_str(), m.unit.c_str());
    }
  }

  if (!opt.out_dir.empty()) {
    MakeDir(opt.out_dir);
    const std::string stem = opt.out_dir + "/perfbench_" + def.name +
                             "_seed" + std::to_string(opt.seed) +
                             (opt.trace ? "_trace" : "");
    std::string metrics_json;
    for (const std::vector<Metric>* set : {&outcome.metrics, &unbounded}) {
      for (const Metric& m : *set) {
        metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" +
                        m.name + "\": {\"value\": " + Num(m.value) +
                        ", \"unit\": \"" + m.unit + "\"}";
      }
    }
    WriteText(stem + ".json", "{\"record\": " + record + ", \"metrics\": {" +
                                  metrics_json + "}}\n");
    if (opt.trace) {
      SpanLog all(0);
      all.Append(traced.spans);
      all.Append(replay_log);
      WriteJson(all.spans(), stem + "_spans.json");
    }
  }
  return outcome;
}

}  // namespace perfbench
